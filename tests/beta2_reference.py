"""Reference β = 2 decider for tests: the #-relation materialised as every
related pair, its classes by union-find over the pairs, and the witness by
BFS over the pair graph, as `icbounds.beta2` ran it before it worked on
the blind sets directly.  The decider must agree with it on the labeling,
the class count, the verdict and the witness length."""

from __future__ import annotations

from collections import deque

from instance_reference import blind_set

from icbounds.beta2 import AacWitness
from icbounds.combinatorial import is_weak_hyperclique
from icbounds.instance import Instance


def sharp_relation(inst: Instance) -> dict[frozenset[int], int]:
    """Unordered related pairs, each with one witnessing receiver index."""
    pairs: dict[frozenset[int], int] = {}
    for j in range(inst.m):
        t = sorted(blind_set(inst.receivers[j], inst.n))
        for a in range(len(t)):
            for b in range(a + 1, len(t)):
                pairs.setdefault(frozenset((t[a], t[b])), j)
    return pairs


def classes(inst: Instance, pairs: dict[frozenset[int], int]) -> tuple[list[int], int]:
    parent = list(range(inst.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pr in pairs:
        a, b = sorted(pr)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    ids: dict[int, int] = {}
    lab = []
    for vtx in range(inst.n):
        r = find(vtx)
        ids.setdefault(r, len(ids))
        lab.append(ids[r])
    return lab, len(ids)


def extract_aac(inst: Instance, j_star: int, pairs: dict[frozenset[int], int]) -> AacWitness:
    """BFS in the pair graph from f(j*) to the blind set of j*, unrolled."""
    src = inst.receivers[j_star].wants
    goal = blind_set(inst.receivers[j_star], inst.n)
    adj: dict[int, list[tuple[int, int]]] = {}
    for pr, j in pairs.items():
        a, b = sorted(pr)
        adj.setdefault(a, []).append((b, j))
        adj.setdefault(b, []).append((a, j))
    prev: dict[int, tuple[int, int]] = {}
    seen = {src}
    q = deque([src])
    end = None
    while q:
        cur = q.popleft()
        if cur in goal and cur != src:
            end = cur
            break
        for nxt, j in adj.get(cur, []):
            if nxt not in seen:
                seen.add(nxt)
                prev[nxt] = (cur, j)
                q.append(nxt)
    if end is None:
        raise AssertionError("no #-path despite a shared class")
    path_v = [end]
    path_e = []
    while path_v[-1] != src:
        p, j = prev[path_v[-1]]
        path_e.append(j)
        path_v.append(p)
    path_v.reverse()
    path_e.reverse()
    n = len(path_e)
    edges = path_e + [j_star]
    vertices = [inst.receivers[j].wants for j in edges[:n]] + path_v
    return AacWitness(n, vertices, edges)


def decide_reference(inst: Instance) -> tuple[bool, str, list[int] | None, int, AacWitness | None]:
    """(is_two, reason, labeling, class count, witness) of the decider."""
    if is_weak_hyperclique(inst, inst.distinct_receivers()):
        return False, "beta_below_2", None, 0, None
    pairs = sharp_relation(inst)
    lab, num = classes(inst, pairs)
    for j in range(inst.m):
        t = blind_set(inst.receivers[j], inst.n)
        if t and lab[inst.receivers[j].wants] == lab[next(iter(t))]:
            return False, "aac", None, 0, extract_aac(inst, j, pairs)
    return True, "", lab, num, None
