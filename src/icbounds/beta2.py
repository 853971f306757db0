"""Polynomial-time decision of "broadcast rate exactly 2".

Vertices v, w are related (v # w) when some receiver is blind on both, i.e.
{v, w} <= T(j) = V \\ (N(j) | {f(j)}).  Classes of the transitive closure
give a candidate labeling; the instance admits a rate-2 scheme iff for every
receiver the class of its blind set differs from the class of its wanted
message.  On success the labeling is the certificate: it yields the
two-symbol sum / weighted-sum code, `codes.two_symbol_code(inst, labeling,
num_classes)`, which the decision does not build.  On failure a shortest
path in the #-graph from f(j) into T(j) unrolls into an
almost-alternating-cycle witness certifying a bound of 2 + 1/n.

Receivers that are blind on nothing impose no relation and are always
servable; instances whose receivers form one weak hyperclique are fenced off
(rate 1 territory) with reason "beta_below_2".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .combinatorial import is_weak_hyperclique
from .instance import Instance


@dataclass
class AacWitness:
    """Vertices v_{-n}..v_n and receivers j_0..j_n of an almost alternating
    (2n+1)-cycle: f(j_i) = v_{i-n}, T(j_i) contains v_i (and v_{i+1} for
    i < n)."""

    n: int
    vertices: list[int]  # length 2n+1, index i holds v_{i-n}
    edges: list[int]  # length n+1

    @property
    def bound(self) -> Fraction:
        return 2 + Fraction(1, self.n)


def validate_aac(inst: Instance, w: AacWitness) -> list[str]:
    bad = []
    n = w.n
    if len(w.vertices) != 2 * n + 1 or len(w.edges) != n + 1:
        return ["wrong sequence lengths"]

    def v(i: int) -> int:
        return w.vertices[i + n]

    for i, j in enumerate(w.edges):
        t = inst.receivers[j].blind_set(inst.n)
        if inst.receivers[j].wants != v(i - n):
            bad.append(f"edge {i}: wanted message is not v_{i - n}")
        if v(i) not in t:
            bad.append(f"edge {i}: v_{i} not in the blind set")
        if i < n and v(i + 1) not in t:
            bad.append(f"edge {i}: v_{i + 1} not in the blind set")
    return bad


@dataclass
class Beta2Certificate:
    is_two: bool
    reason: str = ""
    labeling: list[int] | None = None  # vertex -> class id
    num_classes: int = 0
    aac: AacWitness | None = None
    bound: Fraction | None = None  # lower bound on beta when is_two is False


def _classes(blind: list[frozenset[int]], n: int) -> tuple[list[int], int]:
    """Classes of the transitive closure of #: every blind set lies in one
    class, so each is unioned into its first vertex."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in blind:
        root = find(min(t, default=0))
        for v in t:
            parent[find(v)] = root
    ids: dict[int, int] = {}
    lab = []
    for vtx in range(n):
        r = find(vtx)
        ids.setdefault(r, len(ids))
        lab.append(ids[r])
    return lab, len(ids)


def _extract_aac(inst: Instance, j_star: int, blind: list[frozenset[int]]) -> AacWitness:
    """BFS in the #-graph from f(j*) to the blind set of j*; unroll the
    shortest path into an almost-alternating-cycle witness.  One hop from v
    is any blind set containing v, and each blind set is expanded once, the
    first time the search reaches it, which keeps every distance shortest."""
    src = inst.receivers[j_star].wants
    goal = blind[j_star]
    holders: list[list[int]] = [[] for _ in range(inst.n)]
    for j, t in enumerate(blind):
        for v in t:
            holders[v].append(j)
    expanded = [False] * inst.m
    prev: dict[int, tuple[int, int]] = {}
    seen = {src}
    q = deque([src])
    end = None
    while q:
        cur = q.popleft()
        if cur in goal:
            end = cur
            break
        for j in holders[cur]:
            if expanded[j]:
                continue
            expanded[j] = True
            for nxt in blind[j]:
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
    path_v.reverse()  # v_0 = f(j*), ..., v_n in T(j*)
    path_e.reverse()  # witnesses for (v_i, v_{i+1})
    n = len(path_e)
    edges = path_e + [j_star]
    vertices = [inst.receivers[j].wants for j in edges[:n]] + path_v
    # vertices holds v_{-n}..v_{-1} (wants of j_0..j_{n-1}) then v_0..v_n;
    # f(j_n) = f(j*) = v_0 by construction.
    return AacWitness(n, vertices, edges)


def decide_beta_eq_2(inst: Instance) -> Beta2Certificate:
    reps = inst.distinct_receivers()
    if is_weak_hyperclique(inst, reps):
        return Beta2Certificate(False, reason="beta_below_2")
    blind = [r.blind_set(inst.n) for r in inst.receivers]
    lab, num = _classes(blind, inst.n)
    for j, t in enumerate(blind):
        if not t:
            continue
        c = lab[next(iter(t))]
        if lab[inst.receivers[j].wants] == c:
            w = _extract_aac(inst, j, blind)
            bad = validate_aac(inst, w)
            if bad:
                raise AssertionError(f"extracted witness failed validation: {bad}")
            return Beta2Certificate(False, reason="aac", aac=w, bound=w.bound)
    return Beta2Certificate(True, labeling=lab, num_classes=num)


def undirected_beta2(g) -> bool:
    """A graph has rate exactly 2 iff its complement is bipartite (and has
    at least one edge).  Bipartiteness by a BFS 2-colouring, independent of
    decide_beta_eq_2."""
    from .families import complement

    cg = complement(g)
    if not cg.edges:
        raise ValueError("complete graph: complement has no edges (rate <= 1)")
    adj: list[list[int]] = [[] for _ in range(cg.n)]
    for u, v in cg.edge_list():
        adj[u].append(v)
        adj[v].append(u)
    colour = [-1] * cg.n
    for start in range(cg.n):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        queue = [start]
        for u in queue:
            for v in adj[u]:
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return False
    return True
