"""Polynomial-time decision of "broadcast rate exactly 2".

Vertices v, w are related (v # w) when some receiver is blind on both, i.e.
{v, w} <= T(j) = V \\ (N(j) | {f(j)}).  Each T(j) is held as the mask
V & ~side_masks[j]; classes of the transitive closure, the unions of blind
sets that meet, give a candidate labeling; the instance admits a rate-2
scheme iff for every receiver the class of its blind set differs from the
class of its wanted message.  On success the labeling is the certificate:
it yields the two-symbol sum / weighted-sum code,
`codes.two_symbol_code(inst, labeling, num_classes)`, which the decision
does not build.  On failure a shortest path in the #-graph from f(j) into
T(j), a breadth-first search over the blind masks, unrolls into an
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
from .instance import Instance, bits


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

    def blind(j: int, x: int) -> bool:  # x in T(j), the complement of S(j)
        return 0 <= x < inst.n and not inst.side_masks[j] >> x & 1

    for i, j in enumerate(w.edges):
        if inst.receivers[j].wants != v(i - n):
            bad.append(f"edge {i}: wanted message is not v_{i - n}")
        if not blind(j, v(i)):
            bad.append(f"edge {i}: v_{i} not in the blind set")
        if i < n and not blind(j, v(i + 1)):
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


def _labeling(blind: list[int], n: int) -> tuple[list[int], int]:
    """Classes of the transitive closure of #, blind sets given as masks:
    blind sets that meet are merged, and a vertex in no blind set is a
    class of its own.  Classes are numbered in order of their least
    vertex.  Returns (vertex -> class, class count)."""
    merged: list[int] = []  # disjoint unions of blind sets
    covered = 0
    for t in blind:
        if t:
            covered |= t
            rest = []
            for c in merged:
                if c & t:
                    t |= c
                else:
                    rest.append(c)
            rest.append(t)
            merged = rest
    classes = merged + [1 << v for v in bits(((1 << n) - 1) & ~covered)]
    classes.sort(key=lambda c: c & -c)
    lab = [0] * n
    for i, c in enumerate(classes):
        for v in bits(c):
            lab[v] = i
    return lab, len(classes)


def _extract_aac(inst: Instance, j_star: int, blind: list[int]) -> AacWitness:
    """BFS in the #-graph from f(j*) to the blind set of j*; unroll the
    shortest path into an almost-alternating-cycle witness.  One hop from v
    is any blind set containing v, and each blind set is expanded once, the
    first time the search reaches it, which keeps every distance shortest.
    Blind sets are masks; an expanded one enqueues its new vertices in
    increasing order, which picks the witness among the shortest ones as a
    function of the instance alone."""
    src = inst.receivers[j_star].wants
    goal = blind[j_star]
    pending = [j for j, t in enumerate(blind) if t]  # not yet expanded
    prev: dict[int, tuple[int, int]] = {}
    seen = 1 << src
    q = deque([src])
    end = None
    while q:
        cur = q.popleft()
        if goal >> cur & 1:
            end = cur
            break
        rest = []
        for j in pending:
            if not blind[j] >> cur & 1:
                rest.append(j)
            else:
                new = blind[j] & ~seen
                seen |= new
                for nxt in bits(new):
                    prev[nxt] = (cur, j)
                    q.append(nxt)
        pending = rest
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
    full = (1 << inst.n) - 1
    blind = [full & ~side for side in inst.side_masks]
    lab, num = _labeling(blind, inst.n)
    for j, t in enumerate(blind):
        if t and lab[inst.receivers[j].wants] == lab[(t & -t).bit_length() - 1]:
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
