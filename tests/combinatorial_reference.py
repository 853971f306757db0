"""Reference implementations for tests of `icbounds.combinatorial`.

The maximal-hyperclique enumerator builds the compatibility graphs as
networkx graphs and finds their maximal cliques by `nx.find_cliques`, as
`icbounds.combinatorial` ran it before it enumerated cliques over bitmasks;
`enumerate_maximal_hypercliques` must return the same list.  The alpha
search carries its weights as Fractions, as `alpha_exact` did before it
searched on integers over the rates' common denominator; `alpha_exact` must
return the same value and the same sequence."""

from __future__ import annotations

from fractions import Fraction

import networkx as nx
from instance_reference import side_set

from icbounds.instance import Instance, to_mask


def _strong_compat_graph(inst: Instance) -> nx.Graph:
    full = frozenset(range(inst.n))
    allowed = {v: full for v in range(inst.n)}
    for r in inst.receivers:
        allowed[r.wants] = allowed[r.wants] & side_set(r)
    h = nx.Graph()
    h.add_nodes_from(range(inst.n))
    for u in range(inst.n):
        for v in range(u + 1, inst.n):
            if u in allowed[v] and v in allowed[u]:
                h.add_edge(u, v)
    return h


def _weak_compat_graph(inst: Instance) -> tuple[nx.Graph, tuple[int, ...]]:
    reps = inst.distinct_receivers()
    h = nx.Graph()
    h.add_nodes_from(reps)
    side = {j: side_set(inst.receivers[j]) for j in reps}
    for x, a in enumerate(reps):
        for b in reps[x + 1:]:
            if inst.receivers[b].wants in side[a] and inst.receivers[a].wants in side[b]:
                h.add_edge(a, b)
    return h, reps


def enumerate_maximal_hypercliques(inst: Instance, kind: str) -> list[frozenset[int]]:
    """All inclusion-maximal strong hypercliques (message sets) or weak
    hypercliques (receiver-index sets, one representative per distinct
    receiver), in canonical sorted order."""
    if kind == "strong":
        h = _strong_compat_graph(inst)
    elif kind == "weak":
        h, _ = _weak_compat_graph(inst)
    else:
        raise ValueError("kind must be 'weak' or 'strong'")
    cliques = [frozenset(c) for c in nx.find_cliques(h)] if h.number_of_nodes() else []
    return sorted(cliques, key=lambda s: sorted(s))


def alpha_exact(inst: Instance) -> tuple[Fraction, tuple[int, ...]]:
    """Maximum-weight expanding sequence by depth-first search with state
    memoization and a remaining-weight bound, on Fraction weights."""
    info = []
    for j in inst.distinct_receivers():
        r = inst.receivers[j]
        info.append((j, r.wants, to_mask(r.knows) | (1 << r.wants), inst.rate(r.wants)))
    memo: dict[int, tuple[Fraction, tuple[int, ...]]] = {}

    def remaining(used: int) -> Fraction:
        seen = 0
        tot = Fraction(0)
        for _, w, _, rw in info:
            if not used >> w & 1 and not seen >> w & 1:
                tot += rw
                seen |= 1 << w
        return tot

    def go(used: int) -> tuple[Fraction, tuple[int, ...]]:
        hit = memo.get(used)
        if hit is not None:
            return hit
        best = (Fraction(0), ())
        cap = remaining(used)
        for j, w, smask, rw in info:
            if used >> w & 1:
                continue
            sub_w, sub_seq = go(used | smask)
            cand = (rw + sub_w, (j,) + sub_seq)
            if cand[0] > best[0]:
                best = cand
                if best[0] == cap:
                    break
        memo[used] = best
        return best

    return go(0)
