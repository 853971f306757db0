"""Reference maximal-hyperclique enumerator for tests: the compatibility
graphs built as networkx graphs and their maximal cliques found by
`nx.find_cliques`, as `icbounds.combinatorial` ran it before it enumerated
cliques over bitmasks.  `enumerate_maximal_hypercliques` must return the
same list."""

from __future__ import annotations

import networkx as nx

from icbounds.instance import Instance


def _strong_compat_graph(inst: Instance) -> nx.Graph:
    full = frozenset(range(inst.n))
    allowed = {v: full for v in range(inst.n)}
    for r in inst.receivers:
        allowed[r.wants] = allowed[r.wants] & r.side_set()
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
    side = {j: inst.receivers[j].side_set() for j in reps}
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
