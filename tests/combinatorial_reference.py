"""Reference implementations for tests of `icbounds.combinatorial`.

The maximal-hyperclique enumerator builds the compatibility graphs as
networkx graphs and finds their maximal cliques by `nx.find_cliques`, as
`icbounds.combinatorial` ran it before it enumerated cliques over bitmasks;
`enumerate_maximal_hypercliques` must return the same list.  The strong
and weak relations stay two separate graphs here, each read off sets: the
strong one off the messages each message allows, the weak one off the
S-sets of representative receivers, as `icbounds.combinatorial` read them
before it took strong hypercliques as the weak hypercliques of the message
instance.  The strong predicate, the cover LP (appended a row at a time) and
the cover check follow the same two relations; the library must give the
same answers, the same covers and the same faults, word for word.  The alpha
search carries its weights as Fractions, as `alpha_exact` did before it
searched on integers over the rates' common denominator; `alpha_exact` must
return the same value and the same sequence."""

from __future__ import annotations

from fractions import Fraction

import networkx as nx
from instance_reference import side_set

from icbounds.instance import Instance, to_mask
from icbounds.lp import LpProblem, solve_min


def _allowed(inst: Instance) -> dict[int, frozenset[int]]:
    """allowed[v]: the messages in the S-set of every receiver wanting v."""
    full = frozenset(range(inst.n))
    allowed = {v: full for v in range(inst.n)}
    for r in inst.receivers:
        allowed[r.wants] = allowed[r.wants] & side_set(r)
    return allowed


def is_strong_hyperclique(inst: Instance, message_set) -> bool:
    """T <= S(j) for every receiver j wanting a message of T."""
    t = frozenset(message_set)
    return all(t <= side_set(r) for r in inst.receivers if r.wants in t)


def _strong_compat_graph(inst: Instance) -> nx.Graph:
    allowed = _allowed(inst)
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


def fractional_cover(inst: Instance, kind: str) -> tuple[list, Fraction]:
    """(items, total): the cover LP over the reference's maximal
    hypercliques, one row per message (strong) or per representative
    receiver (weak) appended with LpProblem.add, and its optimum's items."""
    cliques = enumerate_maximal_hypercliques(inst, kind)
    if kind == "strong":
        targets = [(v, inst.rate(v)) for v in range(inst.n)]
    else:
        targets = [(j, inst.rate(inst.receivers[j].wants)) for j in inst.distinct_receivers()]
    lp = LpProblem(len(cliques), dict.fromkeys(range(len(cliques)), 1))
    for t, rate in targets:
        lp.add({j: 1 for j, c in enumerate(cliques) if t in c}, rate)
    opt = solve_min(lp)
    return [(c, x) for c, x in zip(cliques, opt.x) if x], opt.value


def verify_cover(inst: Instance, cover) -> list[str]:
    """The faults of a cover, checked on sets: each item a hyperclique of
    the cover's kind, the weights summing to the total, every message
    (strong) or receiver (weak) covered at its rate."""
    strong = cover.kind == "strong"
    allowed = _allowed(inst)
    bad = []
    for s, w in cover.items:
        if w < 0:
            bad.append(f"negative weight on {sorted(s)}")
        if strong:
            ok = all(s <= allowed[v] for v in s)
        else:
            ok = all(inst.receivers[b].wants in side_set(inst.receivers[a]) for a in s for b in s)
        if not ok:
            bad.append(f"{sorted(s)} is not a {cover.kind} hyperclique")
    if sum((w for _, w in cover.items), Fraction(0)) != cover.total:
        bad.append("total weight mismatch")
    if strong:
        for v in range(inst.n):
            got = sum((w for s, w in cover.items if v in s), Fraction(0))
            if got < inst.rate(v):
                bad.append(f"message {v} covered {got} < {inst.rate(v)}")
    else:
        for j, r in enumerate(inst.receivers):
            got = sum((w for s, w in cover.items if inst.representative[j] in s), Fraction(0))
            if got < inst.rate(r.wants):
                bad.append(f"receiver {j} covered {got} < {inst.rate(r.wants)}")
    return bad


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
