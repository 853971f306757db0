"""Combinatorial quantities flanking the broadcast rate.

Lower side: maximum-weight expanding sequences (alpha).  Upper side: weak and
strong fractional hyperclique covers (psi_f, chi_bar_f), the least integer
cover by strong hypercliques (chi_bar), and the GF(2) minimum rank of any
instance's fitting matrices.
Exact linear algebra over F_p (ranks here, row bases and decoder solves in
`codes`) runs on one routine, `row_reduce`.

Hyperclique compatibility uses S(j) = N(j) | {f(j)}: two receivers are
compatible when each one's wanted message lies in the other's S-set.  (Two
receivers wanting the same message are compatible: the sum code still serves
both.)  Strong hypercliques are message sets T with T <= S(j) for every
receiver wanting into T; singletons always qualify and the family is closed
under subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import numpy as np

from .instance import CapExceeded, Instance, Graph, from_graph, to_mask
from .lp import LpProblem, solve_min

F0 = Fraction(0)


# -- linear algebra over F_p -------------------------------------------------


def row_reduce(mat: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form of `mat` over F_p, p prime: its nonzero rows
    (each led by a 1 that is the only nonzero entry of its column) and
    their pivot columns, in increasing order.  The one F_p elimination every
    exact linear-algebra step builds on: the pivot columns of the reduced
    transpose are the first rows of `mat` that raise the rank, and column j
    of the reduced transpose expresses row j over them."""
    rows = [[v % p for v in row] for row in mat]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def rank_mod_p(mat: list[list[int]], p: int) -> int:
    return len(row_reduce(mat, p)[1])


# -- expanding sequences and alpha ------------------------------------------


@dataclass(frozen=True)
class ExpandingSequence:
    receivers: tuple[int, ...]
    weight: Fraction


def is_expanding_sequence(inst: Instance, seq) -> bool:
    """Each receiver's wanted message avoids every earlier S(i)."""
    used = 0
    for j in seq:
        r = inst.receivers[j]
        smask = to_mask(r.knows) | (1 << r.wants)
        if used >> r.wants & 1:
            return False
        used |= smask
    return True


def sequence_weight(inst: Instance, seq) -> Fraction:
    return sum((inst.rate(inst.receivers[j].wants) for j in seq), F0)


def alpha_exact(inst: Instance) -> tuple[Fraction, ExpandingSequence]:
    """Maximum-weight expanding sequence by depth-first search with state
    memoization and a remaining-weight bound."""
    reps = inst.distinct_receivers()
    info = []
    for j in reps:
        r = inst.receivers[j]
        info.append((j, r.wants, to_mask(r.knows) | (1 << r.wants), inst.rate(r.wants)))
    memo: dict[int, tuple[Fraction, tuple[int, ...]]] = {}

    def remaining(used: int) -> Fraction:
        seen = 0
        tot = F0
        for _, w, _, rw in info:
            if not used >> w & 1 and not seen >> w & 1:
                tot += rw
                seen |= 1 << w
        return tot

    def go(used: int) -> tuple[Fraction, tuple[int, ...]]:
        hit = memo.get(used)
        if hit is not None:
            return hit
        best = (F0, ())
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

    w, seq = go(0)
    return w, ExpandingSequence(seq, w)


# -- hypercliques -----------------------------------------------------------


def is_weak_hyperclique(inst: Instance, receiver_set) -> bool:
    rs = sorted(receiver_set)
    for a in rs:
        sa = inst.receivers[a].side_set()
        for b in rs:
            if a == b:
                continue
            if inst.receivers[b].wants not in sa:
                return False
    return True


def is_strong_hyperclique(inst: Instance, message_set) -> bool:
    t = frozenset(message_set)
    for r in inst.receivers:
        if r.wants in t and not t <= r.side_set():
            return False
    return True


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


# -- fractional covers ------------------------------------------------------


@dataclass
class FractionalCover:
    kind: str
    items: list[tuple[frozenset[int], Fraction]]  # (hyperclique, weight > 0)
    total: Fraction


def verify_cover(inst: Instance, cover: FractionalCover) -> list[str]:
    bad = []
    for s, w in cover.items:
        if w < 0:
            bad.append(f"negative weight on {sorted(s)}")
        pred = is_strong_hyperclique if cover.kind == "strong" else is_weak_hyperclique
        if not pred(inst, s):
            bad.append(f"{sorted(s)} is not a {cover.kind} hyperclique")
    if sum((w for _, w in cover.items), F0) != cover.total:
        bad.append("total weight mismatch")
    if cover.kind == "strong":
        for v in range(inst.n):
            got = sum((w for s, w in cover.items if v in s), F0)
            if got < inst.rate(v):
                bad.append(f"message {v} covered {got} < {inst.rate(v)}")
    else:
        for j, r in enumerate(inst.receivers):
            rep = inst.representative[j]
            got = sum((w for s, w in cover.items if rep in s), F0)
            if got < inst.rate(r.wants):
                bad.append(f"receiver {j} covered {got} < {inst.rate(r.wants)}")
    return bad


def fractional_cover(inst: Instance, kind: str) -> FractionalCover:
    """Minimum-total-weight fractional cover by maximal hypercliques (exact
    LP).  Strong covers every message at its rate; weak covers every
    receiver at the rate of its wanted message."""
    cliques = enumerate_maximal_hypercliques(inst, kind)
    if kind == "strong":
        targets = list(range(inst.n))
        thresh = [Fraction(inst.rate(v)) for v in targets]
    else:
        targets = list(inst.distinct_receivers())
        thresh = [Fraction(inst.rate(inst.receivers[j].wants)) for j in targets]
    # target x clique membership: row t sums the cliques containing t
    row_of = {t: i for i, t in enumerate(targets)}
    member = np.zeros((len(targets), len(cliques)), bool)
    member[[row_of[t] for s in cliques for t in s],
           [j for j, s in enumerate(cliques) for _ in s]] = True
    uncovered = ~member.any(axis=1)
    if uncovered.any():
        raise ValueError(f"no {kind} hyperclique covers {targets[int(uncovered.argmax())]}")
    cols = np.nonzero(member)[1]
    indptr = np.concatenate([[0], np.cumsum(member.sum(axis=1))])
    p = LpProblem(len(cliques), dict.fromkeys(range(len(cliques)), 1), indptr, cols,
                  np.ones(len(cols), np.int64), np.ones(len(targets), np.int64), thresh)
    opt = solve_min(p)
    if opt.status != "optimal":
        raise AssertionError(f"cover LP came back {opt.status}")
    items = [(cliques[j], opt.x[j]) for j in range(len(cliques)) if opt.x[j] > 0]
    cover = FractionalCover(kind, items, opt.value)
    bad = verify_cover(inst, cover)
    if bad:
        raise AssertionError(f"cover failed verification: {bad}")
    return cover


def integer_clique_cover(inst: Instance | Graph) -> tuple[int, list[frozenset[int]]]:
    """Exact minimum cover of the messages by strong hypercliques, i.e. by
    cliques of the pairwise compatibility graph (on a graph instance, the
    graph itself); a graph is read as its instance.  Branch and bound on a
    coloring of the complement; intended for n <= ~20."""
    if isinstance(inst, Graph):
        inst = from_graph(inst)
    n = inst.n
    comp = nx.complement(_strong_compat_graph(inst))
    comp_adj = [frozenset(comp[u]) for u in range(n)]
    order = sorted(range(n), key=lambda v: -len(comp_adj[v]))
    best_k = n + 1
    best_assign: list[int] = []
    assign = [-1] * n

    def bt(i: int, used: int) -> None:
        nonlocal best_k, best_assign
        if used >= best_k:
            return
        if i == n:
            best_k = used
            best_assign = assign.copy()
            return
        v = order[i]
        blocked = {assign[u] for u in comp_adj[v] if assign[u] >= 0}
        for c in range(min(used + 1, best_k - 1)):
            if c in blocked:
                continue
            assign[v] = c
            bt(i + 1, max(used, c + 1))
            assign[v] = -1

    bt(0, 0)
    groups: dict[int, set[int]] = {}
    for v, c in enumerate(best_assign):
        groups.setdefault(c, set()).add(v)
    return best_k, [frozenset(s) for _, s in sorted(groups.items())]


# -- minrank over finite fields ---------------------------------------------


@dataclass
class MinrkResult:
    value: int
    matrix: list[list[int]]  # m x n over F_p, row j for receiver j
    field: int
    exact: bool  # exact minimum vs upper bound from one representation


def fits_graph(inst: Instance, mat: list[list[int]], p: int) -> list[str]:
    """Violations of the fitting pattern: an m x n matrix whose row j is
    nonzero at f(j), free on N(j) and zero elsewhere."""
    if len(mat) != inst.m or any(len(row) != inst.n for row in mat):
        return [f"matrix is not {inst.m} x {inst.n}"]
    bad = []
    for j, r in enumerate(inst.receivers):
        if mat[j][r.wants] % p == 0:
            bad.append(f"receiver {j}: zero entry at its wanted message {r.wants}")
        for v in range(inst.n):
            if v != r.wants and mat[j][v] % p and v not in r.knows:
                bad.append(f"receiver {j}: nonzero entry at message {v} outside N({j})")
    return bad


def representation_rank(inst: Instance, mat: list[list[int]], p: int = 2) -> MinrkResult:
    """Rank of a supplied fitting matrix: an upper bound on minrank."""
    bad = fits_graph(inst, mat, p)
    if bad:
        raise ValueError(f"matrix does not fit the instance: {bad}")
    return MinrkResult(rank_mod_p(mat, p), [[v % p for v in r] for r in mat], p, False)


MINRK_FREE_ENTRY_CAP = 26


def minrk2(inst: Instance | Graph, cap: int = MINRK_FREE_ENTRY_CAP) -> MinrkResult:
    """Exact minimum GF(2) rank over all fitting matrices (row j: a 1 at
    f(j), free entries on N(j)); a graph is read as its instance.
    Row-by-row search with incremental elimination and rank pruning over the
    distinct receivers; an identical copy (same wants and knows) gets its
    representative's row, which leaves the rank unchanged.  Raises
    CapExceeded above `cap` free entries of distinct receivers."""
    if isinstance(inst, Graph):
        inst = from_graph(inst)
    n = inst.n
    reps = inst.distinct_receivers()
    knows = {j: to_mask(inst.receivers[j].knows) for j in reps}
    free = sum(k.bit_count() for k in knows.values())
    if free > cap:
        raise CapExceeded("minrk-free-entries", free, cap)
    # alpha is a lower bound on minrank: stop when it is reached.
    alpha_lb = math.ceil(alpha_exact(inst)[0])
    order = sorted(reps, key=lambda j: knows[j].bit_count())
    best = len(reps) + 1
    best_rows: dict[int, int] | None = None

    def choices(j: int):
        mask = knows[j]
        sub = mask
        out = []
        while True:
            out.append((1 << inst.receivers[j].wants) | sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
        return out

    rows_by_j: dict[int, int] = {}

    def reduce(row: int, basis: dict[int, int]) -> int:
        for lead in sorted(basis, reverse=True):
            if row >> lead & 1:
                row ^= basis[lead]
        return row

    def dfs(i: int, basis: dict[int, int]) -> None:
        nonlocal best, best_rows
        if len(basis) >= best or (best_rows is not None and best == alpha_lb):
            return
        if i == len(order):
            best = len(basis)
            best_rows = dict(rows_by_j)
            return
        j = order[i]
        for row in choices(j):
            red = reduce(row, basis)
            rows_by_j[j] = row
            if red:
                nb = dict(basis)
                nb[red.bit_length() - 1] = red
                dfs(i + 1, nb)
            else:
                dfs(i + 1, basis)
        rows_by_j.pop(j, None)

    dfs(0, {})
    if best_rows is None:
        raise AssertionError("minrank search found no fitting matrix")
    mat = [[best_rows[rep] >> v & 1 for v in range(n)] for rep in inst.representative]
    return MinrkResult(best, mat, 2, True)
