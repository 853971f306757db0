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
receiver wanting into T; they are the weak hypercliques of the message
instance, which has one receiver per message v, wanting v and knowing the
S-set of every receiver that wants v (every message when none does).  So
one compatibility relation, a bitmask adjacency list built from
`Instance.side_masks`, serves both kinds: its maximal cliques, found by a
bitset Bron-Kerbosch with Tomita's pivot, are the maximal hypercliques, and
the cover LP, its verification and the integer cover's complement all read
it, on the instance itself (weak) or on its message instance (strong).
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .instance import CapExceeded, Graph, Instance, Receiver, bits, from_graph, to_mask
from .lp import LpProblem, ints, solve_min
from .numeric import is_prime

F0 = Fraction(0)


# -- linear algebra over F_p -------------------------------------------------


def row_reduce(mat: list[list[int]] | np.ndarray, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form of `mat` over F_p, p prime: its nonzero rows
    (each led by a 1 that is the only nonzero entry of its column) and
    their pivot columns, in increasing order.  The one F_p elimination every
    exact linear-algebra step builds on: the pivot columns of the reduced
    transpose are the first rows of `mat` that raise the rank, and column j
    of the reduced transpose expresses row j over them.  An int64 array is
    reduced mod p and read as lists once; the elimination runs on lists."""
    if isinstance(mat, np.ndarray):
        rows = np.remainder(mat, p).tolist()
    else:
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
        if used >> inst.receivers[j].wants & 1:
            return False
        used |= inst.side_masks[j]
    return True


def sequence_weight(inst: Instance, seq) -> Fraction:
    return sum((inst.rate(inst.receivers[j].wants) for j in seq), F0)


def alpha_exact(inst: Instance) -> tuple[Fraction, ExpandingSequence]:
    """Maximum-weight expanding sequence by depth-first search with state
    memoization and a remaining-weight bound.  Weights are carried as
    integers over the rates' common denominator, which keeps every
    comparison and tie; the Fraction is built at the return."""
    den = math.lcm(*(inst.rate(v).denominator for v in range(inst.n)))
    info = []
    for j in inst.distinct_receivers():
        w = inst.receivers[j].wants
        info.append((j, w, inst.side_masks[j], int(inst.rate(w) * den)))
    memo: dict[int, tuple[int, tuple[int, ...]]] = {}

    def remaining(used: int) -> int:
        seen = 0
        tot = 0
        for _, w, _, rw in info:
            if not used >> w & 1 and not seen >> w & 1:
                tot += rw
                seen |= 1 << w
        return tot

    def go(used: int) -> tuple[int, tuple[int, ...]]:
        hit = memo.get(used)
        if hit is not None:
            return hit
        best = (0, ())
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
    weight = Fraction(w, den)
    return weight, ExpandingSequence(seq, weight)


# -- hypercliques -----------------------------------------------------------


def expanding_pair(inst: Instance, receiver_set) -> tuple[int, int] | None:
    """The first pair (a, b) of the receivers, in increasing order, with
    f(b) outside S(a), which makes (a, b) an expanding sequence; None when
    there is none, i.e. the receivers form a weak hyperclique.  One pass:
    a is the first receiver whose S-set misses a wanted message."""
    rs = sorted(receiver_set)
    wanted = 0
    for b in rs:
        wanted |= 1 << inst.receivers[b].wants
    for a in rs:
        side = inst.side_masks[a]
        if wanted & ~side:
            return a, next(b for b in rs if not side >> inst.receivers[b].wants & 1)
    return None


def is_weak_hyperclique(inst: Instance, receiver_set) -> bool:
    return expanding_pair(inst, receiver_set) is None


def is_strong_hyperclique(inst: Instance, message_set) -> bool:
    return is_weak_hyperclique(_view(inst, "strong"), message_set)


def _view(inst: Instance, kind: str) -> Instance:
    """The instance whose weak hypercliques are inst's hypercliques of kind:
    inst itself (weak), or its message instance (strong), kept on inst.
    That has one receiver per message v, wanting v at v's rate and knowing
    every message in the S-set of every receiver that wants v (every
    message when none does); receiver v stands for message v, so a strong
    cover of inst is a weak cover of its message instance."""
    if kind == "weak":
        return inst
    if kind != "strong":
        raise ValueError("kind must be 'weak' or 'strong'")
    view = inst._covers.get("messages")
    if view is None:
        # receiver v knows what every receiver wanting v knows, v aside
        knows: list[frozenset[int] | None] = [None] * inst.n
        for r in inst.receivers:
            k = knows[r.wants]
            knows[r.wants] = r.knows if k is None else k & r.knows
        every = frozenset(range(inst.n))
        recs = tuple(Receiver(v, every - {v} if k is None else k) for v, k in enumerate(knows))
        view = inst._covers["messages"] = Instance(inst.n, recs, inst.rates)
    return view


def _compat(inst: Instance) -> tuple[list[int], tuple[int, ...]]:
    """(adj, targets): the weak compatibility graph as bitmask adjacency
    over the positions in targets, one representative per distinct
    receiver; two are compatible when each one's wanted message lies in
    the other's S-set."""
    targets = inst.distinct_receivers()
    # (wanted message as a bit, S-set) of each target
    pairs = [(1 << inst.receivers[j].wants, inst.side_masks[j]) for j in targets]
    return [sum(1 << y for y, (w, s) in enumerate(pairs) if y != x and w & side and want & s)
            for x, (want, side) in enumerate(pairs)], targets


def _maximal_cliques(adj: list[int]) -> list[int]:
    """Every maximal clique of the graph with bitmask adjacency adj, as a
    mask: Bron-Kerbosch with Tomita's pivot, the vertex of P | X with the
    most neighbours in P (Tomita, Tanaka and Takahashi, TCS 363, 2006)."""
    out = []
    nbrs = {1 << v: a for v, a in enumerate(adj)}  # a vertex's bit -> its neighbours

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                out.append(r)
            return
        most, pivot, rest = -1, 0, p | x
        while rest:
            low = rest & -rest
            rest ^= low
            k = (p & nbrs[low]).bit_count()
            if k > most:
                most, pivot = k, nbrs[low]
        cand = p & ~pivot
        while cand:
            low = cand & -cand
            cand ^= low
            expand(r | low, p & nbrs[low], x & nbrs[low])
            p ^= low
            x |= low

    if adj:
        expand(0, (1 << len(adj)) - 1, 0)
    return out


def _hypercliques(inst: Instance) -> tuple[list[list[int]], tuple[int, ...]]:
    """(cliques, targets): every maximal weak hyperclique as the increasing
    positions of its members in targets, in canonical sorted order."""
    adj, targets = _compat(inst)
    return sorted(map(bits, _maximal_cliques(adj))), targets


def enumerate_maximal_hypercliques(inst: Instance, kind: str) -> list[frozenset[int]]:
    """All inclusion-maximal strong hypercliques (message sets) or weak
    hypercliques (receiver-index sets, one representative per distinct
    receiver), in canonical sorted order."""
    cliques, targets = _hypercliques(_view(inst, kind))
    return [frozenset(targets[i] for i in c) for c in cliques]


# -- fractional covers ------------------------------------------------------


@dataclass
class FractionalCover:
    kind: str
    items: list[tuple[frozenset[int], Fraction]]  # (hyperclique, weight > 0)
    total: Fraction


def verify_cover(inst: Instance, cover: FractionalCover) -> list[str]:
    """The faults of cover, checked as a weak cover of its view: inst for a
    weak cover, the message instance for a strong one, whose receiver v is
    message v."""
    view = _view(inst, cover.kind)
    bad = []
    masks = []
    for s, w in cover.items:
        if w < 0:
            bad.append(f"negative weight on {sorted(s)}")
        mask = to_mask(s)
        # a hyperclique's wanted messages all lie in each member's S-set
        need, have = 0, -1
        for t in bits(mask):
            need |= 1 << view.receivers[t].wants
            have &= view.side_masks[t]
        if need & ~have:
            bad.append(f"{sorted(s)} is not a {cover.kind} hyperclique")
        masks.append(mask)
    weights = [w for _, w in cover.items]
    if sum(weights, F0) != cover.total:
        bad.append("total weight mismatch")
    # Coverage in integers: weights and rates over their common denominator.
    rates = view.rates or (1,) * view.n
    d = math.lcm(*(w.denominator for w in weights), *(r.denominator for r in rates))
    got = [0] * view.m
    for mask, w in zip(masks, weights):
        for t in bits(mask):
            got[t] += w.numerator * (d // w.denominator)
    target = "message" if cover.kind == "strong" else "receiver"
    for j, r in enumerate(view.receivers):
        g = got[view.representative[j]]
        if g * rates[r.wants].denominator < rates[r.wants].numerator * d:
            bad.append(f"{target} {j} covered {Fraction(g, d)} < {rates[r.wants]}")
    return bad


def _rate_arrays(inst: Instance, messages) -> tuple[np.ndarray, np.ndarray]:
    """The rates of messages as numerator and denominator arrays."""
    rates = [inst.rates[v] for v in messages] if inst.rates else [1] * len(messages)
    nums, dens = [r.numerator for r in rates], [r.denominator for r in rates]
    bound = max(nums + dens, default=1)
    return ints(nums, bound), ints(dens, bound)


def _owner(inst: Instance) -> list[int] | None:
    """owner[v]: the representative receiver wanting message v, when inst is
    unicast (its distinct receivers want pairwise different messages and
    every message is wanted, so owner is a bijection); None otherwise."""
    reps = inst.distinct_receivers()
    owner = {inst.receivers[j].wants: j for j in reps}
    return [owner[v] for v in range(inst.n)] if len(owner) == len(reps) == inst.n else None


def fractional_cover(inst: Instance, kind: str) -> FractionalCover:
    """Minimum-total-weight fractional cover by maximal hypercliques (exact
    LP).  Strong covers every message at its rate; weak covers every
    receiver at the rate of its wanted message, its items sets of
    representative receiver indices.

    On a unicast instance (owner[v], the representative wanting v, a
    bijection) the weak hypercliques are the strong ones relabelled by
    owner, and both LPs have the same rows (the message instance's receiver
    v knows what owner[v] knows, at the same rate), so the weak cover is
    the strong one relabelled: one LP serves psi_f and chi_bar_f.  The
    solved strong cover is kept on inst; every call returns a fresh,
    verified FractionalCover."""
    owner = _owner(inst) if kind == "weak" else None
    if kind != "strong" and owner is None:  # non-unicast weak, or an unknown kind (refused there)
        return _solve_cover(inst, kind)
    strong = inst._covers.get("strong")
    if strong is None:
        strong = inst._covers["strong"] = _solve_cover(inst, "strong")
    if owner is None:
        return FractionalCover("strong", list(strong.items), strong.total)
    items = [(frozenset(owner[v] for v in s), w) for s, w in strong.items]
    return _verified(inst, FractionalCover("weak", items, strong.total))


def _verified(inst: Instance, cover: FractionalCover) -> FractionalCover:
    bad = verify_cover(inst, cover)
    if bad:
        raise AssertionError(f"cover failed verification: {bad}")
    return cover


def _solve_cover(inst: Instance, kind: str) -> FractionalCover:
    """The weak cover LP of inst's view for kind, built as a target x
    clique membership matrix, solved and verified."""
    view = _view(inst, kind)
    cliques, targets = _hypercliques(view)
    # target x clique membership: row t sums the cliques containing t
    member = np.zeros((len(targets), len(cliques)), bool)
    member[[t for c in cliques for t in c], [j for j, c in enumerate(cliques) for _ in c]] = True
    cols = np.nonzero(member)[1]
    indptr = np.concatenate([[0], np.cumsum(member.sum(axis=1))])
    p = LpProblem(len(cliques), dict.fromkeys(range(len(cliques)), 1), indptr, cols,
                  np.ones(len(cols), np.int64),
                  *_rate_arrays(view, [view.receivers[j].wants for j in targets]))
    opt = solve_min(p)
    items = [(frozenset(targets[i] for i in cliques[j]), v) for j, v in enumerate(opt.x) if v]
    return _verified(inst, FractionalCover(kind, items, opt.value))


def integer_clique_cover(inst: Instance | Graph) -> tuple[int, list[frozenset[int]]]:
    """Exact minimum cover of the messages by strong hypercliques, i.e. by
    cliques of the message instance's compatibility graph (on a graph
    instance, the graph itself); a graph is read as its instance.  Branch and bound on a
    coloring of the complement; intended for n <= ~20."""
    if isinstance(inst, Graph):
        inst = from_graph(inst)
    n = inst.n
    adj, _ = _compat(_view(inst, "strong"))
    comp_adj = [bits((1 << n) - 1 & ~a & ~(1 << u)) for u, a in enumerate(adj)]
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
    if not (isinstance(mat, list) and all(
            isinstance(row, list) and all(type(v) is int for v in row) for row in mat)):
        return ["matrix is not a list of rows of integers"]
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
    """Rank of a supplied fitting matrix over F_p: an upper bound on minrank.
    A field that is not a prime (over Z/4, say, the rank of a ring) raises
    ValueError."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"matrix field {p!r} is not an integer of at least 2")
    if not is_prime(p):
        raise ValueError(f"matrix field {p} is not a prime")
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
    knows = {j: inst.side_masks[j] & ~(1 << inst.receivers[j].wants) for j in reps}
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

    # basis: (lead bit, row) pairs in increasing lead order, each lead the
    # row's highest bit; reduce clears them from the highest down
    def reduce(row: int, basis: list[tuple[int, int]]) -> int:
        for lead, b in reversed(basis):
            if row & lead:
                row ^= b
        return row

    def dfs(i: int, basis: list[tuple[int, int]]) -> None:
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
                nb = basis.copy()
                insort(nb, (1 << (red.bit_length() - 1), red))
                dfs(i + 1, nb)
            else:
                dfs(i + 1, basis)
        rows_by_j.pop(j, None)

    dfs(0, [])
    if best_rows is None:
        raise AssertionError("minrank search found no fitting matrix")
    mat = [[best_rows[rep] >> v & 1 for v in range(n)] for rep in inst.representative]
    return MinrkResult(best, mat, 2, True)
