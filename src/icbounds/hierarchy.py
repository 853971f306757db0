"""The entropy-style LP hierarchy B_1..B_n bounding the broadcast rate.

Level k has one variable X(S) per message subset and, on top of the
initialize / non-negativity / slope / monotonicity / decode constraints,
all signed inclusion-exclusion ("submodularity") rows of orders 2..k.
b_1 equals the expanding-sequence bound, b_2 <= beta <= b_n, and b_n equals
the strong fractional hyperclique-cover value.

The LP is built in reduced form, over closure classes.  The closure cl(S)
is S plus every message a receiver can decode from S, repeated until
nothing is added.  The decode and monotonicity rows force X(S) = X(cl(S)),
so X(S) is the variable of cl(S), and the decode rows, all 0 >= 0 there,
are not emitted.  Slope and monotonicity are emitted only for
single-element increments outside the closure of the set they extend: the
row of any S is that of cl(S), or vanishes when the element lies in cl(S),
and every general slope or monotonicity row is a sum of these.
Submodularity rows are emitted only for Z closed and disjoint from R:
cl(Z | T) = cl(cl(Z) | T), so the row of any other Z is that of cl(Z) or,
when cl(Z) meets R, cancels to nothing.  tests/hierarchy_reference.py
emits the unreduced rows over every mask, and the property tests compare
the two at small n.  Orbit reduction under a supplied vertex symmetry
group replaces cl(S) by its orbit representative; generators are validated
as instance automorphisms, so the closure commutes with each of them.

The LP is built from numpy index arrays.  The closure and the orbit labels
(vectorized bit permutations and min-label propagation) of all 2^n masks
are computed at once, and one array maps every mask to its variable.  Each
category is emitted as a block of rows -- mask columns, +-1 coefficients
and the id of a right-hand side -- in a fixed order: initialize,
non-negativity, slope and monotonicity interleaved per pair S < T,
submodularity-2..k.  Only rows that can be the first occurrence of their
row are emitted (orbit first).  Every mask of a class (the masks whose
closures share an orbit) has the same slope and monotonicity rows, so only
the smallest one emits them.  A submodularity row is emitted only for the
first r-set R of its orbit in combinations order, since an earlier g(R)
has the same rows.  Mapping masks to variables can still merge columns
within a row, cancel them, and make rows equal, so zero coefficients and
empty rows are dropped and the rows are deduplicated once, each first
occurrence kept; the rows and their order match a row-by-row build.
Without a group every closed mask is its own orbit and the same code runs.
Coefficients are integers; rates appear only in the right-hand sides.
solve_bk answers in the LP's own variables, one per orbit of closed sets,
with the map from masks to them: X(S) = x[var_of_mask[S]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .instance import CapExceeded, Instance
from .lp import LpProblem, ints, solve_min

# Row categories, in emission order; submodularity-2..k follow.
CATEGORIES = ["initialize", "non-negativity", "slope", "monotonicity"]
INITIALIZE, NON_NEGATIVITY, SLOPE, MONOTONICITY = range(len(CATEGORIES))

# Rows canonicalized at a time, which bounds _canonical's working memory;
# the emitted rows are deduplicated once, all together.
CHUNK_ROWS = 1 << 14

# Default cap on the 2^n subsets the builder allocates arrays for.
MAX_LP_VARS = 100_000


# -- subset orbits under a vertex permutation group -------------------------


def validate_symmetry(inst: Instance, perms: list[list[int]]) -> list[str]:
    """Each generator must be a list of integers that permutes [0,n),
    preserves rates, and maps the receiver set onto itself."""
    if not isinstance(perms, list):
        return ["symmetry is not a list of generators"]
    bad = []
    recs = {(r.wants, r.knows) for r in inst.receivers}
    for gi, p in enumerate(perms):
        if not (isinstance(p, list) and all(type(v) is int for v in p)):
            bad.append(f"generator {gi} is not a list of integers")
            continue
        if sorted(p) != list(range(inst.n)):
            bad.append(f"generator {gi} is not a permutation of 0..{inst.n - 1}")
            continue
        if any(inst.rate(v) != inst.rate(p[v]) for v in range(inst.n)):
            bad.append(f"generator {gi} does not preserve rates")
        mapped = {(p[w], frozenset(p[v] for v in ks)) for w, ks in recs}
        if mapped != recs:
            bad.append(f"generator {gi} is not an instance automorphism")
    return bad


def _permuted(masks: np.ndarray, perm: list[int]) -> np.ndarray:
    out = np.zeros_like(masks)
    for v, pv in enumerate(perm):
        out |= (masks >> v & 1) << pv
    return out


def subset_orbits(n: int, perms: list[list[int]]) -> np.ndarray:
    """rep[mask] = smallest mask in its orbit."""
    masks = np.arange(1 << n)
    images = [_permuted(masks, p) for p in perms]
    rep = masks
    while True:
        # Every label stays a member of its mask's orbit and only decreases;
        # at the fixed point it is constant on each orbit, hence the minimum.
        before, rep = rep, rep.copy()
        for img in images:  # a bijection of the masks, so img has no repeats
            rep[img] = np.minimum(rep[img], rep)
        rep = rep[rep]
        if np.array_equal(rep, before):
            return rep


# -- LP construction --------------------------------------------------------


@dataclass
class HierarchyMeta:
    var_of_mask: np.ndarray  # mask S -> variable of cl(S)'s orbit
    counts: dict[str, int] = field(default_factory=dict)


def _closure_masks(inst: Instance, masks: np.ndarray) -> np.ndarray:
    """Each mask plus every message wanted by a receiver whose side
    information lies in it, for every mask at once."""
    plus = masks.copy()
    for r, side in zip(inst.receivers, inst.side_masks):
        knows = side & ~(1 << r.wants)
        plus[masks & knows == knows] |= 1 << r.wants
    return plus


def _rhs_ids(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, nums, dens): the ids of the right-hand sides the rows read, 0,
    -rate(v) for each v and the total rate, in that order, and
    nums[id] / dens[id] in lowest terms.  Equal values share an id, so rows
    deduplicate on ids as on values."""
    n = inst.n
    d = math.lcm(*(inst.rate(v).denominator for v in range(n)))
    nums = [inst.rate(v).numerator * (d // inst.rate(v).denominator) for v in range(n)]
    bound = sum(nums) + d
    values, ids = np.unique(ints([0] + [-a for a in nums] + [sum(nums)], bound), return_inverse=True)
    g = np.gcd(values, d)
    return ids, values // g, ints([d], bound) // g


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """Indices, in order, of the first occurrence of each distinct row."""
    # A stable sort keeps equal rows in their original order, so each run
    # of equal rows starts with its first occurrence.  Runs are found a
    # column at a time, so no sorted copy of keys is made.
    order = np.lexsort(keys.T[::-1])
    starts = np.zeros(len(order), bool)
    starts[0] = True
    for col in keys.T:
        ranked = col[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    return np.sort(order[starts])


def _row_blocks(inst: Instance, k: int, ids: np.ndarray, rep: np.ndarray, cl: np.ndarray,
                firsts: np.ndarray):
    """The rows over masks that can be the first occurrence of their row,
    category by category in emission order, as blocks (masks, coefficients,
    right-hand side ids, categories), the coefficients shared by every row
    of a block; ids as _rhs_ids gives them, rep as subset_orbits gives it,
    cl[S] the closure of S and firsts the smallest mask of each variable's
    class, in increasing order."""
    n = inst.n
    full = (1 << n) - 1
    zero, rate, total = ids[0], ids[1:-1], ids[-1]
    yield np.array([[full]]), [1], [total], [INITIALIZE]
    yield np.array([[0]]), [1], [zero], [NON_NEGATIVITY]

    # Pairs S < T = S + v, one-element steps.  The slope and monotonicity
    # rows of S are those of cl(S), with the ones for v in cl(S) vanishing,
    # and those of g(cl(S)) for any g in the group (g keeps rates and
    # commutes with the closure): every mask of a class has the class's
    # rows.  Only the smallest one emits, for v outside its closure, so T's
    # column is never S's; in increasing order, that puts every row where
    # a build over all masks meets it first.
    s, v = np.nonzero((cl[firsts][:, None] >> np.arange(n) & 1) == 0)
    s = firsts[s]
    t = s | 1 << v
    # slope X(S) - X(T) >= -rate(T \ S), then monotonicity X(T) - X(S) >= 0
    rhs = np.stack([rate[v], np.full_like(s, zero)], 1).ravel()
    yield np.stack([s, t, t, s], 1).reshape(-1, 2), [1, -1], rhs, np.tile([SLOPE, MONOTONICITY], len(s))

    # submodularity-r, for each r-set R and each Z disjoint from it: the sum
    # over T <= R of (-1)^(r - |T| + 1) X(T | Z) is >= 0 (the definition's
    # <= 0 row, negated).  The rows of g(R) are those of R, so only the
    # first r-set of each orbit in combinations order emits (not the
    # smallest mask: {1,2} = 6 comes after {0,3} = 9).  Its sets Z are the
    # closed masks disjoint from R, in decreasing order: the index set a
    # separation oracle evaluates.
    desc = np.flatnonzero(cl == np.arange(1 << n))[::-1]
    for order in range(2, k + 1):
        members = np.array(list(combinations(range(n), order)))
        _, first = np.unique(rep[(1 << members).sum(1)], return_index=True)
        members = members[np.sort(first)]
        t_index = np.arange(1 << order)
        t_subs = ((t_index[:, None] >> np.arange(order) & 1) << members[:, None, :]).sum(2)
        coefs = np.where((order - np.bitwise_count(t_index)) & 1, 1, -1)
        cat = len(CATEGORIES) + order - 2
        rows = np.concatenate([t | desc[desc & r == 0, None]
                               for t, r in zip(t_subs, (1 << members).sum(1))])
        yield rows, coefs, np.full(len(rows), zero), np.full(len(rows), cat)


def _canonical(cols: np.ndarray, coefs, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's columns sorted and merged (coefficients summed), those
    whose coefficients cancel dropped, padded to width with column -1 and
    coefficient 0."""
    r, w = cols.shape
    order = np.argsort(cols, axis=1, kind="stable")
    cols = np.take_along_axis(cols, order, 1)
    vals = np.take_along_axis(np.broadcast_to(np.asarray(coefs, np.int64), (r, w)), order, 1)
    run = np.ones((r, w), bool)
    run[:, 1:] = cols[:, 1:] != cols[:, :-1]
    run = np.flatnonzero(run)
    # Columns of different sizes merge under the closure, so their
    # coefficients can cancel.
    sums = np.add.reduceat(vals.ravel(), run)
    nonzero = sums != 0
    run, sums = run[nonzero], sums[nonzero]
    row = run // w
    pos = np.arange(len(row)) - np.searchsorted(row, row)
    out_cols = np.full((r, width), -1)
    out_cols[row, pos] = cols.ravel()[run]
    out_vals = np.zeros((r, width), np.int64)
    out_vals[row, pos] = sums
    return out_cols, out_vals


def _keyed(blocks, var_of_mask: np.ndarray, width: int):
    """The rows of _row_blocks over variables, CHUNK_ROWS at a time, each
    keyed by its canonical columns, coefficients and right-hand side id,
    with its category in a last column."""
    for row_masks, coefs, rhs, cat in blocks:
        for lo in range(0, len(row_masks), CHUNK_ROWS):
            hi = lo + CHUNK_ROWS
            cols, vals = _canonical(var_of_mask[row_masks[lo:hi]], coefs, width)
            yield np.column_stack([cols, vals, rhs[lo:hi], cat[lo:hi]])


def build_hierarchy_lp(
    inst: Instance,
    k: int,
    sym: list[list[int]] | None = None,
    max_lp_vars: int = MAX_LP_VARS,
) -> tuple[LpProblem, HierarchyMeta]:
    """The level-k LP; raises CapExceeded when its 2^n subset arrays would
    exceed `max_lp_vars` entries."""
    n = inst.n
    if not 1 <= k <= n:
        raise ValueError(f"level must be in 1..{n}")
    if 1 << n > max_lp_vars:
        raise CapExceeded("max-lp-vars", 1 << n, max_lp_vars)
    masks = np.arange(1 << n)
    rep = masks
    if sym is not None:
        bad = validate_symmetry(inst, sym)
        if bad:
            raise ValueError(f"invalid symmetry group: {bad}")
        rep = subset_orbits(n, sym)
    cl = masks  # the closure of every mask: at most n closure steps
    while not np.array_equal(plus := _closure_masks(inst, cl), cl):
        cl = plus
    leads = (cl == masks) & (rep == masks)
    # cl commutes with the group, so the orbit of cl(S) is well defined and
    # its representative is closed.
    var_of_mask = (np.cumsum(leads) - 1)[rep[cl]]
    firsts = np.sort(np.unique(var_of_mask, return_index=True)[1])
    ids, rhs_nums, rhs_dens = _rhs_ids(inst)
    width = max(2, 1 << k)
    # One deduplication of every emitted row keeps each first occurrence;
    # rows whose coefficients all cancelled (0 >= 0) are dropped first.
    # The keys come from a generator, so that no row block outlives the
    # concatenation, which would raise a large build's peak memory.
    blocks = _row_blocks(inst, k, ids, rep, cl, firsts)
    keys = np.concatenate(list(_keyed(blocks, var_of_mask, width)))
    keys = keys[keys[:, 0] >= 0]
    keys = keys[_first_rows(keys[:, :-1])]

    cols, vals, rhs, cats = keys[:, :width], keys[:, width:-2], keys[:, -2], keys[:, -1]
    live = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(live.sum(1))])
    p = LpProblem(int(var_of_mask.max()) + 1, {int(var_of_mask[0]): 1}, indptr, cols[live], vals[live],
                  rhs_nums[rhs], rhs_dens[rhs])
    names = CATEGORIES + [f"submodularity-{order}" for order in range(2, k + 1)]
    counts = {name: int(c) for name, c in zip(names, np.bincount(cats, minlength=len(names))) if c}
    return p, HierarchyMeta(var_of_mask, counts)


@dataclass
class HierarchyBound:
    level: int
    value: Fraction
    x: list[Fraction]  # the LP's optimum: X(S) = x[var_of_mask[S]]
    var_of_mask: np.ndarray
    counts: dict[str, int]
    variables: int
    rows: int


def solve_bk(
    inst: Instance,
    k: int,
    sym: list[list[int]] | None = None,
    max_lp_vars: int = MAX_LP_VARS,
) -> HierarchyBound:
    p, meta = build_hierarchy_lp(inst, k, sym, max_lp_vars=max_lp_vars)
    opt = solve_min(p)
    return HierarchyBound(k, opt.value, opt.x, meta.var_of_mask, meta.counts, p.num_vars, p.num_rows)
