"""The entropy-style LP hierarchy B_1..B_n bounding the broadcast rate.

Level k has one variable X(S) per message subset and, on top of the
initialize / non-negativity / slope / monotonicity / decode constraints,
all signed inclusion-exclusion ("submodularity") rows of orders 2..k.
b_1 equals the expanding-sequence bound, b_2 <= beta <= b_n, and b_n equals
the strong fractional hyperclique-cover value.

The LP is built in reduced form: slope and monotonicity only for
single-element increments, decode only against the one-step closure.
Every general slope, monotonicity and decode row is a sum of these, so the
feasible set is the unreduced system's; tests/hierarchy_reference.py emits
the unreduced rows, and the property tests compare the two at small n.
Orbit reduction under a supplied vertex symmetry group replaces X(S) by its
orbit representative; generators are validated as instance automorphisms.

The LP is built from numpy index arrays over all 2^n masks at once.  Orbit
labels come from vectorized bit permutations and min-label propagation, and
one array maps every mask to its variable.  Each category is emitted as a
block of rows -- mask columns, +-1 coefficients and the id of a right-hand
side -- in a fixed order: initialize, non-negativity, slope and
monotonicity interleaved per pair S < T, decode, submodularity-2..k.
Mapping masks to variables can merge columns within a row, and a row equal
to an earlier one (same columns, coefficients and right-hand side) is
dropped, so the rows and their order match a row-by-row build.
Coefficients are integers; rates appear only in the right-hand sides.
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
CATEGORIES = ["initialize", "non-negativity", "slope", "monotonicity", "decode"]
INITIALIZE, NON_NEGATIVITY, SLOPE, MONOTONICITY, DECODE = range(len(CATEGORIES))

# Rows deduplicated at a time, which bounds the build's working memory.
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


def subset_orbits(n: int, perms: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(rep, reps): rep[mask] = smallest mask in its orbit; reps = sorted
    distinct representatives."""
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
            return rep, np.flatnonzero(rep == masks)


# -- LP construction --------------------------------------------------------


@dataclass
class HierarchyMeta:
    var_of_mask: np.ndarray  # mask -> variable of its orbit
    counts: dict[str, int] = field(default_factory=dict)


def _submasks(gain: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(owner, sub): for each gain[i] in turn, its submasks in decreasing
    order (0 last), each tagged with owner i."""
    size = 1 << np.bitwise_count(gain).astype(np.int64)
    owner = np.repeat(np.arange(len(gain)), size)
    # Count down from size - 1 to 0 per owner and deposit the count's bits
    # into gain's set bits: a monotone map onto the submasks.
    count = np.repeat(np.cumsum(size), size) - 1 - np.arange(owner.size)
    g = gain[owner]
    sub = np.zeros_like(g)
    rank = np.zeros_like(g)
    for v in range(n):
        bit = g >> v & 1
        sub |= (count >> rank & bit) << v
        rank += bit
    return owner, sub


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
    # of equal rows starts with its first occurrence.
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.ones(len(order), bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(1)
    return np.sort(order[starts])


def _row_blocks(inst: Instance, k: int, ids: np.ndarray):
    """The rows over masks, category by category in emission order, as
    blocks (masks, coefficients, right-hand side ids, categories), the
    coefficients shared by every row of a block; ids as _rhs_ids gives them."""
    n = inst.n
    masks = np.arange(1 << n)
    full = (1 << n) - 1
    zero, rate, total = ids[0], ids[1:-1], ids[-1]
    yield np.array([[full]]), [1], [total], [INITIALIZE]
    yield np.array([[0]]), [1], [zero], [NON_NEGATIVITY]

    # Pairs S < T = S + v, one-element steps.
    s, v = np.nonzero((masks[:, None] >> np.arange(n) & 1) == 0)
    t = s | 1 << v
    # slope X(S) - X(T) >= -rate(T \ S), then monotonicity X(T) - X(S) >= 0
    rhs = np.stack([rate[v], np.full_like(s, zero)], 1).ravel()
    yield np.stack([s, t, t, s], 1).reshape(-1, 2), [1, -1], rhs, np.tile([SLOPE, MONOTONICITY], len(s))

    # decode X(S) - X(T) >= 0 for T the closure step of S
    plus = _closure_masks(inst, masks)
    s = np.flatnonzero(plus != masks)
    t = plus[s]
    yield np.stack([s, t], 1), [1, -1], np.full_like(s, zero), np.full_like(s, DECODE)

    # submodularity-r, for each r-set R and each Z disjoint from it: the sum
    # over T <= R of (-1)^(r - |T| + 1) X(T | Z) is >= 0 (the definition's
    # <= 0 row, negated)
    for order in range(2, k + 1):
        members = np.array(list(combinations(range(n), order)))
        owner, z = _submasks(full & ~(1 << members).sum(1), n)
        t_index = np.arange(1 << order)
        t_subs = ((t_index[:, None] >> np.arange(order) & 1) << members[:, None, :]).sum(2)
        coefs = np.where((order - np.bitwise_count(t_index)) & 1, 1, -1)
        cat = len(CATEGORIES) + order - 2
        yield t_subs[owner] | z[:, None], coefs, np.full_like(z, zero), np.full_like(z, cat)


def _canonical(cols: np.ndarray, coefs, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's columns sorted and merged (coefficients summed), padded to
    width with column -1 and coefficient 0."""
    r, w = cols.shape
    order = np.argsort(cols, axis=1, kind="stable")
    cols = np.take_along_axis(cols, order, 1)
    vals = np.take_along_axis(np.broadcast_to(np.asarray(coefs, np.int64), (r, w)), order, 1)
    run = np.ones((r, w), bool)
    run[:, 1:] = cols[:, 1:] != cols[:, :-1]
    run = np.flatnonzero(run)
    # Merged columns never cancel: orbits preserve |S|, and within a row
    # every X(S) of one size has the same sign.
    sums = np.add.reduceat(vals.ravel(), run)
    row = run // w
    pos = np.arange(len(row)) - np.searchsorted(row, row)
    out_cols = np.full((r, width), -1)
    out_cols[row, pos] = cols.ravel()[run]
    out_vals = np.zeros((r, width), np.int64)
    out_vals[row, pos] = sums
    return out_cols, out_vals


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
    if sym is not None:
        bad = validate_symmetry(inst, sym)
        if bad:
            raise ValueError(f"invalid symmetry group: {bad}")
        rep, _ = subset_orbits(n, sym)
        var_of_mask = (np.cumsum(rep == masks) - 1)[rep]
    else:
        var_of_mask = masks
    ids, rhs_nums, rhs_dens = _rhs_ids(inst)
    # Rows are keyed by (columns, coefficients, rhs id) and deduplicated
    # CHUNK_ROWS at a time against every row kept so far, the earlier kept.
    width = max(2, 1 << k)
    keys = np.zeros((0, 2 * width + 1), np.int64)
    cats = np.zeros(0, np.int64)
    for row_masks, coefs, rhs, cat in _row_blocks(inst, k, ids):
        for lo in range(0, len(row_masks), CHUNK_ROWS):
            hi = lo + CHUNK_ROWS
            cols, vals = _canonical(var_of_mask[row_masks[lo:hi]], coefs, width)
            keys = np.concatenate([keys, np.column_stack([cols, vals, rhs[lo:hi]])])
            cats = np.concatenate([cats, cat[lo:hi]])
            first = _first_rows(keys)
            keys, cats = keys[first], cats[first]

    cols, vals = keys[:, :width], keys[:, width:-1]
    live = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(live.sum(1))])
    rhs = keys[:, -1]
    p = LpProblem(int(var_of_mask.max()) + 1, {0: 1}, indptr, cols[live], vals[live],
                  rhs_nums[rhs], rhs_dens[rhs])
    names = CATEGORIES + [f"submodularity-{order}" for order in range(2, k + 1)]
    counts = {name: int(c) for name, c in zip(names, np.bincount(cats, minlength=len(names))) if c}
    return p, HierarchyMeta(var_of_mask, counts)


@dataclass
class HierarchyBound:
    level: int
    value: Fraction
    vector: dict[int, Fraction]  # mask -> X(S), expanded to all subsets
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
    vec = {m: opt.x[j] for m, j in enumerate(meta.var_of_mask.tolist())}
    return HierarchyBound(k, opt.value, vec, meta.counts, p.num_vars, p.num_rows)
