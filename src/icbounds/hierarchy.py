"""The entropy-style LP hierarchy B_1..B_n bounding the broadcast rate.

Level k has one variable X(S) per message subset and, on top of the
initialize / non-negativity / slope / monotonicity / decode constraints,
all signed inclusion-exclusion ("submodularity") rows of orders 2..k.
b_1 equals the expanding-sequence bound, b_2 <= beta <= b_n, and b_n equals
the strong fractional hyperclique-cover value.

Constraint reduction (the default) emits slope and monotonicity only for
single-element increments and decode only against the one-step closure;
chaining recovers the general forms, which is property-tested against the
unreduced emission at small n.  Orbit reduction under a supplied vertex
symmetry group replaces X(S) by its orbit representative; generators are
validated as instance automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .instance import Instance, closure_step, from_mask, to_mask
from .lp import LpProblem, check_feasible, solve_min

F0 = Fraction(0)
F1 = Fraction(1)


# -- subset orbits under a vertex permutation group -------------------------


def apply_perm_mask(perm: list[int], mask: int) -> int:
    out = 0
    v = 0
    while mask >> v:
        if mask >> v & 1:
            out |= 1 << perm[v]
        v += 1
    return out


def validate_symmetry(inst: Instance, perms: list[list[int]]) -> list[str]:
    """Each generator must permute [0,n), preserve rates, and map the
    receiver set onto itself."""
    bad = []
    recs = {(r.wants, r.knows) for r in inst.receivers}
    for gi, p in enumerate(perms):
        if sorted(p) != list(range(inst.n)):
            bad.append(f"generator {gi} is not a permutation of 0..{inst.n - 1}")
            continue
        if any(inst.rate(v) != inst.rate(p[v]) for v in range(inst.n)):
            bad.append(f"generator {gi} does not preserve rates")
        mapped = {(p[w], frozenset(p[v] for v in ks)) for w, ks in recs}
        if mapped != recs:
            bad.append(f"generator {gi} is not an instance automorphism")
    return bad


def subset_orbits(n: int, perms: list[list[int]]) -> tuple[list[int], list[int]]:
    """(rep, reps): rep[mask] = smallest mask in its orbit; reps = sorted
    distinct representatives."""
    size = 1 << n
    rep = [-1] * size
    reps = []
    for m in range(size):
        if rep[m] != -1:
            continue
        # BFS the orbit of m under the generators.
        orbit = [m]
        rep[m] = m
        head = 0
        while head < len(orbit):
            cur = orbit[head]
            head += 1
            for p in perms:
                im = apply_perm_mask(p, cur)
                if rep[im] == -1:
                    rep[im] = m
                    orbit.append(im)
        reps.append(m)
    return rep, reps


# -- LP construction --------------------------------------------------------


@dataclass
class HierarchyMeta:
    level: int
    var_of_mask: dict[int, int]  # orbit representative mask -> variable index
    rep: list[int]  # mask -> representative mask
    counts: dict[str, int] = field(default_factory=dict)


def build_hierarchy_lp(
    inst: Instance,
    k: int,
    sym: list[list[int]] | None = None,
    reduced: bool = True,
) -> tuple[LpProblem, HierarchyMeta]:
    n = inst.n
    if not 1 <= k <= n:
        raise ValueError(f"level must be in 1..{n}")
    if sym:
        bad = validate_symmetry(inst, sym)
        if bad:
            raise ValueError(f"invalid symmetry group: {bad}")
        rep, reps = subset_orbits(n, sym)
    else:
        rep = list(range(1 << n))
        reps = rep
    var_of = {m: i for i, m in enumerate(reps)}
    full = (1 << n) - 1
    p = LpProblem(len(reps), {var_of[rep[0]]: F1})
    counts: dict[str, int] = {}
    seen_rows: set = set()

    def add(row_masks: dict[int, Fraction], rhs: Fraction, cat: str) -> None:
        row: dict[int, Fraction] = {}
        for m, c in row_masks.items():
            j = var_of[rep[m]]
            row[j] = row.get(j, F0) + c
        row = {j: c for j, c in row.items() if c}
        key = (frozenset(row.items()), rhs)
        if key in seen_rows:
            return
        seen_rows.add(key)
        p.add(row, rhs)
        counts[cat] = counts.get(cat, 0) + 1

    add({full: F1}, inst.total_rate(), "initialize")
    add({0: F1}, F0, "non-negativity")

    if reduced:
        for s in range(1 << n):
            for v in range(n):
                if s >> v & 1:
                    continue
                t = s | 1 << v
                add({s: F1, t: -F1}, -inst.rate(v), "slope")
                add({t: F1, s: -F1}, F0, "monotonicity")
        for s in range(1 << n):
            a = from_mask(s)
            plus = closure_step(inst, a)
            if plus != a:
                add({s: F1, to_mask(plus): -F1}, F0, "decode")
    else:
        for s in range(1 << n):
            rest = full & ~s
            t_sub = rest
            while True:
                t = s | t_sub
                if t != s:
                    gap = sum((inst.rate(v) for v in from_mask(t_sub)), F0)
                    add({s: F1, t: -F1}, -gap, "slope")
                    add({t: F1, s: -F1}, F0, "monotonicity")
                if t_sub == 0:
                    break
                t_sub = (t_sub - 1) & rest
        for s in range(1 << n):
            a = from_mask(s)
            plus = to_mask(closure_step(inst, a))
            gain = plus & ~s
            b_sub = gain
            while True:
                if b_sub:
                    add({s: F1, (s | b_sub): -F1}, F0, "decode")
                if b_sub == 0:
                    break
                b_sub = (b_sub - 1) & gain

    for order in range(2, k + 1):
        for r_tuple in combinations(range(n), order):
            rmask = to_mask(r_tuple)
            rest = full & ~rmask
            z = rest
            while True:
                row: dict[int, Fraction] = {}
                t_sub = rmask
                while True:
                    sign = (order - t_sub.bit_count()) & 1
                    m = t_sub | z
                    # Emitted as >= 0 (the definition's <= 0 row, negated).
                    row[m] = row.get(m, F0) + (F1 if sign else -F1)
                    if t_sub == 0:
                        break
                    t_sub = (t_sub - 1) & rmask
                add(row, F0, f"submodularity-{order}")
                if z == 0:
                    break
                z = (z - 1) & rest
    meta = HierarchyMeta(k, var_of, rep, counts)
    return p, meta


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
) -> HierarchyBound:
    p, meta = build_hierarchy_lp(inst, k, sym)
    opt = solve_min(p)
    if opt.status != "optimal":
        raise AssertionError(f"hierarchy LP came back {opt.status}")
    vec = {m: opt.x[meta.var_of_mask[meta.rep[m]]] for m in range(1 << inst.n)}
    return HierarchyBound(k, opt.value, vec, meta.counts, p.num_vars, len(p.constraints))


def verify_hierarchy_membership(x: dict[int, Fraction], inst: Instance, k: int) -> bool:
    """Feasibility of a full vector against the unreduced level-k system."""
    p, _ = build_hierarchy_lp(inst, k, reduced=False)
    return not check_feasible(p, [x[m] for m in range(1 << inst.n)])


def alpha_feasible_vector(inst: Instance) -> dict[int, Fraction]:
    """X(S) = |S| + (max independent set disjoint from S), the canonical
    level-1 feasible point of value alpha; graphs only."""
    n = inst.n
    closed = [0] * n
    for r in inst.receivers:
        closed[r.wants] |= (1 << r.wants) | to_mask(r.knows)
    maxind = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        skip = maxind[mask & ~(1 << v)]
        take = 1 + maxind[mask & ~closed[v]]
        maxind[mask] = max(skip, take)
    full = (1 << n) - 1
    return {s: Fraction(s.bit_count() + maxind[full & ~s]) for s in range(1 << n)}


# -- coverage-function decomposition ----------------------------------------


def decompose_coverage(x: dict[int, Fraction], n: int):
    """Invert X(S) = |S| + sum_{T not subset of S} w(T) to the unique weight
    vector w over nonempty sets.  Returns ("ok", w) when w >= 0 everywhere,
    else ("violation", offending mask, value)."""
    size = 1 << n
    # g(S) = X(empty) - X(S) + |S| = sum over nonempty T <= S of w(T)
    g = [x[0] - x[s] + s.bit_count() for s in range(size)]
    w = list(g)
    for v in range(n):
        bit = 1 << v
        for m in range(size):
            if m & bit:
                w[m] -= w[m ^ bit]
    for m in range(1, size):
        if w[m] < 0:
            return ("violation", m, w[m])
    return ("ok", {m: w[m] for m in range(1, size)})


def compose_coverage(w: dict[int, Fraction], n: int) -> dict[int, Fraction]:
    """Build X from nonnegative weights: X(S) = |S| + sum_{T !<= S} w(T)."""
    size = 1 << n
    sub = [F0] * size
    for m, wm in w.items():
        sub[m] = Fraction(wm)
    for v in range(n):
        bit = 1 << v
        for m in range(size):
            if m & bit:
                sub[m] += sub[m ^ bit]
    total = sub[size - 1]
    return {s: s.bit_count() + total - sub[s] for s in range(size)}


def componentwise_b2(insts: list[Instance], syms=None) -> Fraction:
    """b_2 of a disjoint union via per-component additivity of the LP
    certificate."""
    if syms is None:
        syms = [None] * len(insts)
    return sum((solve_bk(i, 2, s).value for i, s in zip(insts, syms)), F0)
