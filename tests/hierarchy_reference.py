"""Reference builder for the level-k hierarchy LP: the plain loop version,
one dict row at a time, kept as the oracle that the array build in
icbounds.hierarchy must reproduce row for row.  The reduced system is
stated over every mask and mapped onto closure classes: each mask S goes to
its closure cl(S) (closure_step repeated until nothing is added), then to
the orbit representative of cl(S), and a row whose coefficients all cancel
is skipped.  With reduced=False it emits the unreduced system over every
mask (slope and monotonicity for every pair S < T, decode for every part
of the closure step), whose feasible set the reduced LP must have.

The checkers below test the paper's structural claims on a full vector X
over all 2^n subsets: membership in the level-k system, alpha's canonical
level-1 point, and b_n as a coverage function (X(S) = |S| + the weight of
the sets not inside S)."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from instance_reference import closure_step, from_mask, total_rate

from icbounds.hierarchy import build_hierarchy_lp
from icbounds.instance import Instance, to_mask
from icbounds.lp import _primal_value

F0 = Fraction(0)
F1 = Fraction(1)


def apply_perm_mask(perm: list[int], mask: int) -> int:
    out = 0
    v = 0
    while mask >> v:
        if mask >> v & 1:
            out |= 1 << perm[v]
        v += 1
    return out


def subset_orbits(n: int, perms: list[list[int]]) -> tuple[list[int], list[int]]:
    """(rep, reps): rep[mask] = smallest mask in its orbit, found by BFS."""
    size = 1 << n
    rep = [-1] * size
    reps = []
    for m in range(size):
        if rep[m] != -1:
            continue
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


def closure(inst: Instance, mask: int) -> int:
    """cl(S): S with closure_step repeated until nothing is added."""
    a = from_mask(mask)
    while (plus := closure_step(inst, a)) != a:
        a = plus
    return to_mask(a)


def reference_lp(inst: Instance, k: int, sym: list[list[int]] | None = None, reduced: bool = True):
    """(rows, objective, num_vars, counts, var_of_mask) with rows a list of
    (dict var -> Fraction, rhs) pairs, each meaning row . x >= rhs.  The
    variables are the closed orbit representatives in increasing order, or
    with reduced=False every orbit representative."""
    n = inst.n
    rep = subset_orbits(n, sym)[0] if sym else list(range(1 << n))
    cl = [closure(inst, m) if reduced else m for m in range(1 << n)]
    reps = [m for m in range(1 << n) if rep[m] == m and cl[m] == m]
    var_of = {m: i for i, m in enumerate(reps)}
    full = (1 << n) - 1
    rows: list[tuple[dict[int, Fraction], Fraction]] = []
    counts: dict[str, int] = {}
    seen_rows: set = set()

    def add(row_masks: dict[int, Fraction], rhs: Fraction, cat: str) -> None:
        row: dict[int, Fraction] = {}
        for m, c in row_masks.items():
            j = var_of[rep[cl[m]]]
            row[j] = row.get(j, F0) + c
        row = {j: c for j, c in row.items() if c}
        if not row:  # 0 >= rhs, with rhs <= 0: it holds and is not emitted
            return
        key = (frozenset(row.items()), rhs)
        if key in seen_rows:
            return
        seen_rows.add(key)
        rows.append((row, rhs))
        counts[cat] = counts.get(cat, 0) + 1

    add({full: F1}, total_rate(inst), "initialize")
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
    var_of_mask = [var_of[rep[cl[m]]] for m in range(1 << n)]
    objective = {var_of_mask[0]: F1}
    return rows, objective, len(reps), counts, var_of_mask


def verify_hierarchy_membership(x: dict[int, Fraction], inst: Instance, k: int) -> bool:
    """Feasibility of a full vector against the level-k system.  The decode
    and monotonicity rows force X(S) = X(cl(S)), so x must be constant on
    closure classes; its values on the closed sets are then checked on the
    library's LP over them, which has the unreduced system's feasible set."""
    if any(x[m] != x[closure(inst, m)] for m in range(1 << inst.n)):
        return False
    p, meta = build_hierarchy_lp(inst, k)
    per_var: list = [None] * p.num_vars
    for m, j in enumerate(meta.var_of_mask.tolist()):
        per_var[j] = x[m]
    return _primal_value(p, per_var) is not None


def alpha_feasible_vector(inst: Instance) -> dict[int, Fraction]:
    """X(S) = |S| + (max independent set disjoint from S), the canonical
    level-1 feasible point of value alpha; graphs only."""
    n = inst.n
    closed = [0] * n
    for r, side in zip(inst.receivers, inst.side_masks):
        closed[r.wants] |= side
    maxind = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        skip = maxind[mask & ~(1 << v)]
        take = 1 + maxind[mask & ~closed[v]]
        maxind[mask] = max(skip, take)
    full = (1 << n) - 1
    return {s: Fraction(s.bit_count() + maxind[full & ~s]) for s in range(1 << n)}


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
