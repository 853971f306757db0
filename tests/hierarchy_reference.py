"""Reference builder for the level-k hierarchy LP: the plain loop version,
one dict row at a time, kept as the oracle that the array build in
icbounds.hierarchy must reproduce row for row.  With reduced=False it emits
the unreduced system (slope and monotonicity for every pair S < T, decode
for every part of the closure step), whose feasible set the reduced LP
must have."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from icbounds.instance import Instance, closure_step, from_mask, to_mask

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


def reference_lp(inst: Instance, k: int, sym: list[list[int]] | None = None, reduced: bool = True):
    """(rows, objective, num_vars, counts, var_of_mask) with rows a list of
    (dict var -> Fraction, rhs) pairs, each meaning row . x >= rhs."""
    n = inst.n
    if sym:
        rep, reps = subset_orbits(n, sym)
    else:
        rep = list(range(1 << n))
        reps = rep
    var_of = {m: i for i, m in enumerate(reps)}
    full = (1 << n) - 1
    rows: list[tuple[dict[int, Fraction], Fraction]] = []
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
        rows.append((row, rhs))
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
    objective = {var_of[rep[0]]: F1}
    var_of_mask = [var_of[rep[m]] for m in range(1 << n)]
    return rows, objective, len(reps), counts, var_of_mask
