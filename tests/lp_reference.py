"""The exact revised simplex over Fraction arithmetic, kept as a reference
for `lp.solve_min`.

`dual_simplex(p)` solves the dual of p, max b'y s.t. A'y <= c, y >= 0, in
standard form from the all-slack basis (feasible because c >= 0), so the
basis has one row per primal variable; the simplex multipliers recover the
primal optimum, and an unbounded dual means an infeasible primal.  Pivot
rule: Bland's (the lowest-index improving column enters; ties in the ratio
test leave by lowest index) from the first pivot, so it cannot cycle.  Its
dense basis inverse has num_vars^2 entries, so it is for small LPs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from icbounds.lp import LpProblem

F0 = Fraction(0)
F1 = Fraction(1)


@dataclass
class Answer:
    """The reference's outcome: an optimum with its value, x and row duals,
    or "infeasible" with none of them."""

    status: str  # "optimal" | "infeasible"
    value: Fraction | None = None
    x: list[Fraction] | None = None
    dual: list[Fraction] | None = None


class _Unbounded(Exception):
    pass


class _Core:
    """min cost'x  s.t.  A x = b, x >= 0, starting from a feasible basis of
    unit columns (basis[i] is the column e_i, so B^-1 starts as I).

    Columns are sparse [(row, coeff), ...]; the basis inverse is dense.
    """

    def __init__(self, cols, b, basis):
        self.cols = cols
        self.m = len(b)
        self.basis = list(basis)
        self.in_basis = [False] * len(cols)
        for j in self.basis:
            self.in_basis[j] = True
        self.binv = [[F1 if i == k else F0 for k in range(self.m)] for i in range(self.m)]
        self.xb = list(b)

    def multipliers(self, cost):
        m = self.m
        binv = self.binv
        cb = [cost[j] for j in self.basis]
        return [sum((cb[i] * binv[i][k] for i in range(m) if cb[i]), F0) for k in range(m)]

    def _col_times(self, vec, j):
        return sum((vec[i] * v for i, v in self.cols[j]), F0)

    def solve(self, cost):
        """Run to optimality by Bland's rule.  Raises _Unbounded.  Returns
        the objective value."""
        while True:
            pi = self.multipliers(cost)
            enter = next((j for j in range(len(self.cols))
                          if not self.in_basis[j] and cost[j] < self._col_times(pi, j)), -1)
            if enter == -1:
                return sum((cost[self.basis[i]] * self.xb[i] for i in range(self.m)), F0)
            u = [self._col_times(self.binv[i], enter) for i in range(self.m)]
            leave = -1
            theta = None
            for i in range(self.m):
                if u[i] > 0:
                    r = self.xb[i] / u[i]
                    if theta is None or r < theta or (r == theta and self.basis[i] < self.basis[leave]):
                        theta = r
                        leave = i
            if leave == -1:
                raise _Unbounded
            self._pivot(enter, leave, u, theta)

    def _pivot(self, enter, leave, u, theta):
        binv = self.binv
        d = u[leave]
        if d != 1:
            binv[leave] = [v / d for v in binv[leave]]
        self.xb[leave] = theta
        prow = binv[leave]
        for i in range(self.m):
            if i != leave and u[i] != 0:
                f = u[i]
                binv[i] = [a - f * c for a, c in zip(binv[i], prow)]
                self.xb[i] -= f * theta
        self.in_basis[self.basis[leave]] = False
        self.in_basis[enter] = True
        self.basis[leave] = enter

    def primal_values(self, nvars):
        x = [F0] * nvars
        for i, j in enumerate(self.basis):
            if j < nvars:
                x[j] = self.xb[i]
        return x


def dual_simplex(p: LpProblem) -> Answer:
    """The exact optimum or infeasibility of p, by the simplex on its dual."""
    n = p.num_vars
    m = p.num_rows
    # Dual in standard form: min -b'y  s.t.  A'y + s = c,  y, s >= 0.  Its
    # columns are the rows of A.
    ptr, idx, nums = (a.tolist() for a in (p.indptr, p.indices, p.coefs))
    cols = [list(zip(idx[ptr[i]:ptr[i + 1]], nums[ptr[i]:ptr[i + 1]])) for i in range(m)]
    for j in range(n):
        cols.append([(j, F1)])  # slack for dual row j
    rhs = [Fraction(p.objective.get(j, 0)) for j in range(n)]
    cost = [-b for _, b in p.constraints] + [F0] * n
    core = _Core(cols, rhs, range(m, m + n))  # all-slack start, feasible since c >= 0
    try:
        zd = core.solve(cost)
    except _Unbounded:
        return Answer("infeasible")  # dual unbounded => primal infeasible
    # Simplex multipliers of the dual solve carry the primal optimum: the
    # slack column j prices to -pi_j >= 0, so x_j = -pi_j.
    x = [-v for v in core.multipliers(cost)]
    return Answer("optimal", -zd, x, core.primal_values(m))
