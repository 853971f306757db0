"""Exact LP solver for covering-form problems.

Every LP here has one shape: minimize c'x subject to A x >= b and x >= 0,
with c >= 0, so the objective is bounded below and the only outcomes are an
optimum or infeasibility.  Constraints are (sparse row, rhs) pairs, each
meaning row . x >= rhs.  Floats may propose an optimum, but only exact
rational arithmetic accepts one: every optimum returned comes with a primal
x and a dual y >= 0 (one entry per row) that pass four exact checks -- x >= 0
satisfies every row, y >= 0, the reduced costs c - A'y are >= 0, and
c'x = b'y.

`solve_min` first hands the LP to HiGHS (scipy's linprog) as sparse
matrices and rounds its primal and dual solutions to nearby fractions with
small denominators (ROUNDING_BOUNDS).  If the checks accept a rounding, that
is the answer.  Otherwise -- HiGHS reports no optimum, or no rounding passes
-- one exact revised simplex over Fraction arithmetic decides.  It solves
the dual, max b'y s.t. A'y <= c, y >= 0, whose standard form starts from the
all-slack basis (feasible because c >= 0), so the basis has one row per
primal variable; the simplex multipliers recover the primal optimum, and an
unbounded dual means an infeasible primal.  `LpOptimum.method` and
`LpOptimum.fallback` record which path answered and why the rounding did not.

Pivot rule: Dantzig with lowest-index tie-breaks, switching permanently to
Bland's rule after a run of degenerate pivots, so termination is guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)

STALL_LIMIT = 50  # degenerate pivots before switching to Bland's rule


@dataclass
class LpProblem:
    num_vars: int
    objective: dict[int, Fraction]
    # (sparse row {var: coeff}, rhs), each meaning row . x >= rhs
    constraints: list[tuple[dict[int, Fraction], Fraction]] = field(default_factory=list)

    def add(self, row: dict[int, Fraction], rhs) -> None:
        self.constraints.append(({k: Fraction(v) for k, v in row.items() if v}, Fraction(rhs)))


@dataclass
class LpOptimum:
    status: str  # "optimal" | "infeasible"
    value: Fraction | None = None
    x: list[Fraction] | None = None
    dual: list[Fraction] | None = None  # per row, >= 0
    method: str | None = None  # "rounded" | "simplex"
    # None when the rounding answered, else "highs-status-<n>" (HiGHS found
    # no optimum), "rounding-rejected" (no rounding passed the checks) or
    # "float-overflow" (a coefficient is beyond the float range)
    fallback: str | None = None


def check_feasible(p: LpProblem, x) -> list[int]:
    """Indices of violated constraints; index -1 flags a negative variable."""
    bad = []
    if any(v < 0 for v in x):
        bad.append(-1)
    for i, (row, rhs) in enumerate(p.constraints):
        if sum((c * x[j] for j, c in row.items()), F0) < rhs:
            bad.append(i)
    return bad


def objective_value(p: LpProblem, x) -> Fraction:
    return sum((c * x[j] for j, c in p.objective.items()), F0)


def certified_value(p: LpProblem, x, y) -> Fraction | None:
    """c'x when x and the row duals y prove each other optimal: x >= 0
    satisfies every row, y >= 0, the reduced costs c - A'y are >= 0, and
    c'x = b'y.  None otherwise."""
    if check_feasible(p, x):
        return None
    reduced = dict(p.objective)
    dual_value = F0
    for (row, rhs), yi in zip(p.constraints, y, strict=True):
        if not yi:
            continue
        if yi < 0:
            return None
        dual_value += yi * rhs
        for j, a in row.items():
            reduced[j] = reduced.get(j, F0) - yi * a
    if any(v < 0 for v in reduced.values()):
        return None
    value = objective_value(p, x)
    return value if value == dual_value else None


# -- exact simplex ----------------------------------------------------------


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
        """Run to optimality.  Raises _Unbounded.  Returns objective value."""
        bland = False
        stall = 0
        last_z = None
        while True:
            pi = self.multipliers(cost)
            enter = -1
            best = F0
            for j in range(len(self.cols)):
                if self.in_basis[j]:
                    continue
                d = cost[j] - self._col_times(pi, j)
                if d < 0:
                    if bland:
                        enter = j
                        break
                    if d < best or (d == best and enter == -1):
                        best = d
                        enter = j
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
            z = sum((cost[self.basis[i]] * self.xb[i] for i in range(self.m)), F0)
            if not bland:
                stall = stall + 1 if z == last_z else 0
                if stall >= STALL_LIMIT:
                    bland = True  # permanent: guarantees termination
            last_z = z

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


def _dual_path(p: LpProblem) -> LpOptimum:
    """The exact optimum or infeasibility of p, by the simplex on its dual."""
    n = p.num_vars
    m = len(p.constraints)
    # Dual in standard form: min -b'y  s.t.  A'y + s = c,  y, s >= 0.
    cols: list[list[tuple[int, Fraction]]] = [list(row.items()) for row, _ in p.constraints]
    for j in range(n):
        cols.append([(j, F1)])  # slack for dual row j
    rhs = [Fraction(p.objective.get(j, 0)) for j in range(n)]
    cost = [-r for _, r in p.constraints] + [F0] * n
    core = _Core(cols, rhs, range(m, m + n))  # all-slack start, feasible since c >= 0
    try:
        zd = core.solve(cost)
    except _Unbounded:
        return LpOptimum("infeasible")  # dual unbounded => primal infeasible
    # Simplex multipliers of the dual solve carry the primal optimum: the
    # slack column j prices to -pi_j >= 0, so x_j = -pi_j.
    x = [-v for v in core.multipliers(cost)]
    return LpOptimum("optimal", -zd, x, core.primal_values(m))


# -- HiGHS and rounding -----------------------------------------------------


# Denominators tried, in order, when rounding HiGHS's solution.  Hierarchy
# and cover LPs certify at the first; a larger one catches rarer optima
# before the exact simplex is needed.
ROUNDING_BOUNDS = (10**3, 10**6)


def _highs(p: LpProblem):
    """HiGHS's float solve of p: (None, x, row duals >= 0) at an optimum,
    else (the fallback reason, None, None)."""
    # Imported here: scipy.optimize costs more to import than the package.
    import numpy as np
    from scipy import sparse
    from scipy.optimize import linprog

    n, m = p.num_vars, len(p.constraints)
    if n == 0:  # linprog rejects an empty c; x = [], y = 0 is the only candidate
        return None, [], [0.0] * m
    try:
        c = np.array([float(p.objective.get(j, 0)) for j in range(n)])
        val = [float(v) for row, _ in p.constraints for v in row.values()]
        b = np.array([float(r) for _, r in p.constraints])
    except OverflowError:
        return "float-overflow", None, None
    ptr, idx = [0], []
    for row, _ in p.constraints:
        idx.extend(row)
        ptr.append(len(idx))
    a = sparse.csr_array((val, idx, ptr), shape=(m, n))
    # A x >= b enters as -A x <= -b; its duals come back negated too.
    res = linprog(c, A_ub=-a, b_ub=-b, bounds=(0, None), method="highs")
    if res.status != 0:
        return f"highs-status-{res.status}", None, None
    return None, res.x.tolist(), (-res.ineqlin.marginals).tolist()


def _round(values, bound: int) -> list[Fraction]:
    return [Fraction(v).limit_denominator(bound) if v else F0 for v in values]


def solve_min(p: LpProblem) -> LpOptimum:
    """Exact optimum of the covering-form problem.  An optimum is returned
    only with an x and a dual that pass certified_value."""
    for row in [p.objective, *(row for row, _ in p.constraints)]:
        if any(not 0 <= j < p.num_vars for j in row):
            raise ValueError("objective or constraint references an unknown variable")
    if any(c < 0 for c in p.objective.values()):
        raise ValueError("objective has a negative coefficient")
    fallback, xf, yf = _highs(p)
    if fallback is None:
        for bound in ROUNDING_BOUNDS:
            x, y = _round(xf, bound), _round(yf, bound)
            value = certified_value(p, x, y)
            if value is not None:
                return LpOptimum("optimal", value, x, y, "rounded")
        fallback = "rounding-rejected"
    opt = _dual_path(p)
    opt.method, opt.fallback = "simplex", fallback
    if opt.status == "optimal" and certified_value(p, opt.x, opt.dual) != opt.value:
        raise AssertionError("exact simplex returned an optimum that fails its certificate")
    return opt
