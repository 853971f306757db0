"""Exact LP solver for covering-form problems.

Every LP here has one shape: minimize c'x subject to A x >= b and x >= 0,
with c >= 0, so the objective is bounded below and the only outcomes are an
optimum or infeasibility.  A is stored as integer CSR: each row holds
integer coefficients over one positive integer denominator (1 for every row
the hierarchy and cover builders emit), and each right-hand side is a
Fraction.  The hierarchy and cover builders pass the CSR arrays in one
go; `LpProblem.add` appends a {var: coeff} row (for small hand-written
LPs), and `LpProblem.constraints` shows the rows as (dict, rhs) pairs.

Floats may propose an optimum, but only exact arithmetic accepts one: every
optimum returned comes with a primal x and a dual y >= 0 (one entry per
row) that pass four exact checks -- x >= 0 satisfies every row, y >= 0, the
reduced costs c - A'y are >= 0, and c'x = b'y.  The checks scale x and y to
integers by their common denominators and form A x and A'y as integer
segment sums, in int64 when a magnitude bound rules out overflow and in
Python ints (dtype object) otherwise, through the same code.

`solve_min` first hands the LP to HiGHS in one direct call into the
binding scipy ships (scipy.optimize._highspy._core): the CSR arrays go in
row-wise as they are, as rows b <= A x and columns x >= 0, each row with a
coefficient beyond SCALE_ABOVE divided by its largest one.  It rounds
HiGHS's primal values and row duals to nearby fractions with denominators
at most ROUNDING_BOUND (a scaled row's dual is rounded, then scaled back
exactly).  If the checks accept the rounding, that is the answer.
Otherwise -- HiGHS reports no optimum, or the rounding fails -- one exact
revised simplex over Fraction arithmetic decides.  It solves the dual,
max b'y s.t. A'y <= c, y >= 0, whose standard form starts from the
all-slack basis (feasible because c >= 0), so the basis has one row per
primal variable; the simplex multipliers recover the primal optimum, and an
unbounded dual means an infeasible primal.  `LpOptimum.method` and
`LpOptimum.fallback` record which path answered and why the rounding did not.

Pivot rule: Dantzig with lowest-index tie-breaks, switching permanently to
Bland's rule after a run of degenerate pivots, so termination is guaranteed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

F0 = Fraction(0)
F1 = Fraction(1)

STALL_LIMIT = 50  # degenerate pivots before switching to Bland's rule

INT64_LIMIT = 2**63  # magnitudes below this fit int64


def ints(values, bound: int) -> np.ndarray:
    """Integers as int64 when `bound` (a bound on every magnitude computed
    from them) is below INT64_LIMIT, else as Python ints (dtype object)."""
    return np.asarray(values, dtype=np.int64 if bound < INT64_LIMIT else object)


def _max_abs(a) -> int:
    return int(np.abs(a).max()) if len(a) else 0


def _scaled(values) -> tuple[list[int], int]:
    """(v * d for each value, d), d the common denominator of the rationals."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _segment_sums(terms: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of terms over the consecutive segments that begin at starts (the
    last one runs to the end); an empty segment sums to 0."""
    sums = np.add.reduceat(np.concatenate([terms, np.zeros(1, terms.dtype)]), starts)
    sums[starts == np.append(starts[1:], len(terms))] = 0
    return sums


@dataclass(eq=False)
class LpProblem:
    """min c'x  s.t.  A x >= b, x >= 0.  Row i of A has the coefficients
    coefs[indptr[i]:indptr[i+1]] / denoms[i] on the variables
    indices[indptr[i]:indptr[i+1]]; rhs[i] is its right-hand side."""

    num_vars: int
    objective: dict[int, int | Fraction]  # var -> cost >= 0
    indptr: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    indices: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    coefs: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    denoms: np.ndarray = field(default_factory=lambda: np.ones(0, np.int64))
    rhs: list[Fraction] = field(default_factory=list)

    def add(self, row: dict, rhs) -> None:
        """Append row . x >= rhs; row maps variables to ints or Fractions."""
        row = {j: c for j, c in row.items() if c}
        den = math.lcm(*(c.denominator for c in row.values()))
        nums = [c.numerator * (den // c.denominator) for c in row.values()]
        self.indptr = np.append(self.indptr, self.indptr[-1] + len(row))
        self.indices = np.append(self.indices, np.array(list(row), np.int64))
        self.coefs = np.concatenate([self.coefs, ints(nums, max(map(abs, nums), default=0))])
        self.denoms = np.concatenate([self.denoms, ints([den], den)])
        self.rhs.append(Fraction(rhs))

    @property
    def constraints(self) -> Sequence[tuple[dict, Fraction]]:
        return _Rows(self)


class _Rows(Sequence):
    """The constraints of an LpProblem as (row, rhs) pairs, row a
    {var: coeff} dict, each meaning row . x >= rhs."""

    def __init__(self, p: LpProblem):
        self._p = p

    def __len__(self) -> int:
        return len(self._p.rhs)

    def __getitem__(self, i: int) -> tuple[dict, Fraction]:
        p = self._p
        i = range(len(self))[i]
        lo, hi = p.indptr[i], p.indptr[i + 1]
        den = int(p.denoms[i])
        nums = p.coefs[lo:hi].tolist()
        row = dict(zip(p.indices[lo:hi].tolist(), nums if den == 1 else (Fraction(c, den) for c in nums)))
        return row, p.rhs[i]


@dataclass
class LpOptimum:
    status: str  # "optimal" | "infeasible"
    value: Fraction | None = None
    x: list[Fraction] | None = None
    dual: list[Fraction] | None = None  # per row, >= 0
    method: str | None = None  # "rounded" | "simplex"
    # None when the rounding answered, else "highs-<model status>" (HiGHS
    # found no optimum, e.g. "highs-infeasible"), "highs-model-error" (HiGHS
    # refused the model), "rounding-rejected" (no rounding passed the
    # checks) or "float-overflow" (a coefficient is beyond the float range)
    fallback: str | None = None


def check_feasible(p: LpProblem, x) -> list[int]:
    """Indices of violated constraints; index -1 flags a negative variable."""
    bad = [-1] if any(v < 0 for v in x) else []
    if not p.rhs:
        return bad
    xs, d = _scaled(x)
    # With X = d x and rhs_i = r_i / q_i, row i holds iff
    # (coefs_i . X) q_i >= r_i denoms_i d, a comparison of integers.
    r = [b.numerator for b in p.rhs]
    q = [b.denominator for b in p.rhs]
    row_len = int(np.diff(p.indptr).max())
    bound = max(_max_abs(p.coefs) * row_len * max(map(abs, xs), default=0) * max(q),
                max(1, *map(abs, r)) * _max_abs(p.denoms) * d)
    terms = ints(p.coefs, bound) * ints(xs, bound)[p.indices]
    lhs = _segment_sums(terms, p.indptr[:-1]) * ints(q, bound)
    need = ints(r, bound) * ints(p.denoms, bound) * d
    return bad + np.flatnonzero(lhs < need).tolist()


def objective_value(p: LpProblem, x) -> Fraction:
    return sum((c * x[j] for j, c in p.objective.items()), F0)


def certified_value(p: LpProblem, x, y) -> Fraction | None:
    """c'x when x and the row duals y prove each other optimal: x >= 0
    satisfies every row, y >= 0, the reduced costs c - A'y are >= 0, and
    c'x = b'y.  None otherwise."""
    if len(y) != len(p.rhs):
        raise ValueError("certified_value needs one dual value per row")
    if check_feasible(p, x) or any(v < 0 for v in y):
        return None
    n = p.num_vars
    # A'y = (coefs' W) / e with W_i = y_i e / denoms_i, all integers for the
    # common denominator e of the y_i / denoms_i.
    ydens = [v.denominator * den for v, den in zip(y, p.denoms.tolist())]
    e = math.lcm(*ydens)
    ws = [v.numerator * (e // dv) for v, dv in zip(y, ydens)]
    cn = [0] * n
    cd = [1] * n
    for j, c in p.objective.items():
        cn[j], cd[j] = c.numerator, c.denominator
    col_len = int(np.bincount(p.indices, minlength=1).max())
    # c_j - (A'y)_j >= 0  iff  cn_j e >= (coefs' W)_j cd_j
    bound = max(_max_abs(p.coefs) * col_len * max(map(abs, ws), default=0) * max(cd, default=1),
                max([1, *map(abs, cn)]) * e)
    rows = np.repeat(np.arange(len(ws)), np.diff(p.indptr))
    terms = ints(p.coefs, bound) * ints(ws, bound)[rows]
    order = np.argsort(p.indices, kind="stable")
    starts = np.searchsorted(p.indices[order], np.arange(n))
    aty = _segment_sums(terms[order], starts) * ints(cd, bound)
    if np.any(ints(cn, bound) * e < aty):
        return None
    value = objective_value(p, x)
    dual_value = sum((v * b for v, b in zip(y, p.rhs) if v), F0)
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
    m = len(p.rhs)
    # Dual in standard form: min -b'y  s.t.  A'y + s = c,  y, s >= 0.  Its
    # columns are the rows of A, rational where a row has a denominator.
    ptr, idx, nums, dens = (a.tolist() for a in (p.indptr, p.indices, p.coefs, p.denoms))
    cols: list[list[tuple[int, Fraction]]] = [
        [(idx[k], nums[k] if dens[i] == 1 else Fraction(nums[k], dens[i])) for k in range(ptr[i], ptr[i + 1])]
        for i in range(m)
    ]
    for j in range(n):
        cols.append([(j, F1)])  # slack for dual row j
    rhs = [Fraction(p.objective.get(j, 0)) for j in range(n)]
    cost = [-r for r in p.rhs] + [F0] * n
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


# Largest denominator when rounding HiGHS's solution; the hierarchy and
# cover LPs certify at it, and the exact simplex answers the rest.
ROUNDING_BOUND = 10**3

# HiGHS reads coefficients near 1e15 as infinite, so a row whose largest
# coefficient exceeds this is divided by that coefficient before HiGHS sees
# it.  Rows below it, every hierarchy and cover row among them, go unchanged.
SCALE_ABOVE = 2**20


# The settings scipy's method="highs" solves with, which pick the vertex
# HiGHS returns: presolve on, the dual simplex (strategy 1), no output.
HIGHS_OPTIONS = {"presolve": "on", "simplex_strategy": 1, "output_flag": False, "log_to_console": False}


def _highs(p: LpProblem):
    """HiGHS's float solve of p, rounded: (None, x, row duals >= 0) at an
    optimum, else (the fallback reason, None, None).  A row divided by g
    for HiGHS has its dual rounded on the scaled row, then divided by g as
    a Fraction, so certified_value checks the duals of p itself."""
    # Imported here: scipy.optimize costs more to import than the package.
    try:
        from scipy.optimize._highspy import _core as highspy
    except ImportError as e:
        raise ImportError("icbounds needs scipy >= 1.17, whose scipy.optimize._highspy._core binds HiGHS") from e

    n, m = p.num_vars, len(p.rhs)
    try:
        c = np.array([float(p.objective.get(j, 0)) for j in range(n)])
        val = p.coefs.astype(float) / np.repeat(p.denoms.astype(float), np.diff(p.indptr))
        b = np.array([float(r) for r in p.rhs])
    except OverflowError:
        return "float-overflow", None, None
    scale = {}
    for i in np.unique(np.repeat(np.arange(m), np.diff(p.indptr))[np.abs(val) > SCALE_ABOVE]).tolist():
        lo, hi = p.indptr[i], p.indptr[i + 1]
        scale[i] = Fraction(max(abs(int(v)) for v in p.coefs[lo:hi]), int(p.denoms[i]))
        val[lo:hi] /= float(scale[i])
        b[i] /= float(scale[i])
    # A x >= b goes in as it is: rows [b, inf), columns [0, inf).
    lp = highspy.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, np.zeros(n), np.full(n, highspy.kHighsInf)
    lp.row_lower_, lp.row_upper_ = b, np.full(m, highspy.kHighsInf)
    a = lp.a_matrix_
    a.format_, a.num_col_, a.num_row_ = highspy.MatrixFormat.kRowwise, n, m
    a.start_, a.index_, a.value_ = p.indptr, p.indices, val
    highs = highspy._Highs()
    for option, value in HIGHS_OPTIONS.items():
        highs.setOptionValue(option, value)
    if highs.passModel(lp) == highspy.HighsStatus.kError:
        return "highs-model-error", None, None
    highs.run()
    status = highs.getModelStatus()
    if status != highspy.HighsModelStatus.kOptimal:
        return "highs-" + highs.modelStatusToString(status).lower().replace(" ", "-"), None, None
    sol = highs.getSolution()
    y = _round(np.asarray(sol.row_dual))
    for i, g in scale.items():
        y[i] /= g
    return None, _round(np.asarray(sol.col_value)), y


def _round(values) -> list[Fraction]:
    return [Fraction(v).limit_denominator(ROUNDING_BOUND) if v else F0 for v in values.tolist()]


def _validate(p: LpProblem) -> None:
    m = len(p.rhs)
    if len(p.indptr) != m + 1 or len(p.denoms) != m or not len(p.indices) == len(p.coefs) == p.indptr[-1]:
        raise ValueError("constraint arrays disagree on the number of rows or entries")
    if p.indptr[0] != 0 or np.any(np.diff(p.indptr) < 0) or np.any(p.denoms <= 0):
        raise ValueError("row pointers must not decrease and denominators must be positive")
    cols = list(p.objective) + ([int(p.indices.min()), int(p.indices.max())] if len(p.indices) else [])
    if any(not 0 <= j < p.num_vars for j in cols):
        raise ValueError("objective or constraint references an unknown variable")
    if any(c < 0 for c in p.objective.values()):
        raise ValueError("objective has a negative coefficient")


def solve_min(p: LpProblem) -> LpOptimum:
    """Exact optimum of the covering-form problem.  An optimum is returned
    only with an x and a dual that pass certified_value."""
    _validate(p)
    fallback, x, y = _highs(p)
    if fallback is None:
        value = certified_value(p, x, y)
        if value is not None:
            return LpOptimum("optimal", value, x, y, "rounded")
        fallback = "rounding-rejected"
    opt = _dual_path(p)
    opt.method, opt.fallback = "simplex", fallback
    if opt.status == "optimal" and certified_value(p, opt.x, opt.dual) != opt.value:
        raise AssertionError("exact simplex returned an optimum that fails its certificate")
    return opt
