"""Exact LP solver for covering-form problems.

Every LP here has one shape: minimize c'x subject to A x >= b and x >= 0,
with c >= 0, so the objective is bounded below and the only outcomes are an
optimum or infeasibility.  An LP is integer arrays end to end: A is CSR
with integer coefficients, and b is one array of numerators and one of
positive denominators.  The hierarchy and cover builders pass the arrays
in one go; `LpProblem.add` appends a {var: coeff} row (for small
hand-written LPs), stored times the common denominator of its
coefficients, and `LpProblem.rhs` and `LpProblem.constraints` show b and
the stored rows.

Floats may propose an optimum, but only exact arithmetic accepts one: every
optimum returned comes with a primal x and a dual y >= 0 (one entry per
row) that pass four exact checks -- x >= 0 satisfies every row, y >= 0, the
reduced costs c - A'y are >= 0, and c'x = b'y.  The checks read only the
nonzero entries of x and y, scaled to integers by their common
denominators: A x is an integer segment sum over the rows, A'y one over
the entries of the rows whose dual is nonzero, in int64 when a magnitude
bound rules out overflow and in Python ints (dtype object) otherwise,
through the same code; c'x and b'y are sums of Python ints over the nonzero
entries.  No Fraction is built per row or per column.

`solve_min` first hands the LP to HiGHS in one direct call into the
binding scipy ships (scipy.optimize._highspy._core), on one HiGHS instance
per thread whose options are set once and whose model is cleared before
each solve.  The arrays go in row-wise as they are, converted to floats in
one vectorized step, as rows b <= A x and columns x >= 0.  An LP with a
right-hand side at or beyond HIGHS_INFINITE_BOUND, which HiGHS would read
as infinite, goes straight to the exact simplex, and a model HiGHS refuses
(say, for a coefficient it reads as infinite) falls back to it.  It rounds
HiGHS's primal values and row duals to nearby fractions with denominators
at most ROUNDING_BOUND, once per distinct value.  If the checks accept the
rounding, that is the answer.  Otherwise -- HiGHS reports no optimum, or
the rounding fails -- one exact revised simplex over Fraction arithmetic
decides.  It solves the dual, max b'y s.t. A'y <= c, y >= 0, whose
standard form starts from the all-slack basis (feasible because c >= 0),
so the basis has one row per primal variable; the simplex multipliers
recover the primal optimum, and an unbounded dual means an infeasible
primal.  Its dense basis inverse has num_vars^2 entries, so an LP with more
than SIMPLEX_CAP variables raises CapExceeded("lp-simplex") instead.
`LpOptimum.method` and `LpOptimum.fallback` record which path answered and
why the rounding did not.

Pivot rule: Bland's (the lowest-index improving column enters; ties in the
ratio test leave by lowest index) from the first pivot, so the simplex
cannot cycle.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .instance import CapExceeded

F0 = Fraction(0)
F1 = Fraction(1)

INT64_LIMIT = 2**63  # magnitudes below this fit int64


def ints(values, bound: int) -> np.ndarray:
    """Integers as int64 when `bound` (a bound on every magnitude computed
    from them) is below INT64_LIMIT, else as Python ints (dtype object)."""
    return np.asarray(values, dtype=np.int64 if bound < INT64_LIMIT else object)


def _mag(values) -> int:
    """The largest magnitude among values (an array or a list), at least 1:
    a factor of a bound."""
    if isinstance(values, np.ndarray):
        return max(1, int(np.abs(values).max())) if len(values) else 1
    return max(1, max(map(abs, values), default=0))


def _scaled(values) -> tuple[list[int], list[int], int]:
    """(positions, v * d at each, d): the nonzero values among `values` (ints
    or Fractions), scaled by d, the common denominator of those values."""
    pos = [i for i, v in enumerate(values) if v]
    d = math.lcm(*(values[i].denominator for i in pos))
    return pos, [values[i].numerator * (d // values[i].denominator) for i in pos], d


def _dense(size: int, pos, nums, bound: int) -> np.ndarray:
    """A length-`size` integer array (dtype by `bound`), nums at pos, 0 elsewhere."""
    out = np.zeros(size, ints([], bound).dtype)
    out[pos] = nums
    return out


def _segment_sums(terms: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of terms over the consecutive segments that begin at starts (the
    last one runs to the end); an empty segment sums to 0."""
    sums = np.add.reduceat(np.concatenate([terms, np.zeros(1, terms.dtype)]), starts)
    sums[starts == np.append(starts[1:], len(terms))] = 0
    return sums


@dataclass(eq=False)
class LpProblem:
    """min c'x  s.t.  A x >= b, x >= 0.  Row i of A has the integer
    coefficients coefs[indptr[i]:indptr[i+1]] on the variables
    indices[indptr[i]:indptr[i+1]]; its right-hand side is
    rhs_nums[i] / rhs_dens[i], rhs_dens[i] > 0."""

    num_vars: int
    objective: dict[int, int | Fraction]  # var -> cost >= 0
    indptr: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    indices: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    coefs: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    rhs_nums: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    rhs_dens: np.ndarray = field(default_factory=lambda: np.ones(0, np.int64))

    def add(self, row: dict, rhs) -> None:
        """Append row . x >= rhs; row maps variables to ints or Fractions.
        A row with rational coefficients is stored times their common
        denominator, and so is its right-hand side: the feasible set is the
        same, but `constraints` shows the stored integer row, and a solve's
        dual for it is that row's dual."""
        row = {j: c for j, c in row.items() if c}
        den = math.lcm(*(c.denominator for c in row.values()))
        nums = [c.numerator * (den // c.denominator) for c in row.values()]
        self.indptr = np.append(self.indptr, self.indptr[-1] + len(row))
        self.indices = np.append(self.indices, np.array(list(row), np.int64))
        self.coefs = np.concatenate([self.coefs, ints(nums, max(map(abs, nums), default=0))])
        b = Fraction(rhs) * den
        self.rhs_nums = np.concatenate([self.rhs_nums, ints([b.numerator], abs(b.numerator))])
        self.rhs_dens = np.concatenate([self.rhs_dens, ints([b.denominator], b.denominator)])

    @property
    def num_rows(self) -> int:
        return len(self.rhs_nums)

    @property
    def rhs(self) -> list[Fraction]:
        """The right-hand sides as Fractions (a copy)."""
        return [Fraction(r, q) for r, q in zip(self.rhs_nums.tolist(), self.rhs_dens.tolist())]

    @property
    def constraints(self) -> Sequence[tuple[dict, Fraction]]:
        return _Rows(self)


class _Rows(Sequence):
    """The constraints of an LpProblem as (row, rhs) pairs, row a
    {var: integer coeff} dict, each meaning row . x >= rhs."""

    def __init__(self, p: LpProblem):
        self._p = p

    def __len__(self) -> int:
        return self._p.num_rows

    def __getitem__(self, i: int) -> tuple[dict, Fraction]:
        p = self._p
        i = range(len(self))[i]
        lo, hi = p.indptr[i], p.indptr[i + 1]
        row = dict(zip(p.indices[lo:hi].tolist(), p.coefs[lo:hi].tolist()))
        return row, Fraction(int(p.rhs_nums[i]), int(p.rhs_dens[i]))


@dataclass
class LpOptimum:
    status: str  # "optimal" | "infeasible"
    value: Fraction | None = None
    x: list[Fraction] | None = None
    dual: list[Fraction] | None = None  # per row, >= 0
    method: str | None = None  # "rounded" | "simplex"
    # None when the rounding answered, else "highs-<model status>" (HiGHS
    # found no optimum, e.g. "highs-infeasible"), "highs-model-error" (HiGHS
    # refused the model), "highs-rhs-range" (a right-hand side at or beyond
    # HIGHS_INFINITE_BOUND), "rounding-rejected" (no rounding passed the
    # checks) or "float-overflow" (a coefficient is beyond the float range)
    fallback: str | None = None


def _violations(p: LpProblem, pos, xs, d) -> list[int]:
    """check_feasible of the x whose nonzero entries are xs / d at pos."""
    bad = [-1] if min(xs, default=0) < 0 else []
    if not p.num_rows:
        return bad
    # With X = d x, row i holds iff (coefs_i . X) rhs_dens_i >= rhs_nums_i d,
    # a comparison of integers.
    row_len = _mag(np.diff(p.indptr))
    bound = max(_mag(p.coefs) * row_len * _mag(xs) * _mag(p.rhs_dens), _mag(p.rhs_nums) * d)
    terms = ints(p.coefs, bound) * _dense(p.num_vars, pos, xs, bound)[p.indices]
    lhs = _segment_sums(terms, p.indptr[:-1]) * ints(p.rhs_dens, bound)
    return bad + np.flatnonzero(lhs < ints(p.rhs_nums, bound) * d).tolist()


def check_feasible(p: LpProblem, x) -> list[int]:
    """Indices of violated constraints; index -1 flags a negative variable."""
    return _violations(p, *_scaled(x))


def certified_value(p: LpProblem, x, y) -> Fraction | None:
    """c'x when x and the row duals y prove each other optimal: x >= 0
    satisfies every row, y >= 0, the reduced costs c - A'y are >= 0, and
    c'x = b'y.  None otherwise.  Only the nonzero entries of x and y are
    read, as integers over their common denominators."""
    if len(y) != p.num_rows:
        raise ValueError("certified_value needs one dual value per row")
    pos, xs, d = _scaled(x)
    if _violations(p, pos, xs, d):
        return None
    # Over the rows R with y_i != 0: A'y = (coefs' W) / e with W_i = y_i e,
    # e the common denominator of the y_i.
    rows, ws, e = _scaled(y)
    if min(ws, default=0) < 0:
        return None
    # the costs c_j = cs_j / dc
    keys = list(p.objective)
    opos, cs, dc = _scaled(list(p.objective.values()))
    cols_c = [keys[k] for k in opos]
    r = np.asarray(rows, np.int64)
    lo = p.indptr[r]
    lens = p.indptr[r + 1] - lo
    entries = np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    cols = p.indices[entries]
    # c_j - (A'y)_j >= 0  iff  cs_j e >= (coefs' W)_j dc
    bound = max(_mag(p.coefs) * _mag(np.bincount(cols)) * _mag(ws) * dc, _mag(cs) * e)
    aty = _dense(p.num_vars, [], [], bound)
    np.add.at(aty, cols, ints(p.coefs[entries], bound) * np.repeat(ints(ws, bound), lens))
    if np.any(_dense(p.num_vars, cols_c, cs, bound) * e < aty * dc):
        return None
    # c'x = sum(cs X) / (dc d) and b'y = sum(W rhs_nums (L / rhs_dens)) / (e L),
    # L the common denominator of the right-hand sides of R: sums of Python ints.
    cost = dict(zip(cols_c, cs))
    primal = sum(cost.get(j, 0) * v for j, v in zip(pos, xs))
    rd = p.rhs_dens[r].tolist()
    lq = math.lcm(*rd)
    dual = sum(w * b * (lq // q) for w, b, q in zip(ws, p.rhs_nums[r].tolist(), rd))
    return Fraction(primal, dc * d) if primal * e * lq == dual * dc * d else None


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


# Most primal variables the exact simplex takes: its dense basis inverse
# holds num_vars^2 Fractions.  512 (C9's unreduced b2 LP) finishes; past it,
# CapExceeded("lp-simplex") is raised before anything is allocated.
SIMPLEX_CAP = 512


def _dual_path(p: LpProblem) -> LpOptimum:
    """The exact optimum or infeasibility of p, by the simplex on its dual."""
    n = p.num_vars
    m = p.num_rows
    if n > SIMPLEX_CAP:
        raise CapExceeded("lp-simplex", n, SIMPLEX_CAP)
    # Dual in standard form: min -b'y  s.t.  A'y + s = c,  y, s >= 0.  Its
    # columns are the rows of A.
    ptr, idx, nums = (a.tolist() for a in (p.indptr, p.indices, p.coefs))
    cols = [list(zip(idx[ptr[i]:ptr[i + 1]], nums[ptr[i]:ptr[i + 1]])) for i in range(m)]
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

# The settings scipy's method="highs" solves with, which pick the vertex
# HiGHS returns: presolve on, the dual simplex (strategy 1), no output.
# Presolve off would cut a tiny cover LP's `_highs` from 0.52-0.83 to
# 0.18-0.39 ms, but unreduced C9's 512 x 9 572 b2 LP then takes 616 ms in
# HiGHS instead of 105 and its rounding fails (the exact simplex answers),
# so presolve stays on at every size.
HIGHS_OPTIONS = {"presolve": "on", "simplex_strategy": 1, "output_flag": False, "log_to_console": False}


# HiGHS reads a bound at or beyond this (its option infinite_bound) as
# infinite, so an LP with such a right-hand side never reaches it.
HIGHS_INFINITE_BOUND = 1e20

# One HiGHS instance per thread, its options set once; each solve clears
# the model it passes.
_local = threading.local()


def _handle():
    """(the binding, this thread's HiGHS instance)."""
    # Imported here: scipy.optimize costs more to import than the package.
    try:
        from scipy.optimize._highspy import _core as highspy
    except ImportError as e:
        raise ImportError("icbounds needs scipy >= 1.17, whose scipy.optimize._highspy._core binds HiGHS") from e
    highs = getattr(_local, "highs", None)
    if highs is None:
        highs = _local.highs = highspy._Highs()
        for option, value in HIGHS_OPTIONS.items():
            highs.setOptionValue(option, value)
    return highspy, highs


def _highs(p: LpProblem):
    """HiGHS's float solve of p, rounded: (None, x, row duals >= 0) at an
    optimum, else (the fallback reason, None, None)."""
    highspy, highs = _handle()
    n, m = p.num_vars, p.num_rows
    try:
        c = np.zeros(n)
        c[list(p.objective)] = [float(v) for v in p.objective.values()]
        val = p.coefs.astype(float)
        b = np.asarray(p.rhs_nums / p.rhs_dens, dtype=float)
    except OverflowError:
        return "float-overflow", None, None
    if np.any(np.abs(b) >= HIGHS_INFINITE_BOUND):
        return "highs-rhs-range", None, None
    # A x >= b goes in as it is, row-wise: rows [b, inf), columns [0, inf),
    # every column continuous.
    highs.clearModel()
    inf = highspy.kHighsInf
    status = highs.passModel(n, m, len(val), highspy.MatrixFormat.kRowwise, highspy.ObjSense.kMinimize, 0.0,
                             c, np.zeros(n), np.full(n, inf), b, np.full(m, inf),
                             p.indptr, p.indices, val, np.zeros(n, np.int32))
    if status == highspy.HighsStatus.kError:
        return "highs-model-error", None, None
    highs.run()
    status = highs.getModelStatus()
    if status != highspy.HighsModelStatus.kOptimal:
        return "highs-" + highs.modelStatusToString(status).lower().replace(" ", "-"), None, None
    sol = highs.getSolution()
    return None, _round(sol.col_value), _round(sol.row_dual)


def _round(values) -> list[Fraction]:
    """Each value as the nearest fraction with denominator at most
    ROUNDING_BOUND, found once per distinct nonzero value."""
    values = list(values)
    near = {v: Fraction(v).limit_denominator(ROUNDING_BOUND) if v else F0 for v in set(values)}
    return [near[v] for v in values]


def _validate(p: LpProblem) -> None:
    m = p.num_rows
    if len(p.indptr) != m + 1 or len(p.rhs_dens) != m or not len(p.indices) == len(p.coefs) == p.indptr[-1]:
        raise ValueError("constraint arrays disagree on the number of rows or entries")
    if p.indptr[0] != 0 or np.any(np.diff(p.indptr) < 0) or np.any(p.rhs_dens <= 0):
        raise ValueError("row pointers must not decrease and denominators must be positive")
    cols = [*p.objective, *((int(p.indices.min()), int(p.indices.max())) if len(p.indices) else ())]
    if cols and not 0 <= min(cols) <= max(cols) < p.num_vars:
        raise ValueError("objective or constraint references an unknown variable")
    if p.objective and min(p.objective.values()) < 0:
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
