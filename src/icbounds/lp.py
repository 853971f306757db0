"""Exact LP solver for covering-form problems.

Every LP here has one shape: minimize c'x subject to A x >= b and x >= 0,
with c >= 0, so the objective is bounded below.  The LPs the library
builds, the hierarchy and the hyperclique covers, always have an optimum,
and `solve_min` answers only with one: an LP with no optimum raises
Uncertified.  An LP is integer arrays end to end: A is CSR with integer
coefficients, and b is one array of numerators and one of positive
denominators.  The hierarchy and cover builders pass the arrays in one
go; `LpProblem.add` appends a {var: coeff} row (for small hand-written
LPs), stored times the common denominator of its coefficients, and
`LpProblem.constraints` shows the stored rows.

Floats may propose an answer, but only exact arithmetic accepts one.  An
optimum comes with a primal x and a dual y, one entry per row, that pass
`certified_value`: x >= 0 satisfies every row, y >= 0, the reduced costs
c - A'y are >= 0, and c'x = b'y.  The check reads only the nonzero
entries of x and y, as integers over their common denominators, in int64
when a magnitude bound rules out overflow and in Python ints otherwise; no
Fraction is built per row or per column.

`solve_min` hands the LP as it is to HiGHS, through the binding scipy ships
(scipy.optimize._highspy._core), on one HiGHS instance per thread.  An LP
HiGHS cannot take -- a value beyond the float range, a right-hand side at
or beyond HIGHS_INFINITE_BOUND, which HiGHS reads as infinite, or a model
HiGHS refuses -- raises CapExceeded("highs-model"), and any model status
but optimal (or empty, for an LP with no variables) raises Uncertified.
At an optimum, HiGHS's primal values and row duals are rounded to
fractions with denominators at most ROUNDING_BOUND.  If the check rejects
them, HiGHS's basis is solved exactly, as in Applegate, Cook, Dash and
Espinoza, "Exact solutions to linear programming problems" (Oper. Res.
Lett. 35, 2007): the tight rows and the basic columns form a square
system whose solution is x on the basic columns and whose transpose gives
y on the tight rows.  A basis of more than BASIS_CAP columns raises
CapExceeded("lp-basis").  When that x and y fail the check too,
Uncertified is raised: nothing unchecked is returned.  HiGHS runs once per
solve, and `LpOptimum.method` records which of the two paths answered.
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


class Uncertified(RuntimeError):
    """Neither HiGHS's rounded optimum nor the exact solution of its basis
    passed the exact check, or HiGHS found no optimum; raised instead of
    returning an answer without a certificate."""


@dataclass
class LpOptimum:
    value: Fraction
    x: list[Fraction]
    dual: list[Fraction]  # per row, >= 0
    # "rounded" (HiGHS's optimum, rounded) or "basis" (the exact solution
    # of a basis HiGHS gives)
    method: str

    @property
    def status(self) -> str:
        """Always "optimal": solve_min returns nothing else."""
        return "optimal"


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


def _entries(p: LpProblem, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions in indices and coefs of the entries of the rows, in row
    order; the length of each row)."""
    lo = p.indptr[rows]
    lens = p.indptr[rows + 1] - lo
    return np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum()), lens


def _dual_value(p: LpProblem, y) -> Fraction | None:
    """b'y when y >= 0 and A'y <= c, else None.  Only the nonzero entries of
    y are read, as integers over their common denominator."""
    if len(y) != p.num_rows:
        raise ValueError("a dual needs one value per row")
    # Over the rows R with y_i != 0: A'y = (coefs' W) / e with W_i = y_i e,
    # e the common denominator of the y_i.
    rows, ws, e = _scaled(y)
    if min(ws, default=0) < 0:
        return None
    # the costs c_j = cs_j / dc
    keys = list(p.objective)
    opos, cs, dc = _scaled(list(p.objective.values()))
    r = np.asarray(rows, np.int64)
    entries, lens = _entries(p, r)
    cols = p.indices[entries]
    # (A'y)_j <= c_j  iff  (coefs' W)_j dc <= cs_j e
    bound = max(_mag(p.coefs) * _mag(np.bincount(cols)) * _mag(ws) * dc, _mag(cs) * e)
    aty = _dense(p.num_vars, [], [], bound)
    np.add.at(aty, cols, ints(p.coefs[entries], bound) * np.repeat(ints(ws, bound), lens))
    if np.any(_dense(p.num_vars, [keys[k] for k in opos], cs, bound) * e < aty * dc):
        return None
    # b'y = sum(W rhs_nums (L / rhs_dens)) / (e L), L the common denominator
    # of the right-hand sides of R: a sum of Python ints.
    rd = p.rhs_dens[r].tolist()
    lq = math.lcm(*rd)
    return Fraction(sum(w * b * (lq // q) for w, b, q in zip(ws, p.rhs_nums[r].tolist(), rd)), e * lq)


def certified_value(p: LpProblem, x, y) -> Fraction | None:
    """c'x when x and the row duals y prove each other optimal: x >= 0
    satisfies every row, y >= 0, the reduced costs c - A'y are >= 0, and
    c'x = b'y.  None otherwise.  Only the nonzero entries of x and y are
    read, as integers over their common denominators."""
    value = _dual_value(p, y)
    pos, xs, d = _scaled(x)
    if value is None or _violations(p, pos, xs, d):
        return None
    # c'x = sum(cs X) / (dc d) over the nonzero X = x d, c_j = cs_j / dc
    cpos, cs, dc = _scaled([p.objective.get(j, 0) for j in pos])
    primal = sum(c * xs[k] for k, c in zip(cpos, cs))
    return value if primal * value.denominator == value.numerator * dc * d else None


# -- exact basis solve --------------------------------------------------------


# Most columns in a basis that the exact solve takes; past it,
# CapExceeded("lp-basis") is raised before the elimination starts.  The
# time depends on the fill-in: unreduced C9's b2 basis, 512 sparse columns,
# solves in 0.1 s, and a random dense 0/1 basis of 512 columns in about
# 2 minutes (256: 7 s), its entries growing to 1 400 bits.
BASIS_CAP = 512


def _solve_square(rows: list[dict], rhs: list[int]) -> list[Fraction]:
    """z with rows . z = rhs, a square integer system (row i maps columns
    0..k-1 to coefficients; the rows are changed).  Sparse elimination: each
    step pivots on the live column in the fewest live rows, in the shortest
    of those, and keeps rows integer, divided by their gcd; z is then read
    off the pivot rows.  Raises Uncertified when the system is singular."""
    holding = [set() for _ in rows]  # column -> the live rows with an entry in it
    for i, row in enumerate(rows):
        for c in row:
            holding[c].add(i)
    live, pivots = set(range(len(rows))), []
    while live:
        c = min(live, key=lambda c: len(holding[c]))
        if not holding[c]:
            raise Uncertified("HiGHS's basis is singular in exact arithmetic")
        r = min(holding[c], key=lambda i: len(rows[i]))
        live.discard(c)
        prow, pb = rows[r], rhs[r]
        for j in prow:
            holding[j].discard(r)
        pivots.append((r, c))
        for i in list(holding[c]):
            row = rows[i]
            g = math.gcd(prow[c], row[c])
            a, f = prow[c] // g, row[c] // g
            new = {j: a * v for j, v in row.items()}  # a row - f prow
            for j, v in prow.items():
                new[j] = new.get(j, 0) - f * v
                if new[j]:
                    holding[j].add(i)
                else:
                    holding[j].discard(i)
            b = a * rhs[i] - f * pb
            g = math.gcd(b, *new.values()) or 1
            rows[i], rhs[i] = {j: v // g for j, v in new.items() if v}, b // g
    z = [F0] * len(rows)
    for r, c in reversed(pivots):
        row = rows[r]
        z[c] = (rhs[r] - sum(v * z[j] for j, v in row.items() if j != c)) / Fraction(row[c])
    return z


def _basis(p: LpProblem, highspy, highs) -> tuple[list[int], list[int], list[tuple[int, int, int]]]:
    """(B, T, A_TB) for HiGHS's basis: B the basic columns, T the tight rows
    (those whose slack is nonbasic), and A_TB's nonzero entries as (position
    in T, position in B, coefficient)."""
    n, m = p.num_vars, p.num_rows
    basis = highs.getBasis()
    basic = highspy.HighsBasisStatus.kBasic
    col, row = basis.col_status, basis.row_status
    cols = [j for j in range(n) if col[j] == basic]
    tight = [i for i in range(m) if row[i] != basic]
    if not basis.valid or len(cols) != len(tight):
        raise Uncertified("HiGHS gives no square optimal basis")
    if len(cols) > BASIS_CAP:
        raise CapExceeded("lp-basis", len(cols), BASIS_CAP)
    at = np.full(n, -1)
    at[cols] = np.arange(len(cols))
    entries, lens = _entries(p, np.asarray(tight, np.int64))
    pos, coefs = at[p.indices[entries]], p.coefs[entries]
    keep = (pos >= 0) & (coefs != 0)
    return cols, tight, list(zip(np.repeat(np.arange(len(cols)), lens)[keep].tolist(), pos[keep].tolist(),
                                 coefs[keep].tolist()))


def _vertex(p: LpProblem, cols, tight, a) -> tuple[list[Fraction], list[Fraction]]:
    """(x, y) of the basis in exact arithmetic: x_B solves A_TB x_B = b_T
    and y_T solves A_TB' y_T = c_B; every other entry is 0.  Each row of
    either system is scaled to integers by its right-hand side's
    denominator."""
    dens = p.rhs_dens[tight].tolist()
    costs = [Fraction(p.objective.get(j, 0)) for j in cols]
    rows, trows = [{} for _ in cols], [{} for _ in cols]
    for t, j, v in a:
        rows[t][j] = v * dens[t]
        trows[j][t] = v * costs[j].denominator
    xb = dict(zip(cols, _solve_square(rows, p.rhs_nums[tight].tolist())))
    yt = dict(zip(tight, _solve_square(trows, [c.numerator for c in costs])))
    return [xb.get(j, F0) for j in range(p.num_vars)], [yt.get(i, F0) for i in range(p.num_rows)]


# -- HiGHS and rounding -----------------------------------------------------


# Largest denominator when rounding HiGHS's solution; the hierarchy
# and cover LPs certify at it, and the exact basis solve answers the rest.
ROUNDING_BOUND = 10**3

# The settings scipy's method="highs" solves with, which pick the vertex
# HiGHS returns: presolve on, the dual simplex (strategy 1), no output.
# Presolve off would cut a small cover LP's HiGHS run from about 0.13 to
# 0.07 ms (median of 20 weak-cover LPs of 6-29 variables, on a 2-core Xeon), but
# unreduced C9's b2 LP would take 380-387 ms instead of 49-56 and fail to
# round, so presolve stays on at every size.
HIGHS_OPTIONS = {"presolve": "on", "simplex_strategy": 1, "output_flag": False, "log_to_console": False}

# HiGHS reads a bound at or beyond this (its option infinite_bound) as
# infinite, so an LP with such a right-hand side is refused before it.
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


def load_binding() -> None:
    """Import the HiGHS binding as the first solve would, for callers that
    time their solves."""
    _handle()


def _run(highspy, highs, p: LpProblem):
    """HiGHS's model status once it minimizes p, passed as it is: the costs,
    x >= 0, and b as the lower bounds of the CSR rows.  Raises
    CapExceeded("highs-model") for a value HiGHS cannot take or a model it
    refuses."""
    n, m = p.num_vars, p.num_rows
    try:
        c = np.zeros(n)
        c[list(p.objective)] = [float(v) for v in p.objective.values()]
        val = p.coefs.astype(float)
        b = np.asarray(p.rhs_nums / p.rhs_dens, dtype=float)
    except OverflowError:
        raise CapExceeded("highs-model", "a value beyond the float range", "HiGHS's input range") from None
    if np.any(np.abs(b) >= HIGHS_INFINITE_BOUND):
        raise CapExceeded("highs-model", f"a right-hand side of {np.abs(b).max():.3g}", "HiGHS's input range")
    highs.clearModel()
    status = highs.passModel(n, m, len(val), highspy.MatrixFormat.kRowwise, highspy.ObjSense.kMinimize, 0.0,
                             c, np.zeros(n), np.full(n, np.inf), b, np.full(m, np.inf),
                             p.indptr, p.indices, val, np.zeros(n, np.int32))
    if status == highspy.HighsStatus.kError:
        raise CapExceeded("highs-model", "a model HiGHS refuses", "HiGHS's input range")
    highs.run()
    return highs.getModelStatus()


def _round(values) -> list[Fraction]:
    """Each value as the nearest fraction with denominator at most
    ROUNDING_BOUND, found once per distinct nonzero value."""
    values = list(values)
    near = {v: Fraction(v).limit_denominator(ROUNDING_BOUND) if v else F0 for v in set(values)}
    return [near[v] for v in values]


def _rounded(p: LpProblem, highs) -> LpOptimum | None:
    """HiGHS's optimum, its primal values and row duals rounded, if
    certified_value accepts it; else None."""
    sol = highs.getSolution()
    x, y = _round(sol.col_value), _round(sol.row_dual)
    value = certified_value(p, x, y)
    return None if value is None else LpOptimum(value, x, y, "rounded")


def _validate(p: LpProblem) -> None:
    m = p.num_rows
    if len(p.indptr) != m + 1 or len(p.rhs_dens) != m or not len(p.indices) == len(p.coefs) == p.indptr[-1]:
        raise ValueError("constraint arrays disagree on the number of rows or entries")
    if p.indptr[0] != 0 or np.any(np.diff(p.indptr) < 0) or np.any(p.rhs_dens <= 0):
        raise ValueError("row pointers must not decrease and denominators must be positive")
    cols = [*p.objective, *((int(p.indices.min()), int(p.indices.max())) if len(p.indices) else ())]
    if cols and not 0 <= min(cols) <= max(cols) < p.num_vars:
        raise ValueError("objective or constraint references an unknown variable")
    keys = np.sort(np.repeat(np.arange(m), np.diff(p.indptr)) * p.num_vars + p.indices)
    if len(twice := keys[:-1][keys[1:] == keys[:-1]]):
        raise ValueError(f"row {twice[0] // p.num_vars} names variable {twice[0] % p.num_vars} twice")
    if p.objective and min(p.objective.values()) < 0:
        raise ValueError("objective has a negative coefficient")


def solve_min(p: LpProblem) -> LpOptimum:
    """Exact optimum of the covering-form problem, returned only with an x
    and a dual that passed certified_value.  One HiGHS run proposes it:
    first its optimum rounded, then the exact solution of its basis.
    Raises CapExceeded for an LP HiGHS cannot take or a basis past
    BASIS_CAP, and Uncertified when HiGHS finds no optimum (an infeasible
    LP among them) or neither answer passes."""
    _validate(p)
    highspy, highs = _handle()
    done = highspy.HighsModelStatus
    status = _run(highspy, highs, p)
    if status not in (done.kOptimal, done.kModelEmpty):  # empty: no variables
        raise Uncertified(f"HiGHS ends with model status {highs.modelStatusToString(status)!r}")
    if opt := _rounded(p, highs):
        return opt
    x, y = _vertex(p, *_basis(p, highspy, highs))
    value = certified_value(p, x, y)
    if value is None:
        raise Uncertified("the exact solution of HiGHS's basis fails its exact check")
    return LpOptimum(value, x, y, "basis")
