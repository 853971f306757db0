"""Exact rational LP solver (minimization).

All variables are implicitly >= 0; constraints are (sparse row, relation,
rhs) with relation one of ">=", "<=", "==".  Floats may propose an optimum,
but only exact rational arithmetic accepts one: every optimum returned comes
with a primal x and a dual y (one entry per row, y >= 0 on ">=" rows, y <= 0
on "<=" rows) that pass four exact checks -- x >= 0 satisfies every row, y
has the right sign, the reduced costs c - A'y are >= 0, and c'x = b'y.

`solve_min` first hands the LP to HiGHS (scipy's linprog) as sparse
matrices and rounds its primal and dual solutions to nearby fractions with
small denominators (ROUNDING_BOUNDS).  If the checks accept a rounding, that
is the answer.  Otherwise -- HiGHS reports no optimum, or no rounding passes
-- the exact simplex decides, with one of two paths sharing one revised
simplex core over Fraction arithmetic:
  * dual path -- for problems with c >= 0, all rows ">=", and far fewer
    variables than rows (the entropy LPs): solve max b'y s.t. A'y <= c,
    y >= 0, whose standard form starts from the all-slack basis and whose
    simplex multipliers recover the primal optimum.  Basis size drops to
    the number of primal variables.
  * primal two-phase -- everything else; basis size = number of rows.
`LpOptimum.method` and `LpOptimum.fallback` record which path answered and
why the rounding did not.

Pivot rule: Dantzig with lowest-index tie-breaks, switching permanently to
Bland's rule after a run of degenerate pivots, so termination is guaranteed;
`bland=True` forces Bland's rule throughout.
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
    # (sparse row {var: coeff}, relation, rhs)
    constraints: list[tuple[dict[int, Fraction], str, Fraction]] = field(default_factory=list)

    def add(self, row: dict[int, Fraction], rel: str, rhs) -> None:
        if rel not in (">=", "<=", "=="):
            raise ValueError(f"bad relation {rel!r}")
        self.constraints.append(({k: Fraction(v) for k, v in row.items() if v}, rel, Fraction(rhs)))

    def dump(self) -> str:
        """Plain-text "min / st" rendering for debugging."""

        def term(c, j):
            return f"{c}*x{j}"

        lines = ["min " + " + ".join(term(c, j) for j, c in sorted(self.objective.items()))]
        lines.append("st")
        for row, rel, rhs in self.constraints:
            lines.append("  " + " + ".join(term(c, j) for j, c in sorted(row.items())) + f" {rel} {rhs}")
        lines.append("  x >= 0")
        return "\n".join(lines)


@dataclass
class LpOptimum:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: list[Fraction] | None = None
    dual: list[Fraction] | None = None  # per row; >= 0 on ">=", <= 0 on "<="
    method: str | None = None  # "rounded" | "dual-simplex" | "primal-simplex"
    # None when the rounding answered, else "highs-status-<n>" (HiGHS found
    # no optimum), "rounding-rejected" (no rounding passed the checks) or
    # "float-overflow" (a coefficient is beyond the float range)
    fallback: str | None = None


def check_feasible(p: LpProblem, x) -> list[int]:
    """Indices of violated constraints; index -1 flags a negative variable."""
    bad = []
    if any(v < 0 for v in x):
        bad.append(-1)
    for i, (row, rel, rhs) in enumerate(p.constraints):
        lhs = sum((c * x[j] for j, c in row.items()), F0)
        ok = lhs >= rhs if rel == ">=" else lhs <= rhs if rel == "<=" else lhs == rhs
        if not ok:
            bad.append(i)
    return bad


def objective_value(p: LpProblem, x) -> Fraction:
    return sum((c * x[j] for j, c in p.objective.items()), F0)


def certified_value(p: LpProblem, x, y) -> Fraction | None:
    """c'x when x and the row duals y prove each other optimal: x >= 0
    satisfies every row, y >= 0 on ">=" rows and <= 0 on "<=" rows, the
    reduced costs c - A'y are >= 0, and c'x = b'y.  None otherwise."""
    if check_feasible(p, x):
        return None
    reduced = dict(p.objective)
    dual_value = F0
    for (row, rel, rhs), yi in zip(p.constraints, y, strict=True):
        if not yi:
            continue
        if (rel == ">=" and yi < 0) or (rel == "<=" and yi > 0):
            return None
        dual_value += yi * rhs
        for j, a in row.items():
            reduced[j] = reduced.get(j, F0) - yi * a
    if any(v < 0 for v in reduced.values()):
        return None
    value = objective_value(p, x)
    return value if value == dual_value else None


# -- simplex core -----------------------------------------------------------


class _Unbounded(Exception):
    pass


class _Core:
    """min cost'x  s.t.  A x = b, x >= 0, given a starting feasible basis.

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
        self._factor_start(b)

    def _factor_start(self, b):
        # The starting basis need not be the identity: eliminate to B^-1.
        mat = [[F0] * self.m for _ in range(self.m)]
        for k, j in enumerate(self.basis):
            for i, v in self.cols[j]:
                mat[i][k] = v
        ident = all(mat[i][k] == (F1 if i == k else F0) for k in range(self.m) for i in range(self.m))
        if ident:
            return
        # Gauss-Jordan on [mat | I]; basis columns are guaranteed independent
        # by the callers (slack/artificial identity blocks).
        binv = self.binv
        for k in range(self.m):
            piv = next(i for i in range(k, self.m) if mat[i][k] != 0)
            mat[k], mat[piv] = mat[piv], mat[k]
            binv[k], binv[piv] = binv[piv], binv[k]
            d = mat[k][k]
            if d != 1:
                mat[k] = [v / d for v in mat[k]]
                binv[k] = [v / d for v in binv[k]]
            for i in range(self.m):
                if i != k and mat[i][k] != 0:
                    f = mat[i][k]
                    mat[i] = [a - f * c for a, c in zip(mat[i], mat[k])]
                    binv[i] = [a - f * c for a, c in zip(binv[i], binv[k])]
        self.xb = [sum((binv[i][r] * b[r] for r in range(self.m)), F0) for i in range(self.m)]

    def multipliers(self, cost):
        m = self.m
        binv = self.binv
        cb = [cost[j] for j in self.basis]
        return [sum((cb[i] * binv[i][k] for i in range(m) if cb[i]), F0) for k in range(m)]

    def _col_times(self, vec, j):
        return sum((vec[i] * v for i, v in self.cols[j]), F0)

    def solve(self, cost, banned=frozenset(), bland=False):
        """Run to optimality.  Raises _Unbounded.  Returns objective value."""
        stall = 0
        last_z = None
        while True:
            pi = self.multipliers(cost)
            enter = -1
            best = F0
            for j in range(len(self.cols)):
                if self.in_basis[j] or j in banned:
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


# -- the two solve paths ----------------------------------------------------


def _primal_two_phase(p: LpProblem, bland: bool) -> LpOptimum:
    n = p.num_vars
    m = len(p.constraints)
    rows = []  # (sparse dict, rhs) in equality form with rhs >= 0, before slacks
    kinds = []
    negated = []
    for row, rel, rhs in p.constraints:
        negated.append(rhs < 0)
        if rhs < 0:
            row = {j: -c for j, c in row.items()}
            rhs = -rhs
            rel = {">=": "<=", "<=": ">=", "==": "=="}[rel]
        rows.append((row, rhs))
        kinds.append(rel)

    cols: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for i, (row, _) in enumerate(rows):
        for j, c in row.items():
            cols[j].append((i, c))
    slack_of_row = {}
    for i, rel in enumerate(kinds):
        if rel == "<=":
            slack_of_row[i] = len(cols)
            cols.append([(i, F1)])
        elif rel == ">=":
            cols.append([(i, -F1)])  # surplus
    nslacked = len(cols)
    # Artificials for rows lacking a +1 slack.
    art_of_row = {}
    for i, rel in enumerate(kinds):
        if rel != "<=":
            art_of_row[i] = len(cols)
            cols.append([(i, F1)])
    arts = set(art_of_row.values())
    b = [rhs for _, rhs in rows]
    basis = [slack_of_row[i] if i in slack_of_row else art_of_row[i] for i in range(m)]

    core = _Core(cols, b, basis)
    if arts:
        cost1 = [F0] * len(cols)
        for j in arts:
            cost1[j] = F1
        z1 = core.solve(cost1, bland=bland)
        if z1 != 0:
            return LpOptimum("infeasible")
        _drive_out_artificials(core, arts, nslacked)
    cost2 = [F0] * len(cols)
    for j, c in p.objective.items():
        cost2[j] = Fraction(c)
    try:
        z = core.solve(cost2, banned=frozenset(arts), bland=bland)
    except _Unbounded:
        return LpOptimum("unbounded")
    x = core.primal_values(n)
    y = [-v if neg else v for v, neg in zip(core.multipliers(cost2), negated)]
    return LpOptimum("optimal", z, x, y)


def _drive_out_artificials(core: _Core, arts, nslacked) -> None:
    # A basic artificial sits at value 0; swap it for any original column with
    # a nonzero pivot entry.  If none exists the row is redundant and the
    # artificial can stay: no original column ever moves that row again.
    for r in range(core.m):
        if core.basis[r] not in arts:
            continue
        for j in range(nslacked):
            if core.in_basis[j]:
                continue
            urj = core._col_times(core.binv[r], j)
            if urj != 0:
                u = [core._col_times(core.binv[i], j) for i in range(core.m)]
                core._pivot(j, r, u, core.xb[r] / urj)
                break


def _dual_path(p: LpProblem, bland: bool) -> LpOptimum | None:
    """Solve via the dual when c >= 0 and every row is ">=".  Returns None if
    the shape does not fit (caller falls back to the primal path)."""
    n = p.num_vars
    if any(c < 0 for c in p.objective.values()):
        return None
    if any(rel != ">=" for _, rel, _ in p.constraints):
        return None
    m = len(p.constraints)
    # Dual in standard form: min -b'y  s.t.  A'y + s = c,  y, s >= 0.
    cols: list[list[tuple[int, Fraction]]] = [[] for _ in range(m)]
    for i, (row, _, _) in enumerate(p.constraints):
        cols[i] = [(j, c) for j, c in row.items()]
    for j in range(n):
        cols.append([(j, F1)])  # slack for dual row j
    rhs = [Fraction(p.objective.get(j, 0)) for j in range(n)]
    cost = [-r for _, _, r in p.constraints] + [F0] * n
    basis = list(range(m, m + n))  # all-slack start, feasible since c >= 0
    core = _Core(cols, rhs, basis)
    try:
        zd = core.solve(cost, bland=bland)
    except _Unbounded:
        return LpOptimum("infeasible")  # dual unbounded => primal infeasible
    # Simplex multipliers of the dual solve carry the primal optimum: the
    # slack column j prices to -pi_j >= 0, so x_j = -pi_j.
    pi = core.multipliers(cost)
    x = [-v for v in pi]
    if check_feasible(p, x):
        return None  # paranoia: fall back to the primal path
    z = objective_value(p, x)
    if z != -zd:
        return None
    y = core.primal_values(m)
    return LpOptimum("optimal", z, x, y)


# Denominators tried, in order, when rounding HiGHS's solution.  Hierarchy
# and cover LPs certify at the first; a larger one catches rarer optima
# before the exact simplex is needed.
ROUNDING_BOUNDS = (10**3, 10**6)
DUAL_PATH_RATIO = 2  # use the dual path when rows >= 2x variables


def _highs(p: LpProblem):
    """HiGHS's float solve of p: (None, x, row duals in the sign convention
    of LpOptimum.dual) at an optimum, else (the fallback reason, None, None)."""
    # Imported here: scipy.optimize costs more to import than the package.
    import numpy as np
    from scipy import sparse
    from scipy.optimize import linprog

    n, m = p.num_vars, len(p.constraints)
    if n == 0:  # linprog rejects an empty c; x = [], y = 0 is the only candidate
        return None, [], [0.0] * m
    try:
        c = np.array([float(p.objective.get(j, 0)) for j in range(n)])
        val = [float(v) for row, _, _ in p.constraints for v in row.values()]
        b = np.array([float(r) for _, _, r in p.constraints])
    except OverflowError:
        return "float-overflow", None, None
    ptr, idx = [0], []
    for row, _, _ in p.constraints:
        idx.extend(row)
        ptr.append(len(idx))
    a = sparse.csr_array((val, idx, ptr), shape=(m, n))
    rel = np.array([r for _, r, _ in p.constraints])
    # ">=" rows enter A_ub negated; their duals come back negated too.
    sign = np.where(rel == ">=", -1.0, 1.0)
    ub, eq = np.flatnonzero(rel != "=="), np.flatnonzero(rel == "==")
    res = linprog(
        c, A_ub=sparse.diags_array(sign[ub]) @ a[ub], b_ub=sign[ub] * b[ub],
        A_eq=a[eq], b_eq=b[eq], bounds=(0, None), method="highs",
    )
    if res.status != 0:
        return f"highs-status-{res.status}", None, None
    y = np.zeros(m)
    y[ub] = sign[ub] * res.ineqlin.marginals
    y[eq] = res.eqlin.marginals
    return None, res.x.tolist(), y.tolist()


def _round(values, bound: int) -> list[Fraction]:
    return [Fraction(v).limit_denominator(bound) if v else F0 for v in values]


def solve_min(p: LpProblem, bland: bool = False) -> LpOptimum:
    """Exact optimum of the minimization problem.  An optimum is returned
    only with an x and a dual that pass certified_value."""
    for row, _, _ in p.constraints:
        if any(not 0 <= j < p.num_vars for j in row):
            raise ValueError("constraint references an unknown variable")
    fallback, xf, yf = _highs(p)
    if fallback is None:
        for bound in ROUNDING_BOUNDS:
            x, y = _round(xf, bound), _round(yf, bound)
            value = certified_value(p, x, y)
            if value is not None:
                return LpOptimum("optimal", value, x, y, "rounded")
        fallback = "rounding-rejected"
    opt = None
    if len(p.constraints) >= DUAL_PATH_RATIO * p.num_vars:
        opt = _dual_path(p, bland)
        method = "dual-simplex"
    if opt is None:
        opt = _primal_two_phase(p, bland)
        method = "primal-simplex"
    opt.method, opt.fallback = method, fallback
    if opt.status == "optimal" and certified_value(p, opt.x, opt.dual) != opt.value:
        raise AssertionError("exact simplex returned an optimum that fails its certificate")
    return opt
