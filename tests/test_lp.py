import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from lp_reference import dual_simplex
from scipy.optimize import linprog

from icbounds import combinatorial, families
from icbounds import lp as lpmod
from icbounds.hierarchy import build_hierarchy_lp
from icbounds.instance import CapExceeded, from_graph
from icbounds.lp import LpProblem, Uncertified, certified_value, check_feasible, solve_min

F = Fraction


def objective_value(p, x):
    """c'x by plain Fraction arithmetic."""
    return sum((c * x[j] for j, c in p.objective.items()), F(0))


def small_lp():
    # min x0 + x1  s.t. x0 + 2 x1 >= 4, 3 x0 + x1 >= 6
    p = LpProblem(2, {0: F(1), 1: F(1)})
    p.add({0: F(1), 1: F(2)}, 4)
    p.add({0: F(3), 1: F(1)}, 6)
    return p


def test_small_optimum():
    opt = solve_min(small_lp())
    assert opt.status == "optimal"
    assert opt.value == F(14, 5)
    assert opt.x == [F(8, 5), F(6, 5)]
    assert opt.method == "rounded"


def test_dual_certificate():
    p = small_lp()
    opt = solve_min(p)
    assert opt.dual is not None
    # weak duality at equality: y'b == c'x with valid signs
    assert sum(y * rhs for y, (_, rhs) in zip(opt.dual, p.constraints)) == opt.value
    assert all(y >= 0 for y in opt.dual)


def test_infeasible_lp_is_refused(monkeypatch):
    # an LP with no optimum raises Uncertified, named by HiGHS's status;
    # so does an optimal LP for which HiGHS reports either status that
    # infeasibility ends in
    from scipy.optimize._highspy._core import HighsModelStatus

    p = LpProblem(1, {0: F(1)})
    p.add({0: F(-1)}, 1)
    assert dual_simplex(p).status == "infeasible"
    with pytest.raises(Uncertified, match="model status 'Infeasible'"):
        solve_min(p)
    for status, name in ((HighsModelStatus.kInfeasible, "Infeasible"),
                         (HighsModelStatus.kUnboundedOrInfeasible, "Primal infeasible or unbounded")):
        _tamper(monkeypatch, getModelStatus=lambda highs: status)
        with pytest.raises(Uncertified, match=f"model status '{name}'"):
            solve_min(small_lp())


def test_rejects_negative_cost_and_unknown_variable():
    p = LpProblem(2, {0: F(1), 1: F(-1)})
    p.add({0: F(1)}, 0)
    with pytest.raises(ValueError, match="negative"):
        solve_min(p)
    p = LpProblem(1, {0: F(1)})
    p.add({1: F(1)}, 0)
    with pytest.raises(ValueError, match="unknown variable"):
        solve_min(p)
    p = LpProblem(1, {0: F(1), 3: F(1)})
    p.add({0: F(1)}, 1)
    with pytest.raises(ValueError, match="unknown variable"):
        solve_min(p)


def test_degenerate_cycling_guard(monkeypatch):
    # the covering LP whose dual is Beale's example, on which Dantzig's rule
    # cycles; the reference simplex's Bland rule ends.  The optimum is
    # 1/20 = x_2, so no rounding to integers can certify it, and the exact
    # solution of HiGHS's basis answers at the reference's value.
    monkeypatch.setattr(lpmod, "ROUNDING_BOUND", 1)
    _one_run_each(monkeypatch)
    p = LpProblem(3, {2: F(1)})
    p.add({0: F(1, 4), 1: F(1, 2)}, F(3, 4))
    p.add({0: F(-60), 1: F(-90)}, -150)
    p.add({0: F(-1, 25), 1: F(-1, 50), 2: F(1)}, F(1, 50))
    p.add({0: F(9), 1: F(3)}, -6)
    opt = solve_min(p)
    assert (opt.status, opt.method) == ("optimal", "basis")
    assert opt.value == F(1, 20) == dual_simplex(p).value
    _assert_certificate(p, opt)


def test_check_feasible_reports_rows():
    p = small_lp()
    assert check_feasible(p, [F(0), F(0)]) == [0, 1]
    assert check_feasible(p, [F(8, 5), F(6, 5)]) == []
    assert check_feasible(p, [F(-1), F(10)]) == [-1]
    assert objective_value(p, [F(2), F(1)]) == 3


def test_certificate_rejects_each_failed_check():
    # min x0  s.t.  x0 >= 1, -x0 >= -3: optimum 1 with duals (1, 0)
    p = LpProblem(1, {0: F(1)})
    p.add({0: F(1)}, 1)
    p.add({0: F(-1)}, -3)
    assert certified_value(p, [F(1)], [F(1), F(0)]) == 1
    assert certified_value(p, [F(0)], [F(0), F(0)]) is None  # x violates a row
    assert certified_value(p, [F(3)], [F(0), F(-1)]) is None  # y < 0 on a row
    assert certified_value(p, [F(2)], [F(2), F(0)]) is None  # reduced cost 1 - 2 < 0
    assert certified_value(p, [F(3)], [F(1), F(0)]) is None  # c'x = 3 != 1 = b'y
    with pytest.raises(ValueError, match="one value per row"):
        certified_value(p, [F(1)], [F(1)])


def _random_lp(rng, n, m):
    # covering form with c >= 0; coefficients and rhs of either sign, so
    # both optima and infeasible LPs occur
    p = LpProblem(n, {j: F(rng.randint(0, 5)) for j in range(n)})
    for _ in range(m):
        row = {j: F(rng.randint(-4, 4)) for j in rng.sample(range(n), rng.randint(1, n))}
        p.add(row, rng.randint(-5, 8))
    return p


def _random_lps(seed, count=200):
    rng = random.Random(seed)
    return [_random_lp(rng, rng.randint(2, 6), rng.randint(1, 8)) for _ in range(count)]


def _scipy_status(p):
    a = np.zeros((len(p.constraints), p.num_vars))
    for i, (row, _) in enumerate(p.constraints):
        for j, v in row.items():
            a[i, j] = float(v)
    b = np.array([float(rhs) for _, rhs in p.constraints])
    c = np.zeros(p.num_vars)
    for j, v in p.objective.items():
        c[j] = float(v)
    return linprog(c, A_ub=-a, b_ub=-b, bounds=(0, None), method="highs")


def test_random_lps_match_scipy():
    outcomes = Counter()
    for p in _random_lps(7):
        res = _scipy_status(p)
        if res.status == 2:  # infeasible
            _assert_refused(p)
            outcomes["infeasible"] += 1
            continue
        opt = solve_min(p)
        assert res.status == 0
        assert abs(float(opt.value) - res.fun) < 1e-6
        assert check_feasible(p, opt.x) == []
        outcomes[opt.status] += 1
    # the sampler should hit both outcomes often
    assert outcomes["optimal"] > 50 and outcomes["infeasible"] > 10


def _assert_certificate(p, opt):
    """x and the row duals prove each other optimal, checked densely."""
    x, y = opt.x, opt.dual
    assert len(x) == p.num_vars and len(y) == len(p.constraints)
    assert all(v >= 0 for v in x)
    reduced = [F(p.objective.get(j, 0)) for j in range(p.num_vars)]
    for (row, rhs), yi in zip(p.constraints, y):
        assert sum(c * x[j] for j, c in row.items()) >= rhs and yi >= 0
        for j, c in row.items():
            reduced[j] -= yi * c
    assert all(v >= 0 for v in reduced)
    assert opt.value == objective_value(p, x) == sum(yi * rhs for yi, (_, rhs) in zip(y, p.constraints))


def _assert_refused(p):
    """An LP with no optimum raises Uncertified."""
    with pytest.raises(Uncertified):
        solve_min(p)


def _without_rounding(monkeypatch):
    """Reject every rounded optimum, so that the exact basis answers."""
    monkeypatch.setattr(lpmod, "_rounded", lambda p, highs: None)
    _one_run_each(monkeypatch)


def _spy_runs(monkeypatch):
    """The number of variables of each LP HiGHS solves."""
    runs, run = [], lpmod._run

    def spy(highspy, highs, p):
        runs.append(p.num_vars)
        return run(highspy, highs, p)

    monkeypatch.setattr(lpmod, "_run", spy)
    return runs


def _one_run_each(monkeypatch):
    """From here on in the test, every solve_min call, answered or refused,
    must run HiGHS exactly once."""
    if solve_min is not lpmod.solve_min:
        return  # already installed
    runs = _spy_runs(monkeypatch)

    def once(p):
        before = len(runs)
        try:
            return lpmod.solve_min(p)
        finally:
            if len(runs) != before + 1:  # not an assert: CI also runs this file under python -O
                pytest.fail(f"{len(runs) - before} HiGHS runs in one solve_min")

    monkeypatch.setitem(globals(), "solve_min", once)


def test_rounded_path_matches_exact_simplex(monkeypatch):
    # the rounding, and then the basis with rounding forced off, against the
    # reference simplex; an infeasible LP is refused
    lps = _random_lps(21)
    refs = [dual_simplex(p) for p in lps]
    outcomes = Counter()
    for forced in (False, True):
        if forced:
            _without_rounding(monkeypatch)
        for p, ref in zip(lps, refs):
            if ref.status == "infeasible":
                _assert_refused(p)
                outcomes["infeasible"] += 1
                continue
            opt = solve_min(p)
            assert ref.value == opt.value
            _assert_certificate(p, ref)
            _assert_certificate(p, opt)
            outcomes[opt.method] += 1
    assert outcomes["rounded"] > 50 and outcomes["basis"] > 50 and outcomes["infeasible"] > 20


def test_cover_and_b2_lps_round_to_the_exact_optimum(monkeypatch):
    # 150 cover LPs (strong and weak, on seeded dense graphs) and 50 b2 LPs
    # (seeded 4-vertex graphs, and named families reduced by their
    # symmetry): HiGHS's rounding certifies every one, at the reference
    # simplex's value, and so does the exact basis with rounding forced off
    lps = []
    monkeypatch.setattr(combinatorial, "solve_min", lambda p: lps.append(p) or solve_min(p))
    rng = random.Random(11)
    for _ in range(75):
        g = families.complement(families.random_gnp(rng.randint(8, 14), rng.uniform(0.1, 0.5), rng))
        for kind in ("strong", "weak"):
            combinatorial.fractional_cover(from_graph(g), kind)
    for _ in range(40):
        lps.append(build_hierarchy_lp(from_graph(families.random_gnp(4, rng.random(), rng)), 2)[0])
    for name, params in [("cycle", {"n": 5}), ("cycle", {"n": 6}), ("cycle", {"n": 7}),
                         ("complement-cycle", {"n": 5}), ("complement-cycle", {"n": 6}),
                         ("complement-cycle", {"n": 7}), ("circulant", {"n": 6, "k": 2}),
                         ("circulant", {"n": 7, "k": 2}), ("cayley3", {"n": 6}), ("petersen", {})]:
        f = families.family(name, **params)
        lps.append(build_hierarchy_lp(f.instance, 2, f.symmetry)[0])
    assert len(lps) == 200
    refs = [dual_simplex(p).value for p in lps]
    assert [(o.method, o.value) for o in map(solve_min, lps)] == [("rounded", v) for v in refs]
    _without_rounding(monkeypatch)
    assert [(o.method, o.value) for o in map(solve_min, lps)] == [("basis", v) for v in refs]


def test_dual_path_certificate(monkeypatch):
    # covering LPs with nonnegative rows, more rows than variables: the
    # reference simplex and the basis give certified optima of one value
    _without_rounding(monkeypatch)
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        p = LpProblem(n, {j: F(rng.randint(0, 4)) for j in range(n)})
        for _ in range(2 * n + rng.randint(0, 3)):
            p.add({j: F(rng.randint(1, 3)) for j in rng.sample(range(n), rng.randint(1, n))},
                  rng.randint(0, 5))
        ref, opt = dual_simplex(p), solve_min(p)
        assert ref.status == "optimal" and (opt.method, opt.value) == ("basis", ref.value)
        _assert_certificate(p, ref)
        _assert_certificate(p, opt)


def test_basis_cap(monkeypatch):
    # with no rounding that certifies, the exact basis solve answers a basis
    # of BASIS_CAP columns and refuses one more before it eliminates
    monkeypatch.setattr(lpmod, "ROUNDING_BOUND", 1)
    _one_run_each(monkeypatch)
    for n in (lpmod.BASIS_CAP, lpmod.BASIS_CAP + 1):
        p = LpProblem(n, dict.fromkeys(range(n), 1))
        for j in range(n):
            p.add({j: 2}, 1)
        if n <= lpmod.BASIS_CAP:
            opt = solve_min(p)
            assert (opt.value, opt.method) == (F(n, 2), "basis")
            continue
        with pytest.raises(CapExceeded, match=f"lp-basis: needed {n}, limit {lpmod.BASIS_CAP}"):
            solve_min(p)


def test_rounding_rejected_falls_back_to_the_basis(monkeypatch):
    # the optimum's denominator exceeds the rounding bound: the rounded x is
    # 0, and the feasibility check rejects it
    _one_run_each(monkeypatch)
    assert 1_000_003 > lpmod.ROUNDING_BOUND
    p = LpProblem(1, {0: F(1)})
    p.add({0: F(1_000_003)}, 1)
    opt = solve_min(p)
    assert opt.value == F(1, 1_000_003)
    assert opt.method == "basis"
    _assert_certificate(p, opt)


def test_coefficients_beyond_float_range_fall_back():
    # HiGHS cannot take a value beyond the float range: a named cap
    p = LpProblem(1, {0: F(1)})
    p.add({0: F(1)}, 10**400)
    with pytest.raises(CapExceeded, match="highs-model: needed a value beyond the float range"):
        solve_min(p)
    assert certified_value(p, [F(10**400)], [F(1)]) == 10**400


def test_constraints_view():
    # a rational row is stored times the common denominator of its
    # coefficients, and so is its right-hand side
    p = LpProblem(3, {0: F(1)})
    p.add({0: 2, 2: F(0), 1: -1}, F(1, 3))
    p.add({1: F(1, 6), 2: F(1, 4)}, F(1, 2))
    p.add({}, -1)
    rows = p.constraints
    assert len(rows) == 3
    assert rows[0] == ({0: 2, 1: -1}, F(1, 3))  # the zero coefficient is dropped
    assert rows[-2] == ({1: 2, 2: 3}, 6)
    assert p.coefs.tolist() == [2, -1, 2, 3] and [rhs for _, rhs in rows] == [F(1, 3), 6, -1]
    assert list(rows) == [rows[0], rows[1], ({}, -1)]
    with pytest.raises(IndexError):
        rows[3]


def test_rejects_malformed_rows():
    p = small_lp()
    p.rhs_dens = p.rhs_dens * 0
    with pytest.raises(ValueError, match="denominators"):
        solve_min(p)
    p = small_lp()
    p.indptr = p.indptr[:-1]
    with pytest.raises(ValueError, match="number of rows"):
        solve_min(p)
    # a row naming a column twice, which HiGHS would refuse as a model
    p = LpProblem(2, {0: 1, 1: 1}, indptr=np.array([0, 2, 5]), indices=np.array([0, 1, 0, 0, 1]),
                  coefs=np.array([1, 1, 1, 2, 1]), rhs_nums=np.array([1, 2]), rhs_dens=np.array([1, 1]))
    with pytest.raises(ValueError, match="row 1 names variable 0 twice"):
        solve_min(p)


def test_ints_dtype_follows_the_bound():
    assert lpmod.ints([1, -2], lpmod.INT64_LIMIT - 1).dtype == np.int64
    big = lpmod.ints([1, -2], lpmod.INT64_LIMIT)
    assert big.dtype == object and type(big[0]) is int


def _fraction_violations(p, x, rows=None):
    """check_feasible by plain Fraction arithmetic over the rows (p's stored
    rows unless others are given)."""
    rows = p.constraints if rows is None else rows
    bad = [-1] if any(v < 0 for v in x) else []
    return bad + [i for i, (row, rhs) in enumerate(rows)
                  if sum((F(c) * x[j] for j, c in row.items()), F(0)) < rhs]


def _fraction_certifies(p, x, y, rows=None):
    """certified_value by plain Fraction arithmetic: the value, or None."""
    rows = p.constraints if rows is None else rows
    if _fraction_violations(p, x, rows) or any(v < 0 for v in y):
        return None
    reduced = [F(p.objective.get(j, 0)) for j in range(p.num_vars)]
    for (row, _), yi in zip(rows, y):
        for j, c in row.items():
            reduced[j] -= yi * c
    value = objective_value(p, x)
    ok = all(v >= 0 for v in reduced) and value == sum(yi * rhs for yi, (_, rhs) in zip(y, rows))
    return value if ok else None


def test_add_stores_rational_rows_as_integer_rows():
    # each row is stored times the common denominator s of its coefficients:
    # the same verdict on every x as the row as given, and the optimum
    # certifies the rows as given with the dual s y; an LP the reference
    # finds infeasible is refused
    rng = random.Random(17)
    outcomes = Counter()
    for _ in range(150):
        n = rng.randint(1, 5)
        given = [({j: F(rng.randint(-6, 6), rng.randint(1, 6)) for j in rng.sample(range(n), rng.randint(0, n))},
                  F(rng.randint(-8, 8), rng.randint(1, 6))) for _ in range(rng.randint(1, 6))]
        p = LpProblem(n, {j: F(rng.randint(0, 4), rng.randint(1, 3)) for j in range(n)})
        for row, rhs in given:
            p.add(row, rhs)
        scales = [math.lcm(*(c.denominator for c in row.values())) for row, _ in given]
        for (row, rhs), s, (stored, stored_rhs) in zip(given, scales, p.constraints):
            assert stored == {j: int(c * s) for j, c in row.items() if c} and stored_rhs == rhs * s
        for _ in range(20):
            x = [F(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(n)]
            verdict = check_feasible(p, x)
            assert verdict == _fraction_violations(p, x, given)
            outcomes["feasible" if not verdict else "violated"] += 1
        if dual_simplex(p).status == "infeasible":
            _assert_refused(p)
            outcomes["infeasible"] += 1
            continue
        opt = solve_min(p)
        assert opt.value == _fraction_certifies(p, opt.x, [s * y for s, y in zip(scales, opt.dual)], given)
        outcomes[opt.status, opt.method] += 1
    assert outcomes["feasible"] > 100 and outcomes["violated"] > 100
    assert outcomes["optimal", "rounded"] > 30 and outcomes["infeasible"] > 10


def _record_dtypes(monkeypatch):
    seen = set()
    real = lpmod.ints

    def ints(values, bound):
        out = real(values, bound)
        seen.add(out.dtype)
        return out

    monkeypatch.setattr(lpmod, "ints", ints)
    return seen


@pytest.mark.parametrize("denominator", [6, 10**15 + 37])
def test_checks_agree_with_fractions_in_both_dtypes(monkeypatch, denominator):
    # x and y on a denominator near 10**15 push the integer check beyond
    # int64, so it runs on Python ints; a small one keeps it in int64
    seen = _record_dtypes(monkeypatch)
    rng = random.Random(denominator % 1000)
    accepted = sparse_accepted = 0
    outcomes = Counter()
    for p in _random_lps(31, count=60):
        p.add({j: F(rng.randint(-9, 9), rng.randint(1, 4)) for j in range(p.num_vars)}, F(rng.randint(-9, 9), 7))
        x = [F(rng.randint(0, 3 * denominator), denominator) for _ in range(p.num_vars)]
        assert check_feasible(p, x) == _fraction_violations(p, x)
        if dual_simplex(p).status == "infeasible":
            _assert_refused(p)
            continue
        opt = solve_min(p)
        scaled = [v * denominator for v in opt.dual]
        # sparse duals: all but one row zeroed, one entry negative, and a
        # nonzero dual on a row the optimum does not use
        keep = rng.randrange(len(opt.dual))
        sparse = [v if i == keep else F(0) for i, v in enumerate(opt.dual)]
        negative = list(opt.dual)
        negative[keep] = -F(1, denominator)
        unrelated = list(opt.dual)
        idle = [i for i, v in enumerate(opt.dual) if not v]
        if idle:
            unrelated[rng.choice(idle)] = F(rng.randint(1, 5), denominator)
        for y in (opt.dual, [v + F(1, denominator) for v in opt.dual], [v / denominator for v in scaled],
                  sparse, negative, unrelated):
            assert certified_value(p, opt.x, y) == _fraction_certifies(p, opt.x, y)
            outcomes[certified_value(p, opt.x, y) is not None] += 1
        if certified_value(p, opt.x, opt.dual) is not None:
            accepted += 1
            sparse_accepted += not all(opt.dual)
    assert accepted > 10 and sparse_accepted > 5 and outcomes[False] > 40
    assert (np.dtype(object) in seen) == (denominator > 10**12)


def test_check_flags_a_row_missed_by_one_over_the_denominator(monkeypatch):
    # coefficients near 10**15 and x on a large denominator D: the integer
    # check runs on Python ints and still sees a shortfall of exactly 1/D
    seen = _record_dtypes(monkeypatch)
    d = 10**15 + 37
    x = [F(10**15 + 1, d), F(3, d)]
    p = LpProblem(2, {0: F(1), 1: F(1)})
    lhs = F(10**15 + 3) * x[0] - F(10**15) * x[1]
    p.add({0: 10**15 + 3, 1: -(10**15)}, lhs)
    p.add({0: 10**15 + 3, 1: -(10**15)}, lhs + F(1, d))
    p.add({0: 1}, x[0] - F(1, d))
    assert check_feasible(p, x) == _fraction_violations(p, x) == [1]
    assert np.dtype(object) in seen


def test_coefficients_beyond_int64():
    # the right-hand side is beyond HiGHS's range, a named cap; the checks
    # take the Python ints
    p = LpProblem(1, {0: F(1)})
    p.add({0: 10**20}, 3 * 10**20)
    assert p.coefs.dtype == object
    with pytest.raises(CapExceeded, match="highs-model: needed a right-hand side of 3e"):
        solve_min(p)
    assert certified_value(p, [F(3)], [F(1, 10**20)]) == 3
    assert certified_value(p, [F(3)], [F(1, 10**20) + F(1, 10**40)]) is None  # reduced cost below 0


def _record_models(monkeypatch):
    """(dense A, row lower bounds) of every model passed to this thread's
    HiGHS instance."""
    from scipy.optimize._highspy import _core

    seen = []

    class Recording:
        def __init__(self, highs):
            self._highs = highs

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def passModel(self, *model):
            (num_col, num_row, _, fmt, sense, _, _, col_lower, col_upper, row_lower, row_upper,
             start, index, value, integrality) = model
            assert fmt == _core.MatrixFormat.kRowwise and sense == _core.ObjSense.kMinimize
            assert np.all(col_lower == 0) and np.all(col_upper == _core.kHighsInf) and not np.any(integrality)
            assert np.all(row_upper == _core.kHighsInf)
            dense = np.zeros((num_row, num_col))
            for i in range(num_row):
                dense[i, index[start[i]:start[i + 1]]] = value[start[i]:start[i + 1]]
            seen.append((dense, np.asarray(row_lower)))
            return self._highs.passModel(*model)

    _, highs = lpmod._handle()
    monkeypatch.setattr(lpmod._local, "highs", Recording(highs))
    return seen


def test_huge_rows_fall_back_unscaled(monkeypatch):
    # HiGHS refuses a coefficient of 10^15, passed unscaled: a named cap.
    # The optimum the exact checks accept is (3, 5/2).
    seen = _record_models(monkeypatch)
    p = LpProblem(2, {0: F(1), 1: F(1)})
    p.add({0: 10**15}, 3 * 10**15)
    p.add({0: F(1, 2), 1: 1}, 4)
    with pytest.raises(CapExceeded, match="highs-model: needed a model HiGHS refuses"):
        solve_min(p)
    assert certified_value(p, [F(3), F(5, 2)], [F(1, 2 * 10**15), F(1, 2)]) == F(11, 2)
    assert seen[0][0].tolist() == [[10**15, 0], [1, 2]] and seen[0][1].tolist() == [3 * 10**15, 8]
    # a row of 2^20 reaches HiGHS as it is
    p = LpProblem(1, {0: F(1)})
    p.add({0: 2**20}, 1)
    assert solve_min(p).value == F(1, 2**20)
    assert seen[1][0].tolist() == [[2**20]]


def test_rhs_beyond_highs_infinite_bound_falls_back():
    # HiGHS reads a bound of 10^20 or more as infinite, so such an LP never
    # reaches it and a named cap is raised; 10^19 still rounds
    p = LpProblem(1, {0: F(1)})
    p.add({0: 1}, 10**25)
    with pytest.raises(CapExceeded, match="highs-model: needed a right-hand side of 1e"):
        solve_min(p)
    p = LpProblem(1, {0: F(1)})
    p.add({0: 1}, 10**19)
    opt = solve_min(p)
    assert (opt.value, opt.method) == (10**19, "rounded")
    _assert_certificate(p, opt)


def test_threads_solve_on_their_own_handles():
    # each thread passes its models to its own HiGHS instance: concurrent
    # solves give the serial answers (an optimum, or a refusal whose message
    # names why), and no two threads share an instance
    import threading

    def answer(p):
        try:
            o = solve_min(p)
        except Uncertified as e:
            return str(e)
        return o.value, o.x, o.dual, o.method

    lps = _random_lps(43, count=40)
    want = list(map(answer, lps))
    assert 10 < sum(isinstance(w, str) for w in want) < 30
    got, handles = {}, {}
    together = threading.Barrier(4, timeout=60)  # all four instances alive at once

    def work(k):
        handles[k] = id(lpmod._handle()[1])
        together.wait()
        for i in range(k, len(lps), 4):
            got[i] = answer(lps[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [got[i] for i in range(len(lps))] == want
    assert len(set(handles.values())) == 4 and id(lpmod._handle()[1]) not in handles.values()


def test_lp_without_variables():
    # HiGHS reports an empty model: every row reads 0 >= b_i, so the LP is
    # optimal at 0, or infeasible, and refused, when some b_i > 0
    p = LpProblem(0, {})
    p.add({}, 0)
    opt = solve_min(p)
    assert (opt.status, opt.value, opt.method) == ("optimal", 0, "rounded")
    p.add({}, 1)
    _assert_refused(p)


def test_an_empty_row_with_positive_rhs_is_refused():
    # with variables too, also when b_i is below HiGHS's tolerance
    for b in (F(1, 2), F(1, 10**30)):
        p = LpProblem(2, {0: 1})
        p.add({0: 1, 1: 1}, 1)
        p.add({}, b)
        p.add({}, 3)
        _assert_refused(p)


def test_infeasibility_within_highs_tolerance_is_refused():
    # x >= 1 and x <= 1 - 10^-12, which the reference simplex finds
    # infeasible: no certificate of an optimum exists, so the LP is refused
    p = LpProblem(1, {0: 1})
    p.add({0: 1}, 1)
    p.add({0: -1}, F(1, 10**12) - 1)
    assert dual_simplex(p).status == "infeasible"
    _assert_refused(p)


BASIS_FAILS = "the exact solution of HiGHS's basis fails its exact check"


def test_basis_optimal_within_highs_tolerance_is_refused(monkeypatch):
    # min x0 + (1 - 10^-12) x1 s.t. x0 + x1 >= 1: HiGHS's basis {x0} leaves
    # x1 a reduced cost of -10^-12, within its tolerance, so its exact
    # solution fails the reduced-cost check, and after one HiGHS run the
    # LP is refused, though the reference simplex finds x1 = 1 optimal
    runs = _spy_runs(monkeypatch)
    eps = F(1, 10**12)
    p = LpProblem(2, {0: 1, 1: 1 - eps})
    p.add({0: 1, 1: 1}, 1)
    with pytest.raises(Uncertified, match=BASIS_FAILS):
        solve_min(p)
    assert runs == [2]
    assert dual_simplex(p).value == 1 - eps


def _near_degenerate_lps(rng):
    """LPs whose data differ from ties or parallel rows by eps = 10^-6 ..
    10^-14: hand-written shapes, and random integer rows with perturbed
    copies and perturbed costs."""
    shapes = [
        lambda e: ([1, 1 - e], [({0: 1, 1: 1}, 1)]),
        lambda e: ([1, 1], [({0: 1, 1: 1}, 1), ({0: 1 - e, 1: 1 + e}, 1)]),
        lambda e: ([1], [({0: 1}, 1), ({0: -1}, e - 1)]),
        lambda e: ([1, 1, 1 - e], [({0: 1, 1: 1}, 1), ({1: 1, 2: 1}, 1), ({0: 1, 2: 1}, 1)]),
        lambda e: ([2, 1], [({0: 1, 1: 1}, 1), ({0: 1, 1: -1}, -e), ({0: -1, 1: 1}, -e)]),
        lambda e: ([1, 1], [({0: 1, 1: 2}, 2), ({0: 2, 1: 1 - e}, 2)]),
        lambda e: ([1, 1, 1], [({0: 1, 1: 1, 2: 1}, 1), ({0: 1 + e, 1: 1, 2: 1 - e}, 1),
                               ({0: 1, 1: 1 - e}, F(1, 2))]),
    ]
    lps = []
    for k in range(6, 15):
        for shape in shapes:
            costs, rows = shape(F(1, 10**k))
            lps.append(LpProblem(len(costs), dict(enumerate(costs))))
            for row, b in rows:
                lps[-1].add(row, b)
    for _ in range(150):
        n, m, e = rng.randint(2, 6), rng.randint(1, 6), F(1, 10**rng.randint(6, 14))
        p = LpProblem(n, {j: F(rng.randint(1, 5)) + (e if rng.random() < 0.3 else 0) for j in range(n)})
        for _ in range(m):
            row, b = {j: rng.randint(-2, 4) for j in rng.sample(range(n), rng.randint(1, n))}, rng.randint(-2, 5)
            p.add(row, b)
            if rng.random() < 0.6:
                p.add({j: v + rng.choice([e, -e, 0]) for j, v in row.items()}, b + rng.choice([e, -e, 0]))
        lps.append(p)
    return lps


def test_near_degenerate_lps_match_the_reference(monkeypatch):
    # with rounding forced off, the exact basis answers 121 of the 141
    # optimal LPs of the corpus at the reference simplex's value.  The
    # other 20 are optimal within HiGHS's tolerances but not exactly, so
    # the exact solution of its basis fails the check and the LP is
    # refused; every infeasible LP of the corpus is refused too
    _without_rounding(monkeypatch)
    lps = _near_degenerate_lps(random.Random(5))
    refused, methods = [], Counter()
    for i, p in enumerate(lps):
        ref = dual_simplex(p)
        if ref.status == "infeasible":
            _assert_refused(p)
            methods["infeasible"] += 1
            continue
        try:
            opt = solve_min(p)
        except Uncertified as e:
            assert str(e) == BASIS_FAILS
            refused.append(i)
            continue
        assert opt.value == ref.value
        _assert_certificate(p, opt)
        methods[opt.method] += 1
    # the first shape at eps = 10^-7 .. 10^-14, the second at every eps but
    # 10^-6 and 10^-8, and five random LPs
    assert refused == [7, 8, 14, 21, 22, 28, 29, 35, 36, 42, 43, 49, 50, 56, 57, 73, 90, 114, 162, 172]
    assert methods["basis"] > 100 and methods["infeasible"] > 30


def test_missing_binding_names_the_scipy_needed(monkeypatch):
    import scipy.optimize._highspy

    monkeypatch.delattr(scipy.optimize._highspy, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(ImportError, match=r"scipy >= 1\.17"):
        solve_min(small_lp())


def test_checks_scale_past_int64_with_zero_rhs_and_costs():
    # every rhs and cost is 0, so only the scale factors exceed int64
    p = LpProblem(2, {})
    p.add({0: 1, 1: -1}, 0)
    d = 10**30 + 1
    assert check_feasible(p, [F(1, d), F(2, d)]) == [0]
    assert certified_value(p, [F(2, d), F(1, d)], [F(0)]) == 0
    assert certified_value(p, [F(2, d), F(1, d)], [F(1, d)]) is None  # reduced cost -1/d


class _Tampered:
    """This thread's HiGHS instance with some answers replaced."""

    def __init__(self, highs, **answers):
        self._highs, self._answers = highs, answers

    def __getattr__(self, name):
        if name in self._answers:
            return lambda *args: self._answers[name](self._highs)
        return getattr(self._highs, name)


def _tamper(monkeypatch, **answers):
    _one_run_each(monkeypatch)
    _, highs = lpmod._handle()
    monkeypatch.setattr(lpmod._local, "highs", _Tampered(highs, **answers))


def _swapped_basis(highs):
    # x1 leaves the basis and the first row's slack enters: x = (2, 0),
    # which violates x0 + 2 x1 >= 4
    from scipy.optimize._highspy._core import HighsBasisStatus

    basis = highs.getBasis()
    basis.col_status = [HighsBasisStatus.kBasic, HighsBasisStatus.kLower]
    basis.row_status = [HighsBasisStatus.kBasic, HighsBasisStatus.kLower]
    return basis


def _uneven_basis(highs):
    from scipy.optimize._highspy._core import HighsBasisStatus

    basis = highs.getBasis()
    basis.row_status = [HighsBasisStatus.kBasic, HighsBasisStatus.kBasic]
    return basis


@pytest.mark.parametrize("basis, message", [(_swapped_basis, "basis fails its exact check"),
                                            (_uneven_basis, "no square optimal basis")])
def test_tampered_basis_is_rejected(monkeypatch, basis, message):
    _without_rounding(monkeypatch)
    assert solve_min(small_lp()).method == "basis"
    _tamper(monkeypatch, getBasis=basis)
    with pytest.raises(Uncertified, match=message):
        solve_min(small_lp())


def test_explicit_zero_coefficients_stay_out_of_the_basis(monkeypatch):
    # CSR arrays may hold explicit zeros, which HiGHS accepts: the exact
    # basis solve skips them rather than pivot on one
    _without_rounding(monkeypatch)
    p = LpProblem(2, {0: 1, 1: 1}, indptr=np.array([0, 2, 4]), indices=np.array([0, 1, 0, 1]),
                  coefs=np.array([0, 2, 3, 0]), rhs_nums=np.array([4, 6]), rhs_dens=np.array([1, 1]))
    opt = solve_min(p)
    assert (opt.value, opt.x, opt.dual, opt.method) == (4, [2, 2], [F(1, 2), F(1, 3)], "basis")
    _assert_certificate(p, opt)


def test_unknown_highs_status_is_rejected(monkeypatch):
    from scipy.optimize._highspy._core import HighsModelStatus

    _tamper(monkeypatch, getModelStatus=lambda highs: HighsModelStatus.kTimeLimit)
    with pytest.raises(Uncertified, match="model status 'Time limit reached'"):
        solve_min(small_lp())


def test_singular_system_is_rejected():
    assert lpmod._solve_square([{0: 1, 1: 2}, {0: 3, 1: 4}], [5, 6]) == [-4, F(9, 2)]
    with pytest.raises(Uncertified, match="singular"):
        lpmod._solve_square([{0: 1, 1: 2}, {0: 2, 1: 4}], [1, 2])


def test_this_modules_asserts_survive_python_O():
    # pytest rewrites a test module's asserts into explicit raises, which
    # python -O keeps (CI runs this file under -O); modules it does not
    # rewrite, such as tests/*_reference.py, lose theirs.
    one = 1
    with pytest.raises(AssertionError):
        assert one == 2
