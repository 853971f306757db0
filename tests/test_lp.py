import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from icbounds import lp as lpmod
from icbounds.lp import LpProblem, certified_value, check_feasible, objective_value, solve_min

F = Fraction


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
    assert (opt.method, opt.fallback) == ("rounded", None)


def test_dual_certificate():
    p = small_lp()
    opt = solve_min(p)
    assert opt.dual is not None
    # weak duality at equality: y'b == c'x with valid signs
    assert sum(y * rhs for y, (_, rhs) in zip(opt.dual, p.constraints)) == opt.value
    assert all(y >= 0 for y in opt.dual)


def test_infeasible_falls_back_to_exact_simplex():
    # HiGHS finds no optimum, so the exact simplex decides the status
    p = LpProblem(1, {0: F(1)})
    p.add({0: F(-1)}, 1)
    opt = solve_min(p)
    assert (opt.status, opt.method, opt.fallback) == ("infeasible", "simplex", "highs-status-2")


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
    # the covering LP whose dual is Beale's example: Dantzig's rule cycles on
    # it, so the exact simplex ends only through the switch to Bland's rule
    monkeypatch.setattr(lpmod, "ROUNDING_BOUNDS", ())
    p = LpProblem(3, {2: F(1)})
    p.add({0: F(1, 4), 1: F(1, 2)}, F(3, 4))
    p.add({0: F(-60), 1: F(-90)}, -150)
    p.add({0: F(-1, 25), 1: F(-1, 50), 2: F(1)}, F(1, 50))
    p.add({0: F(9), 1: F(3)}, -6)
    opt = solve_min(p)
    assert (opt.status, opt.method, opt.fallback) == ("optimal", "simplex", "rounding-rejected")
    assert opt.value == F(1, 20)
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
        opt = solve_min(p)
        res = _scipy_status(p)
        if opt.status == "optimal":
            assert res.status == 0
            assert abs(float(opt.value) - res.fun) < 1e-6
            assert check_feasible(p, opt.x) == []
        else:
            assert (opt.status, res.status) == ("infeasible", 2)
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


def test_rounded_path_matches_exact_simplex():
    outcomes = Counter()
    for p in _random_lps(21):
        opt = solve_min(p)
        ref = lpmod._dual_path(p)
        assert ref.status == opt.status
        if opt.status == "optimal":
            assert ref.value == opt.value
            _assert_certificate(p, ref)
            _assert_certificate(p, opt)
        outcomes[opt.method] += 1
    assert outcomes["rounded"] > 50 and outcomes["simplex"] > 10


def test_dual_path_certificate():
    # covering LPs with nonnegative rows, more rows than variables
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        p = LpProblem(n, {j: F(rng.randint(0, 4)) for j in range(n)})
        for _ in range(2 * n + rng.randint(0, 3)):
            p.add({j: F(rng.randint(1, 3)) for j in rng.sample(range(n), rng.randint(1, n))},
                  rng.randint(0, 5))
        opt = lpmod._dual_path(p)
        assert opt.status == "optimal" and opt.value == solve_min(p).value
        _assert_certificate(p, opt)


def test_rounding_rejected_falls_back_to_exact_simplex():
    # the optimum's denominator exceeds every rounding bound: rounding to 10**6
    # gives the feasible x = 10**-6, and the reduced-cost check rejects it
    assert 1_000_003 > max(lpmod.ROUNDING_BOUNDS)
    p = LpProblem(1, {0: F(1)})
    p.add({0: F(1_000_003)}, 1)
    opt = solve_min(p)
    assert opt.value == F(1, 1_000_003)
    assert (opt.method, opt.fallback) == ("simplex", "rounding-rejected")
    _assert_certificate(p, opt)


def test_coefficients_beyond_float_range_fall_back():
    p = LpProblem(1, {0: F(1)})
    p.add({0: F(1)}, 10**400)
    opt = solve_min(p)
    assert opt.value == 10**400
    assert (opt.method, opt.fallback) == ("simplex", "float-overflow")
