import random
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from icbounds import lp as lpmod
from icbounds.lp import LpProblem, certified_value, check_feasible, objective_value, solve_min

F = Fraction


def small_lp():
    # min x0 + x1  s.t. x0 + 2 x1 >= 4, 3 x0 + x1 >= 6
    p = LpProblem(2, {0: F(1), 1: F(1)})
    p.add({0: F(1), 1: F(2)}, ">=", 4)
    p.add({0: F(3), 1: F(1)}, ">=", 6)
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
    assert sum(y * rhs for y, (_, _, rhs) in zip(opt.dual, p.constraints)) == opt.value
    assert all(y >= 0 for y in opt.dual)


def test_infeasible_and_unbounded():
    # HiGHS finds no optimum, so the exact simplex decides the status
    p = LpProblem(1, {0: F(1)})
    p.add({0: F(1)}, "<=", -1)
    opt = solve_min(p)
    assert (opt.status, opt.fallback) == ("infeasible", "highs-status-2")
    p = LpProblem(1, {0: F(-1)})
    p.add({0: F(1)}, ">=", 0)
    opt = solve_min(p)
    assert (opt.status, opt.fallback) == ("unbounded", "highs-status-3")
    assert opt.method == "primal-simplex"


def test_equality_rows():
    p = LpProblem(2, {0: F(1), 1: F(3)})
    p.add({0: F(1), 1: F(1)}, "==", 5)
    p.add({0: F(1)}, "<=", 2)
    opt = solve_min(p)
    assert opt.value == F(2 + 3 * 3)


def test_degenerate_cycling_guard():
    # classic Beale-style degenerate LP; must terminate via the Bland switch
    p = LpProblem(4, {0: F(-3, 4), 1: F(150), 2: F(-1, 50), 3: F(6)})
    p.add({0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)}, "<=", 0)
    p.add({0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)}, "<=", 0)
    p.add({2: F(1)}, "<=", 1)
    opt = solve_min(p)
    assert opt.status == "optimal"
    assert opt.value == F(-1, 20)
    opt_b = solve_min(p, bland=True)
    assert opt_b.value == opt.value


def test_check_feasible_reports_rows():
    p = small_lp()
    assert check_feasible(p, [F(0), F(0)]) == [0, 1]
    assert check_feasible(p, [F(8, 5), F(6, 5)]) == []
    assert objective_value(p, [F(2), F(1)]) == 3


def test_certificate_rejects_each_failed_check():
    # min x0  s.t.  x0 >= 1, x0 <= 3: optimum 1 with duals (1, 0)
    p = LpProblem(1, {0: F(1)})
    p.add({0: F(1)}, ">=", 1)
    p.add({0: F(1)}, "<=", 3)
    assert certified_value(p, [F(1)], [F(1), F(0)]) == 1
    assert certified_value(p, [F(0)], [F(0), F(0)]) is None  # x violates a row
    assert certified_value(p, [F(3)], [F(0), F(1)]) is None  # y > 0 on a "<=" row
    assert certified_value(p, [F(1)], [F(2), F(0)]) is None  # reduced cost 1 - 2 < 0
    assert certified_value(p, [F(3)], [F(1), F(0)]) is None  # c'x = 3 != 1 = b'y


def _random_lp(rng, n, m):
    p = LpProblem(n, {j: F(rng.randint(-1, 5)) for j in range(n)})
    for _ in range(m):
        row = {j: F(rng.randint(-4, 4)) for j in rng.sample(range(n), rng.randint(1, n))}
        row = {j: c for j, c in row.items() if c}
        if not row:
            continue
        p.add(row, rng.choice([">=", "<=", "=="]), rng.randint(-5, 8))
    return p


def _scipy_status(p):
    c = np.zeros(p.num_vars)
    for j, v in p.objective.items():
        c[j] = float(v)
    aub, bub, aeq, beq = [], [], [], []
    for crow, rel, rhs in p.constraints:
        row = [0.0] * p.num_vars
        for j, v in crow.items():
            row[j] = float(v)
        if rel == "==":
            aeq.append(row), beq.append(float(rhs))
        elif rel == "<=":
            aub.append(row), bub.append(float(rhs))
        else:
            aub.append([-x for x in row]), bub.append(-float(rhs))
    res = linprog(
        c, A_ub=aub or None, b_ub=bub or None, A_eq=aeq or None, b_eq=beq or None,
        bounds=(0, None), method="highs",
    )
    return res


def test_random_lps_match_scipy():
    rng = random.Random(7)
    agree = 0
    for _ in range(120):
        p = _random_lp(rng, rng.randint(2, 6), rng.randint(1, 8))
        opt = solve_min(p)
        res = _scipy_status(p)
        if opt.status == "optimal":
            assert res.status == 0
            assert abs(float(opt.value) - res.fun) < 1e-6
            assert check_feasible(p, opt.x) == []
            agree += 1
        elif opt.status == "infeasible":
            assert res.status == 2
        else:
            assert res.status == 3
    assert agree > 30  # the sampler should hit plenty of bounded problems


def test_coefficients_beyond_float_range_fall_back():
    p = LpProblem(1, {0: F(1)})
    p.add({0: F(1)}, ">=", 10**400)
    opt = solve_min(p)
    assert opt.value == 10**400
    assert (opt.method, opt.fallback) == ("primal-simplex", "float-overflow")


def _assert_certificate(p, opt):
    """x and the row duals prove each other optimal, checked densely."""
    x, y = opt.x, opt.dual
    assert len(x) == p.num_vars and len(y) == len(p.constraints)
    assert all(v >= 0 for v in x)
    reduced = [F(p.objective.get(j, 0)) for j in range(p.num_vars)]
    for (row, rel, rhs), yi in zip(p.constraints, y):
        lhs = sum(c * x[j] for j, c in row.items())
        assert {">=": lhs >= rhs and yi >= 0, "<=": lhs <= rhs and yi <= 0, "==": lhs == rhs}[rel]
        for j, c in row.items():
            reduced[j] -= yi * c
    assert all(v >= 0 for v in reduced)
    assert opt.value == objective_value(p, x) == sum(yi * rhs for yi, (_, _, rhs) in zip(y, p.constraints))


def test_rounded_path_matches_exact_simplex():
    rng = random.Random(21)
    rounded = 0
    for _ in range(120):
        p = _random_lp(rng, rng.randint(2, 6), rng.randint(2, 9))
        opt = solve_min(p)
        for ref in (lpmod._primal_two_phase(p, False), lpmod._dual_path(p, False)):
            if ref is None:  # the dual path does not fit this shape
                continue
            assert ref.status == opt.status
            if ref.status == "optimal":
                assert ref.value == opt.value
                _assert_certificate(p, ref)
        if opt.status == "optimal":
            _assert_certificate(p, opt)
            rounded += opt.method == "rounded"
    assert rounded > 20  # bounded LPs are rare in this sampler


def test_dual_path_certificate():
    # covering shape (c >= 0, rows ">=", rows >= 2x vars) solved by the dual path
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        p = LpProblem(n, {j: F(rng.randint(0, 4)) for j in range(n)})
        for _ in range(2 * n + rng.randint(0, 3)):
            p.add({j: F(rng.randint(1, 3)) for j in rng.sample(range(n), rng.randint(1, n))},
                  ">=", rng.randint(0, 5))
        opt = lpmod._dual_path(p, False)
        assert opt.status == "optimal" and opt.value == solve_min(p).value
        _assert_certificate(p, opt)


def test_rounding_rejected_falls_back_to_exact_simplex():
    # the optimum's denominator exceeds every rounding bound: rounding to 10**6
    # gives the feasible x = 10**-6, and the reduced-cost check rejects it
    assert 1_000_003 > max(lpmod.ROUNDING_BOUNDS)
    p = LpProblem(1, {0: F(1)})
    p.add({0: F(1_000_003)}, ">=", 1)
    opt = solve_min(p)
    assert opt.value == F(1, 1_000_003)
    assert (opt.method, opt.fallback) == ("primal-simplex", "rounding-rejected")
    _assert_certificate(p, opt)


def test_dump_roundtrips_visually():
    text = small_lp().dump()
    assert ">=" in text and "4" in text
