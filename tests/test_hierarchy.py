import hashlib
import json
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hierarchy_reference import (
    alpha_feasible_vector,
    compose_coverage,
    decompose_coverage,
    reference_lp,
    verify_hierarchy_membership,
)
from hierarchy_reference import subset_orbits as reference_orbits

from icbounds.combinatorial import alpha_exact, fractional_cover
from icbounds.families import (
    circulant,
    cycle,
    family,
    random_gnp,
    random_instance,
    shift_perm,
    tri3,
)
from icbounds.hierarchy import (
    MAX_LP_VARS,
    build_hierarchy_lp,
    solve_bk,
    subset_orbits,
    validate_symmetry,
)
from icbounds.instance import CapExceeded, Graph, Instance, Receiver, disjoint_union, from_graph
from icbounds.lp import LpProblem, _primal_value, solve_min

F = Fraction


def test_b2_c5():
    b = solve_bk(from_graph(cycle(5)), 2)
    assert b.value == F(5, 2)
    assert b.x[b.var_of_mask[0]] == F(5, 2)  # X(empty) carries the objective


def test_tri3_levels():
    inst = tri3()
    assert solve_bk(inst, 2).value == 2
    assert solve_bk(inst, 3).value == 3


def test_subset_orbits_permute_bits():
    # perm [1, 2, 0] sends 0b001 to 0b010 and 0b101 to 0b011
    rep = subset_orbits(3, [[1, 2, 0]])
    assert rep.tolist() == [0, 1, 1, 3, 1, 3, 3, 7]


def test_validate_symmetry():
    inst = from_graph(cycle(5))
    assert validate_symmetry(inst, [shift_perm(5)]) == []
    assert validate_symmetry(inst, [[1, 0, 2, 3, 4]])  # swap is not an automorphism


def test_subset_orbits_cyclic():
    rep = subset_orbits(4, [shift_perm(4)])
    # orbit count of subsets of Z4 under rotation: 1+1+2+1+1 = 6
    assert len(set(rep)) == 6


def test_symmetry_reduction_matches_full_on_circulants():
    # exhaustive over the circulants that exist at n <= 8
    cases = [(n, 1) for n in range(4, 9)] + [(7, 2), (8, 2)]
    for n, k in cases:
        inst = from_graph(circulant(n, k))
        full = solve_bk(inst, 2)
        red = solve_bk(inst, 2, sym=[shift_perm(n)])
        assert red.value == full.value
        assert red.variables < full.variables


def test_b1_equals_alpha_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 7)
        g = random_gnp(n, rng.random(), rng)
        inst = from_graph(g)
        a, _ = alpha_exact(inst)
        assert solve_bk(inst, 1).value == a


def test_bn_equals_strong_cover_random():
    # the identity needs every message wanted by at least one receiver
    rng = random.Random(12)
    done = 0
    while done < 200:
        n = rng.randrange(2, 6)
        inst = random_instance(n, rng.randrange(n, 2 * n + 1), rng)
        if {r.wants for r in inst.receivers} != set(range(n)):
            continue
        done += 1
        bn = solve_bk(inst, n).value
        assert bn == fractional_cover(inst, "strong").total


def test_monotone_chain():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(2, 6)
        inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        vals = [solve_bk(inst, k).value for k in range(1, n + 1)]
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))


def _unreduced_lp(inst, k):
    """The unreduced level-k LP, row by row from the reference."""
    rows, objective, num_vars, _, _ = reference_lp(inst, k, reduced=False)
    p = LpProblem(num_vars, objective)
    for row, rhs in rows:
        p.add(row, rhs)
    return p


def test_reduced_equals_unreduced():
    rng = random.Random(14)
    for i in range(200):
        n = rng.randrange(2, 5)
        inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        if i % 2:
            den = rng.randrange(1, 13)
            rates = tuple(F(rng.randint(1, den), den) for _ in range(n))
            inst = Instance(n, inst.receivers, rates)
        k = rng.randrange(1, n + 1)
        p_red, _ = build_hierarchy_lp(inst, k)
        assert solve_min(p_red).value == solve_min(_unreduced_lp(inst, k)).value


def _assert_same_lp(inst, k, sym=None):
    rows, objective, num_vars, counts, var_of_mask = reference_lp(inst, k, sym)
    p, meta = build_hierarchy_lp(inst, k, sym)
    assert list(p.constraints) == rows
    assert p.objective == objective and p.num_vars == num_vars
    assert list(meta.counts.items()) == list(counts.items())
    assert meta.var_of_mask.tolist() == var_of_mask


def test_build_matches_reference_on_random_instances():
    # the array build against the loop builder, row for row and in order
    rng = random.Random(17)
    for i in range(320):
        n = rng.randrange(1, 7)
        inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        if i % 2:
            den = rng.randrange(1, 13)
            rates = tuple(F(rng.randint(1, den), den) for _ in range(n))
            inst = Instance(n, inst.receivers, rates)
        k = rng.randrange(1, n + 1)
        _assert_same_lp(inst, k)


def _reflection(n):
    return [-v % n for v in range(n)]


def test_build_matches_reference_with_symmetry():
    # circulants under the shift and under shift + reflection, then two
    # families' own generators at level 3
    for n in range(4, 11):
        for c in [c for c in (1, 2, 3) if c < (n - 1) / 2]:
            inst = from_graph(circulant(n, c))
            for sym in ([shift_perm(n)], [shift_perm(n), _reflection(n)]):
                assert subset_orbits(n, sym).tolist() == reference_orbits(n, sym)[0]
                for k in range(1, 4 if n < 10 else 3):
                    _assert_same_lp(inst, k, sym)
    for name, params in (("petersen", {}), ("cayley3", {"n": 8})):
        f = family(name, **params)
        _assert_same_lp(f.instance, 3, f.symmetry)


def _closed_under(inst, perm, rng):
    """inst with its receivers closed under perm and, half the time, random
    rates constant on perm's cycles."""
    recs = set(inst.receivers)
    todo = list(recs)
    while todo:
        r = todo.pop()
        image = Receiver(perm[r.wants], frozenset(perm[v] for v in r.knows))
        if image not in recs:
            recs.add(image)
            todo.append(image)
    recs = tuple(sorted(recs, key=lambda r: (r.wants, sorted(r.knows))))
    if rng.random() < 0.5:
        return Instance(inst.n, recs)
    rates = [None] * inst.n
    for v in range(inst.n):
        if rates[v] is None:
            rate, u = F(rng.randint(1, 6), rng.randint(1, 4)), v
            while rates[u] is None:
                rates[u], u = rate, perm[u]
    return Instance(inst.n, recs, tuple(rates))


def test_build_matches_reference_under_random_automorphisms():
    # non-unicast instances closed under a random permutation, reduced by 1-3
    # generators drawn from all their automorphisms: the decode rows of a
    # skipped orbit member rest on the closure step commuting with each one
    rng = random.Random(36)
    for _ in range(400):
        n = rng.randrange(2, 7)
        perm = rng.sample(range(n), n)
        inst = _closed_under(random_instance(n, rng.randrange(1, n + 2), rng), perm, rng)
        autos = [list(q) for q in permutations(range(n)) if not validate_symmetry(inst, [list(q)])]
        assert perm in autos
        sym = rng.sample(autos, min(len(autos), rng.randint(1, 3)))
        for k in range(1, min(n, 3) + 1):
            _assert_same_lp(inst, k, sym)


def _assert_lifts_to_the_unreduced_lp(inst, k, sym=None):
    # The optimum over closure classes, lifted to every mask by var_of_mask,
    # is feasible for the unreduced LP over all 2^n masks, with the same
    # value there, and that LP certifies the same b_k.
    b = solve_bk(inst, k, sym)
    unreduced = _unreduced_lp(inst, k)
    assert unreduced.num_vars == 1 << inst.n
    lifted = [b.x[j] for j in b.var_of_mask.tolist()]
    assert _primal_value(unreduced, lifted) == b.value == lifted[0]
    assert solve_min(unreduced).value == b.value


def _graph_closed_under(n, perm, rng):
    """A random graph on n vertices with its edges closed under perm."""
    edges = {frozenset(e) for e in random_gnp(n, rng.random(), rng).edge_list()}
    while (more := edges | {frozenset(perm[v] for v in e) for e in edges}) != edges:
        edges = more
    return Graph(n, frozenset(edges))


def test_optimum_over_closure_classes_lifts_to_the_unreduced_lp():
    # graph, non-unicast and weighted instances, each without a group and
    # with 1-3 of its automorphisms, all levels drawn at random
    rng = random.Random(42)
    for i in range(120):
        n = rng.randrange(1, 7)
        kind = i % 3
        perm = rng.sample(range(n), n) if i % 2 else list(range(n))
        if kind == 0:
            inst = from_graph(_graph_closed_under(n, perm, rng))
        else:
            inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        sym = None
        if i % 2:
            inst = _closed_under(inst, perm, rng)
            autos = [list(q) for q in permutations(range(n)) if not validate_symmetry(inst, [list(q)])]
            sym = rng.sample(autos, min(len(autos), rng.randint(1, 3)))
        elif kind == 2:
            den = rng.randrange(1, 13)
            inst = Instance(n, inst.receivers, tuple(F(rng.randint(1, den), den) for _ in range(n)))
        _assert_lifts_to_the_unreduced_lp(inst, rng.randrange(1, n + 1), sym)


def test_a_receiver_that_knows_nothing_closes_the_empty_set():
    # The chain 0 -> 1 -> 2 decodes everything from nothing: cl(empty) is
    # every message, the LP has one variable, and b_k is the total rate.
    rates = (F(1, 2), F(1, 3), F(2))
    chain = Instance(3, (Receiver(0, frozenset()), Receiver(1, frozenset({0})), Receiver(2, frozenset({1}))),
                     rates)
    for k in (1, 2, 3):
        b = solve_bk(chain, k)
        assert (b.variables, b.value) == (1, sum(rates))
        assert b.var_of_mask.tolist() == [0] * 8
        _assert_lifts_to_the_unreduced_lp(chain, k)
        _assert_same_lp(chain, k)
    # The same chain beside a 2-cycle that 2 and 4 do not decode: cl(empty)
    # = {0, 1, 2}, and X(empty) is the variable of that closed set.
    recs = chain.receivers + (Receiver(3, frozenset({4})), Receiver(4, frozenset({3, 2})))
    inst = Instance(5, recs, rates + (F(1), F(3, 4)))
    for k in range(1, 6):
        b = solve_bk(inst, k)
        assert b.var_of_mask[0] == b.var_of_mask[0b111] != b.var_of_mask[0b1111]
        assert b.x[b.var_of_mask[0]] == b.value
        _assert_lifts_to_the_unreduced_lp(inst, k)
        _assert_same_lp(inst, k)


# (n, under the shift, variables, rows, b2 or None, sha256) of C_n's b2 LP,
# beyond the tests' reach of the loop reference.  Recorded from the build
# over closure classes, after its rows, variables, objective and counts were
# checked equal to the loop reference's, in order, on all three (minutes of
# work).  The two LPs under the shift are solved, and certify b2 = n/2.
PINNED_B2_LPS = [
    (15, True, 312, 12479, F(15, 2), "afa7c3a20dd4569b78f7b8112cf13a6689c77ef2bdc75504d58810a546299ed4"),
    (16, True, 514, 23087, F(8), "4021e77fd3b489f7d89ca2db4a7975ad4af32362071c9918b8d28b8b079c4b9c"),
    (13, False, 1497, 48271, None, "e81b49ba98162b7a6765fefb9d18e4d77ec12caf3ed3a6c4f4df5043e9f2d29b"),
]


@pytest.mark.parametrize("n, shift, num_vars, num_rows, b2, digest", PINNED_B2_LPS,
                         ids=["C15-shift", "C16-shift", "C13-unreduced"])
def test_large_b2_lps_match_their_recorded_digests(n, shift, num_vars, num_rows, b2, digest):
    p, meta = build_hierarchy_lp(from_graph(cycle(n)), 2, [shift_perm(n)] if shift else None)
    assert (p.num_vars, p.num_rows) == (num_vars, num_rows)
    h = hashlib.sha256()
    for a in (p.indptr, p.indices, p.coefs, p.rhs_nums, p.rhs_dens):
        assert a.dtype == np.int64
        h.update(a.tobytes())
    h.update(json.dumps(meta.counts).encode())
    h.update(meta.var_of_mask.astype(np.int64).tobytes())
    assert h.hexdigest() == digest
    if b2 is not None:
        assert solve_min(p).value == b2


@pytest.mark.parametrize("graph, b2", [(cycle(14), 7), (cycle(15), F(15, 2)), (circulant(13, 2), F(13, 3))],
                         ids=["C14", "C15", "circulant-13-2"])
def test_b2_certifies_where_an_lp_over_all_subsets_passed_the_basis_cap(graph, b2):
    # Over every orbit of subsets these LPs under the shift have 1 182,
    # 2 192 and 632 variables, and when rounding failed their basis was
    # above BASIS_CAP (lp-basis); over closure classes they have 193, 312
    # and 431, and certify.
    n = graph.n
    assert solve_bk(from_graph(graph), 2, sym=[shift_perm(n)]).value == b2


HIERARCHY_B2_LPS = [
    ("cycle", {"n": 5}, True),
    ("complement-cycle", {"n": 5}, True),
    ("cycle", {"n": 8}, True),
    ("complement-cycle", {"n": 8}, True),
    ("circulant", {"n": 8, "k": 2}, True),
    ("cayley3", {"n": 8}, True),
    ("complement-cycle", {"n": 7}, True),
    ("circulant", {"n": 7, "k": 2}, True),
    ("petersen", {}, True),
    ("complement-cycle", {"n": 9}, True),
    ("cycle", {"n": 9}, False),  # 512 subsets; 158 variables, 2 783 rows
]


@pytest.mark.parametrize("name, params, with_symmetry", HIERARCHY_B2_LPS)
def test_family_b2_lps_certify_by_rounding(name, params, with_symmetry):
    f = family(name, **params)
    p, _ = build_hierarchy_lp(from_graph(f.graph), 2, f.symmetry if with_symmetry else None)
    opt = solve_min(p)
    assert opt.value == f.expected["b2"]
    assert opt.method == "rounded"


def test_b2_of_c5_lex_k2_without_symmetry():
    # C5[K2], the lexicographic product (vertex 2i + a, adjacent when the
    # C5 vertices are, or within one K2 block): its b2 LP without symmetry
    # is 884 x 19 407 over closure classes (the loop reference's shape),
    # and HiGHS's rounded optimum certifies b2 = 5/2
    edges = [(2 * i + a, 2 * j + b) for i in range(5) for j in range(5) for a in range(2) for b in range(2)
             if (j - i) % 5 in (0, 1) and 2 * i + a != 2 * j + b]
    p, _ = build_hierarchy_lp(from_graph(Graph.from_edge_list(10, edges)), 2)
    assert (p.num_vars, p.num_rows) == (884, 19407)
    opt = solve_min(p)
    assert (opt.value, opt.method) == (F(5, 2), "rounded")


@pytest.mark.parametrize("name, params, with_symmetry", HIERARCHY_B2_LPS)
def test_family_b2_lps_match_reference(name, params, with_symmetry):
    f = family(name, **params)
    _assert_same_lp(f.instance, 2, f.symmetry if with_symmetry else None)


def _slope_submod_ok(x, n):
    # unit-rate slope plus the alternating-sum inequalities of every order
    from itertools import combinations as combos

    full = (1 << n) - 1
    for s in range(1 << n):
        for v in range(n):
            if not s >> v & 1 and x[s | 1 << v] - x[s] > 1:
                return False
    for order in range(2, n + 1):
        for r_tuple in combos(range(n), order):
            rmask = sum(1 << v for v in r_tuple)
            rest = full & ~rmask
            z = rest
            while True:
                total = F(0)
                t_sub = rmask
                while True:
                    sign = (order - t_sub.bit_count()) & 1
                    total += x[t_sub | z] if sign else -x[t_sub | z]
                    if t_sub == 0:
                        break
                    t_sub = (t_sub - 1) & rmask
                if total < 0:
                    return False
                if z == 0:
                    break
                z = (z - 1) & rest
    return True


def test_coverage_roundtrip_and_both_directions():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randrange(2, 5)
        inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        top = solve_bk(inst, n)
        x = {m: top.x[j] for m, j in enumerate(top.var_of_mask.tolist())}
        # feasible => coverage form: nonnegative weights that recompose
        status, w = decompose_coverage(x, n)
        assert status == "ok"
        assert all(v >= 0 for v in w.values())
        assert compose_coverage(w, n) == x
        # coverage form => slope and all submodularity orders hold
        w2 = {m: F(rng.randrange(0, 3)) for m in range(1, 1 << n)}
        assert _slope_submod_ok(compose_coverage(w2, n), n)
        # a negative weight must surface as a violation
        w2[1 + rng.randrange((1 << n) - 1)] = F(-1)
        bad = decompose_coverage(compose_coverage(w2, n), n)
        assert bad[0] == "violation"


def test_alpha_vector_feasible():
    rng = random.Random(16)
    for _ in range(60):
        n = rng.randrange(2, 6)
        inst = from_graph(random_gnp(n, rng.random(), rng))
        x = alpha_feasible_vector(inst)
        assert verify_hierarchy_membership(x, inst, 1)
        a, _ = alpha_exact(inst)
        assert x[0] == a


def _slacks(x, rows):
    return [sum(c * x[m] for m, c in row.items()) - rhs for row, rhs in rows]


def test_membership_matches_the_unreduced_rows():
    # verify_hierarchy_membership checks the reduced rows; its verdict is
    # that of every unreduced row, on random rational vectors, on the alpha
    # vector and on a copy of it in which exactly one unreduced row breaks
    rng = random.Random(18)
    verdicts = {True: 0, False: 0}
    one_row_breaks = 0
    for i in range(60):
        n = rng.randrange(1, 6)
        if i % 2:
            inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        else:
            inst = from_graph(random_gnp(n, rng.random(), rng))
        k = rng.randrange(1, n + 1)
        rows = reference_lp(inst, k, reduced=False)[0]
        alpha = alpha_feasible_vector(inst)
        vectors = [alpha, {m: F(rng.randrange(0, 4 * n + 1), rng.randrange(1, 4))
                           for m in range(1 << n)}]
        # rows by mask, to count the broken rows after changing one X(S)
        slack = _slacks(alpha, rows)
        broken = sum(v < 0 for v in slack)
        touching = {m: [] for m in range(1 << n)}
        for r, (row, _) in enumerate(rows):
            for m, c in row.items():
                touching[m].append((r, c))

        def broken_after(m, delta):
            return broken + sum((slack[r] + c * delta < 0) - (slack[r] < 0) for r, c in touching[m])

        masks = list(range(1 << n))
        rng.shuffle(masks)
        deltas = (F(-1, 3), F(1, 3), F(-1), F(1))
        y = next(({**alpha, m: alpha[m] + d} for m in masks for d in deltas
                  if broken_after(m, d) == 1), None)
        if y is not None:
            vectors.append(y)
            one_row_breaks += 1
        for x in vectors:
            ok = verify_hierarchy_membership(x, inst, k)
            assert ok == all(v >= 0 for v in _slacks(x, rows))
            verdicts[ok] += 1
    assert verdicts[True] and verdicts[False] and one_row_breaks


def test_disjoint_union_additive():
    inst = from_graph(cycle(5))
    two = disjoint_union(inst, inst)
    # twice b2(C5) on the union's own (symmetry-reduced) LP
    from icbounds.families import block_shift_perm

    direct = solve_bk(two, 2, sym=[block_shift_perm(10, 5)])
    assert direct.value == 5


def test_solve_bk_rejects_bad_symmetry():
    inst = from_graph(cycle(5))
    with pytest.raises(ValueError):
        build_hierarchy_lp(inst, 2, sym=[[1, 0, 2, 3, 4]])


def test_builder_refuses_a_level_outside_1_to_n():
    inst = from_graph(cycle(5))
    for k in (0, 6):
        with pytest.raises(ValueError, match="level must be in 1..5"):
            build_hierarchy_lp(inst, k)


def test_builder_enforces_the_lp_vars_cap():
    inst = from_graph(cycle(5))  # 2^5 = 32 subsets
    with pytest.raises(CapExceeded, match="max-lp-vars: needed 32, limit 31"):
        build_hierarchy_lp(inst, 2, max_lp_vars=31)
    with pytest.raises(CapExceeded, match="max-lp-vars"):
        solve_bk(inst, 2, max_lp_vars=4)
    # the cap is on the 2^n subset arrays; the LP has one variable per
    # closed subset of C5, 17 of them (the loop reference's count)
    assert build_hierarchy_lp(inst, 2, max_lp_vars=32)[0].num_vars == 17
    # the default stops before the 2^17 arrays are allocated
    big = Instance(17, ())
    with pytest.raises(CapExceeded, match=f"needed {1 << 17}, limit {MAX_LP_VARS}"):
        build_hierarchy_lp(big, 1)
