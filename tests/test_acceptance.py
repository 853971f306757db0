"""End-to-end value reproduction: one test per headline claim, each pinned to
its exact rational value and a wall-clock budget."""

import random
import time
from fractions import Fraction

from icbounds import codes
from icbounds.beta2 import decide_beta_eq_2, validate_aac
from icbounds.combinatorial import (
    alpha_exact,
    fractional_cover,
    rank_mod_p,
    representation_rank,
)
from icbounds.families import (
    aac_instance,
    cayley_3regular,
    chvatal,
    circulant,
    complement,
    cycle,
    family,
    groetzsch,
    oddtown_trianglefree,
    petersen,
    projective_hadamard,
    shift_perm,
    tri3,
)
from icbounds.hierarchy import solve_bk
from icbounds.instance import disjoint_union, from_graph
from icbounds.report import build_report

F = Fraction


class budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit}s"


def _exact_cycle(n, sym_budget):
    g = cycle(n)
    inst = from_graph(g)
    with budget(sym_budget):
        b2 = solve_bk(inst, 2, sym=[shift_perm(n)]).value
        assert b2 == F(n, 2)
        cover = fractional_cover(inst, "strong")
        scheme = codes.strong_cover_code(inst, cover)
        assert scheme.rate == F(n, 2)
        assert codes.verify_code(inst, scheme, mode="exhaustive").passed


def test_c01_c5_rate_is_5_over_2_exact():
    with budget(5):
        inst = from_graph(cycle(5))
        assert solve_bk(inst, 2).value == F(5, 2)
        cover = fractional_cover(inst, "strong")
        scheme = codes.strong_cover_code(inst, cover)
        assert scheme.rate == F(5, 2)
        assert codes.verify_code(inst, scheme, mode="exhaustive").passed
        rep = build_report(inst, "C5", levels=(2,), sym=[shift_perm(5)])
        assert any("beta = 5/2 exact" in v for v in rep.verdicts)


def test_c02_odd_cycles_c7_c9():
    _exact_cycle(7, 60)
    _exact_cycle(9, 60)


def test_c03_cycle_complements():
    with budget(60):
        for n in (5, 7):
            inst = from_graph(complement(cycle(n)))
            want = F(n, n // 2)
            assert solve_bk(inst, 2, sym=[shift_perm(n)]).value == want
            cover = fractional_cover(inst, "strong")
            assert cover.total == want
            scheme = codes.strong_cover_code(inst, cover)
            assert scheme.rate == want
            assert codes.verify_code(inst, scheme, mode="exhaustive").passed


def test_c04_tri3_level3_overshoots():
    with budget(1):
        inst = tri3()
        assert solve_bk(inst, 2).value == 2
        assert solve_bk(inst, 3).value == 3
        cert = decide_beta_eq_2(inst)  # a two -symbol scheme: a+b, b+c
        assert cert.is_two
        scheme = codes.two_symbol_code(inst, cert.labeling, cert.num_classes)
        assert scheme.rate == 2
        assert codes.verify_code(inst, scheme, mode="exhaustive").passed
        # so the level-3 value exceeds an achieved rate: not a lower bound
        assert solve_bk(inst, 3).value > scheme.rate


def test_c05_rate2_decider_certificates():
    with budget(30):
        rng = random.Random(17)
        done = 0
        while done < 10:
            n = rng.randint(3, 8)
            left = rng.randrange(1, n)
            edges = [(u, v) for u in range(left) for v in range(left, n)
                     if rng.random() < 0.6] + [(0, left)]
            from icbounds.instance import Graph

            g = complement(Graph.from_edge_list(n, edges))
            inst = from_graph(g)
            cert = decide_beta_eq_2(inst)
            assert cert.is_two
            scheme = codes.two_symbol_code(inst, cert.labeling, cert.num_classes)
            assert codes.verify_code(inst, scheme, mode="exhaustive").passed
            done += 1
        c5 = from_graph(cycle(5))
        cert = decide_beta_eq_2(c5)
        assert not cert.is_two and validate_aac(c5, cert.aac) == []
        assert solve_bk(c5, 2).value > 2
        for k in (1, 2, 3):
            inst = aac_instance(k)
            cert = decide_beta_eq_2(inst)
            assert not cert.is_two
            assert validate_aac(inst, cert.aac) == []
            assert cert.bound == 2 + F(1, k)
            b2 = solve_bk(inst, 2).value
            assert b2 > 2
            assert b2 >= cert.bound
            if k == 1:
                assert b2 >= 3


def test_c06_circulant_and_cayley():
    with budget(120):
        inst = from_graph(circulant(7, 2))
        b2 = solve_bk(inst, 2, sym=[shift_perm(7)]).value
        cover = fractional_cover(inst, "strong")
        assert b2 == F(7, 3) == cover.total
        inst8 = from_graph(cayley_3regular(8))
        assert solve_bk(inst8, 2, sym=[shift_perm(8)]).value == 4
        cover8 = fractional_cover(inst8, "strong")
        assert cover8.total == 4
        scheme = codes.strong_cover_code(inst8, cover8)
        assert scheme.rate == 4
        assert codes.verify_code(inst8, scheme, mode="exhaustive").passed


def test_c07_petersen_groetzsch_chvatal():
    f = family("petersen")
    inst = from_graph(f.graph)
    with budget(600):
        assert alpha_exact(inst)[0] == 4
        assert solve_bk(inst, 2, sym=f.symmetry).value == 5
        assert fractional_cover(inst, "strong").total == 5
    f = family("groetzsch")
    with budget(1800):
        inst = from_graph(f.graph)
        assert alpha_exact(inst)[0] == 5
        assert solve_bk(inst, 2, sym=f.symmetry).value == F(11, 2)
    f = family("chvatal")
    with budget(1800):
        inst = from_graph(f.graph)
        assert alpha_exact(inst)[0] == 4
        assert solve_bk(inst, 2, sym=f.symmetry).value == 6


def test_c08_projective_hadamard():
    with budget(30):
        g, gram = projective_hadamard(3)
        inst = from_graph(g)
        assert g.n == 9
        assert alpha_exact(inst)[0] == 3
        rep = representation_rank(inst, gram, 3)
        assert rep.value == 3
        scheme = codes.minrk_code(inst, rep)
        assert scheme.rate == 3
        assert codes.verify_code(inst, scheme, mode="exhaustive").passed
        cf3 = fractional_cover(inst, "strong").total
        assert cf3 >= F(g.n, 3)
        # at q=3 the cover bound is met with equality (no strict gap here);
        # the gap shows up one prime later, recorded as a computed constant
        assert cf3 == 3
    g5, gram5 = projective_hadamard(5)
    inst5 = from_graph(g5)
    assert g5.n == 25
    rep5 = representation_rank(inst5, gram5, 5)
    assert rep5.value == 3
    cf5 = fractional_cover(inst5, "strong").total
    assert cf5 == F(25, 7)
    assert cf5 > rep5.value  # strict beta-vs-cover gap at q=5


def test_c09_oddtown_triangle_free():
    with budget(30):
        g, inc = oddtown_trianglefree(6)
        inst = from_graph(g)
        assert g.n == 16
        for a in range(16):
            for b in range(a + 1, 16):
                if g.has_edge(a, b):
                    for c in range(b + 1, 16):
                        assert not (g.has_edge(a, c) and g.has_edge(b, c))
        assert fractional_cover(inst, "strong").total >= 8
        gram = [
            [sum(inc[i][t] * inc[j][t] for t in range(6)) % 2 for j in range(16)]
            for i in range(16)
        ]
        assert rank_mod_p(inc, 2) <= 6
        rep = representation_rank(inst, gram, 2)
        assert rep.value <= 6 == F(3, 8) * 16
        scheme = codes.minrk_code(inst, rep)
        assert scheme.rate <= 6
        assert codes.verify_code(inst, scheme, mode="exhaustive").passed


def test_c11_disjoint_union_bookkeeping():
    with budget(60):
        for k in (2, 3):
            inst = from_graph(cycle(5))
            for _ in range(k - 1):
                inst = disjoint_union(inst, from_graph(cycle(5)))
            assert alpha_exact(inst)[0] == 2 * k
            # the per-component optimum composes with the union's cover
            assert fractional_cover(inst, "strong").total == F(5 * k, 2)
        # direct union solve agrees at k=2
        from icbounds.families import block_shift_perm

        two = disjoint_union(from_graph(cycle(5)), from_graph(cycle(5)))
        assert solve_bk(two, 2, sym=[block_shift_perm(10, 5)]).value == 5
