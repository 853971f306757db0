import random
from fractions import Fraction

import pytest

from icbounds.codes import (
    CodeScheme,
    DecoderSpec,
    mds_weak_cover_code,
    minrk_code,
    strong_cover_code,
    two_symbol_code,
    verify_code,
)
from icbounds.combinatorial import (
    FractionalCover,
    fractional_cover,
    integer_clique_cover,
    minrk2,
)
from icbounds.beta2 import decide_beta_eq_2
from icbounds.families import complement, cycle, petersen, random_gnp, tri3
from icbounds.hierarchy import solve_bk
from icbounds.instance import CapExceeded, Graph, Instance, from_graph

F = Fraction


def clique_cover_code(g, cover):
    """The strong-cover code of an integer clique cover, weight 1 per clique."""
    unit = FractionalCover("strong", [(c, F(1)) for c in cover], F(len(cover)))
    return strong_cover_code(from_graph(g), unit)


def test_clique_cover_code_c5():
    g = cycle(5)
    k, cover = integer_clique_cover(g)
    scheme = clique_cover_code(g, cover)
    assert scheme.rate == k == 3
    assert verify_code(from_graph(g), scheme, mode="exhaustive").passed
    # a set that is not a clique is refused
    with pytest.raises(ValueError, match="receiver 0 cannot decode message 0"):
        clique_cover_code(g, [frozenset({0, 2}), frozenset({1}), frozenset({3, 4})])


def test_strong_cover_code_c5():
    inst = from_graph(cycle(5))
    cover = fractional_cover(inst, "strong")
    scheme = strong_cover_code(inst, cover)
    assert scheme.rate == F(5, 2)
    rep = verify_code(inst, scheme, mode="exhaustive")
    assert rep.passed and rep.mode == "exhaustive"


def test_strong_cover_code_complement_c7():
    inst = from_graph(complement(cycle(7)))
    cover = fractional_cover(inst, "strong")
    scheme = strong_cover_code(inst, cover)
    assert scheme.rate == F(7, 3)
    assert verify_code(inst, scheme, mode="exhaustive").passed


def test_mds_weak_cover_code():
    inst = from_graph(cycle(5))
    cover = fractional_cover(inst, "weak")
    scheme = mds_weak_cover_code(inst, cover)
    assert scheme.rate == cover.total
    assert verify_code(inst, scheme, mode="random", trials=20_000, seed=1).passed
    # every receiver doubled: a copy decodes from its representative's sets
    twins = Instance(5, inst.receivers * 2)
    cover = fractional_cover(twins, "weak")
    assert all(j < 5 for s, _ in cover.items for j in s)
    scheme = mds_weak_cover_code(twins, cover)
    assert len(scheme.decoders) == 10 and scheme.rate == F(5, 2)
    assert verify_code(twins, scheme, mode="random", trials=20_000, seed=1).passed


def test_minrk_code():
    g = cycle(5)
    inst = from_graph(g)
    rep = minrk2(inst)
    scheme = minrk_code(inst, rep)
    assert scheme.rate == 3
    assert verify_code(inst, scheme, mode="exhaustive").passed
    # a graph argument is read as its instance
    assert minrk2(g) == rep
    assert minrk_code(g, rep) == scheme


def test_two_symbol_code():
    inst = tri3()
    cert = decide_beta_eq_2(inst)
    assert cert.is_two
    scheme = two_symbol_code(inst, cert.labeling, cert.num_classes)
    assert scheme.rate == 2
    assert verify_code(inst, scheme, mode="exhaustive").passed
    # a labeling that is not separating: phi(f(0)) equals phi on T(0) = {2}
    with pytest.raises(ValueError, match="receiver 0 cannot decode message 1"):
        two_symbol_code(inst, [0, 0, 0], 1)
    # a labeling that is not constant on T(0) = {2, 3} of C5
    with pytest.raises(ValueError, match="receiver 0 cannot decode message 0"):
        two_symbol_code(from_graph(cycle(5)), [0, 1, 2, 3, 4], 5)


def _tri3_scheme(r0_side):
    # broadcast a+b, b+c; receiver 0 gets a configurable side row
    return CodeScheme(
        field=2, msg_symbols=1,
        encoder=[[1, 1, 0], [0, 1, 1]],
        decoders=[
            DecoderSpec(0, [[1, 0]], [r0_side]),
            DecoderSpec(1, [[0, 1]], [[0, 1, 0]]),
            DecoderSpec(2, [[1, 1]], [[0, 0, 1]]),
        ],
        rate=F(2),
    )


def test_good_handwritten_scheme():
    rep = verify_code(tri3(), _tri3_scheme([1, 0, 0]), mode="exhaustive")
    assert rep.passed


def test_decoder_locality_enforced():
    # a decoder reading a message outside N(j) must be rejected
    with pytest.raises(ValueError):
        verify_code(tri3(), _tri3_scheme([0, 0, 1]))


def test_verifier_catches_wrong_decoder():
    rep = verify_code(tri3(), _tri3_scheme([0, 0, 0]), mode="exhaustive")
    assert not rep.passed
    assert rep.failures


def test_verifier_requires_every_receiver():
    inst = tri3()
    good = decide_beta_eq_2(inst).scheme
    partial = CodeScheme(
        good.field, good.msg_symbols, good.encoder, good.decoders[:-1], good.rate
    )
    with pytest.raises(ValueError):
        verify_code(inst, partial)


def test_random_mode_kicks_in_past_cap():
    inst = from_graph(cycle(5))
    scheme = mds_weak_cover_code(inst, fractional_cover(inst, "weak"))
    # the prime-field message space blows past the exhaustive cap
    assert scheme.field ** (inst.n * scheme.msg_symbols) > 1 << 24
    rep = verify_code(inst, scheme, mode="auto", trials=5_000, seed=3)
    assert rep.mode == "random" and rep.passed
    with pytest.raises(CapExceeded, match="exhaustive-verify"):
        verify_code(inst, scheme, mode="exhaustive")


def test_every_verified_rate_at_least_b2():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randrange(3, 7)
        g = random_gnp(n, rng.random(), rng)
        inst = from_graph(g)
        b2 = solve_bk(inst, 2).value
        cover = fractional_cover(inst, "strong")
        scheme = strong_cover_code(inst, cover)
        assert verify_code(inst, scheme, trials=2_000, seed=5).passed
        assert scheme.rate >= b2
        k, cc = integer_clique_cover(g)
        scheme2 = clique_cover_code(g, cc)
        assert verify_code(inst, scheme2, trials=2_000, seed=5).passed
        assert scheme2.rate >= b2
