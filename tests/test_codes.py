import copy
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from codes_reference import (
    ENUMERATION_CAP,
    decoders_reference,
    reference_failures,
    side_reference,
    strong_cover_encoder_reference,
    verify_code_reference,
)

from icbounds import codes
from icbounds.codes import (
    CODE_SIZE_CAP,
    MAX_FAILURES,
    RANDOM_TRIALS,
    CodeScheme,
    VerificationReport,
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
    verify_cover,
)
from icbounds.beta2 import decide_beta_eq_2
from icbounds.families import complement, cycle, petersen, random_gnp, tri3
from icbounds.hierarchy import solve_bk
from icbounds.instance import CapExceeded, Graph, Instance, Receiver, from_graph
from icbounds.numeric import is_prime, next_prime

F = Fraction


def _scheme(p, d, encoder, bcast, rate):
    """A hand-built code: its two arrays from lists of rows."""
    return CodeScheme(p, d, np.array(encoder, np.int64), np.array(bcast, np.int64), rate)


def _arrays(scheme):
    return scheme.encoder.tolist(), scheme.bcast.tolist()


def _side(inst, scheme):
    """The side rows scheme's bcast rows imply, in Python ints."""
    return side_reference(inst, scheme.field, scheme.msg_symbols,
                          scheme.encoder.tolist(), scheme.bcast.tolist())


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


def _no_elimination(*args):
    raise AssertionError("row_reduce called")


def test_cover_codes_read_their_decoders_off_the_pivot_rows(monkeypatch):
    # every receiver of a valid strong or clique cover has a local first row
    # in each wanted column, so no receiver reaches the elimination: a q = 2
    # strong cover, the same with every receiver doubled, and a clique cover
    monkeypatch.setattr(codes, "row_reduce", _no_elimination)
    c5, c7 = from_graph(cycle(5)), from_graph(cycle(7))
    twins = Instance(5, c5.receivers * 2)
    schemes = [(c5, strong_cover_code(c5, fractional_cover(c5, "strong"))),
               (twins, strong_cover_code(twins, fractional_cover(twins, "strong"))),
               (c7, clique_cover_code(cycle(7), integer_clique_cover(cycle(7))[1]))]
    assert [(s.msg_symbols, len(s.bcast)) for _, s in schemes] == [(2, 10), (2, 20), (1, 7)]
    for inst, scheme in schemes:
        bcast, side = decoders_reference(inst, 2, scheme.msg_symbols, scheme.encoder.tolist())
        assert (scheme.bcast.tolist(), codes.side_rows(inst, scheme).tolist()) == (bcast, side)
    # a cover set that is not a clique leaves receiver 0 to the elimination,
    # which refuses it
    bad = [frozenset({0, 2}), frozenset({1}), frozenset({3, 4})]
    with pytest.raises(AssertionError, match="row_reduce called"):
        clique_cover_code(cycle(5), bad)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="receiver 0 cannot decode message 0"):
        clique_cover_code(cycle(5), bad)


def test_a_receiver_knowing_its_wanted_message_is_not_read_off_a_pivot_row():
    # `validate` refuses such a receiver; its wanted column is outside U, so
    # row 0 (local on U = {1}) is no pivot for it, and it gets the list
    # solve's zero decoder
    inst = Instance(2, (Receiver(0, frozenset({0})),))
    scheme = codes._code(inst, 2, 1, [[1, 1]], F(1), "")
    got = (scheme.bcast.tolist(), codes.side_rows(inst, scheme).tolist())
    assert got == decoders_reference(inst, 2, 1, [[1, 1]]) == ([[0]], [[0, 0]])


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
    assert len(scheme.bcast) == 10 * scheme.msg_symbols and scheme.rate == F(5, 2)
    assert verify_code(twins, scheme, mode="random", trials=20_000, seed=1).passed


@pytest.mark.parametrize("build, kind, wrong", [
    (strong_cover_code, "strong", "weak"), (mds_weak_cover_code, "weak", "strong"),
])
def test_cover_codes_refuse_the_other_cover_and_weighted_rates(build, kind, wrong):
    inst = from_graph(cycle(5))
    with pytest.raises(ValueError, match=f"needs a {kind} cover"):
        build(inst, fractional_cover(inst, wrong))
    weighted = Instance(5, inst.receivers, (F(1), F(1, 2), F(1), F(1, 2), F(1)))
    with pytest.raises(ValueError, match="unit rates only"):
        build(weighted, fractional_cover(weighted, kind))


def test_minrk_code():
    g = cycle(5)
    inst = from_graph(g)
    rep = minrk2(inst)
    scheme = minrk_code(inst, rep)
    assert scheme.rate == 3
    assert verify_code(inst, scheme, mode="exhaustive").passed
    # a graph argument is read as its instance
    assert minrk2(g) == rep
    again = minrk_code(g, rep)
    assert (again.field, again.rate, _arrays(again)) == (scheme.field, scheme.rate, _arrays(scheme))


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


def _tri3_scheme(r0_bcast):
    # broadcast a+b, b+c; receiver 0 (wants b, knows a) gets a configurable
    # bcast row, and every receiver cancels what it knows
    return _scheme(2, 1, [[1, 1, 0], [0, 1, 1]], [r0_bcast, [0, 1], [1, 1]], F(2))


def test_good_handwritten_scheme():
    rep = verify_code(tri3(), _tri3_scheme([1, 0]), mode="exhaustive")
    assert rep.passed


def test_verifier_catches_wrong_decoder():
    rep = verify_code(tri3(), _tri3_scheme([1, 1]), mode="exhaustive")
    assert not rep.passed
    assert rep.failures


def test_misshaped_decoders_are_refused():
    # receiver 0 wants 0 and knows {1}; receiver 1 wants 1 and knows nothing.
    # The arrays must be rows x n*d and m*d x rows: a missing decoder row,
    # broadcast or message column is refused by its shape.
    inst = Instance(2, (Receiver(0, frozenset({1})), Receiver(1, frozenset())))
    good = ([[1, 1]], [[1], [1]])
    for k, bad, message in (
        (1, [[1]], "bcast must be 2 x 1, not 1 x 1"),
        (1, [[1, 0], [1, 0]], "bcast must be 2 x 1, not 2 x 2"),
        (0, [[1, 1, 0]], "encoder must be 1 x 2, not 1 x 3"),
    ):
        arrays = list(good)
        arrays[k] = bad
        with pytest.raises(ValueError, match=message):
            verify_code(inst, _scheme(2, 1, *arrays, F(1)), mode="exhaustive")
    # well shaped, the rate-1 scheme is checked and fails at receiver 1
    rep = verify_code(inst, _scheme(2, 1, *good, F(1)), mode="exhaustive")
    assert rep.failures == [((1, 0), 1), ((1, 1), 1)]


def test_each_cover_copy_shrinks_on_its_own():
    # q = 1, so message 0 (in all three copies) and messages 1 and 2 (in
    # two) each lose copies; a copy shared between the two {0, 1, 2} sets
    # would be emptied at once and leave message 0 undecodable
    inst = from_graph(cycle(3))
    cover = FractionalCover("strong", [(frozenset({0, 1, 2}), F(2)), (frozenset({0}), F(1))], F(3))
    assert not verify_cover(inst, cover)
    scheme = strong_cover_code(inst, cover)
    assert scheme.rate == 3 and verify_code(inst, scheme).passed


def test_strong_cover_encoder_matches_the_set_build(monkeypatch):
    # the membership-array build against one Python set per copy, on random
    # sets and weights over denominators up to 4, the encoder alone (the
    # sets need not be hypercliques); a message in fewer than q copies is
    # refused by both, with the same message
    monkeypatch.setattr(codes, "_code", lambda inst, p, d, enc, rate, kind: enc.reshape(len(enc), -1))
    rng = random.Random(17)
    refused = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        inst = Instance(n, tuple(Receiver(v, frozenset()) for v in range(n)))
        items = [(frozenset(rng.sample(range(n), rng.randint(1, n))), F(rng.randint(1, 4), rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 5))]
        cover = FractionalCover("strong", items, sum(w for _, w in items))
        try:
            want = strong_cover_encoder_reference(inst, cover)
        except ValueError as e:
            refused += 1
            with pytest.raises(ValueError, match=f"^{e}$"):
                strong_cover_code(inst, cover)
            continue
        assert strong_cover_code(inst, cover).tolist() == want
    assert 50 < refused < 250


@pytest.mark.parametrize("build, kind", [(strong_cover_code, "strong"), (mds_weak_cover_code, "weak")])
def test_a_large_denominator_cover_is_refused_before_any_copy(monkeypatch, build, kind):
    # weights over q = 2003 on the triangle: one row per copy, 2003 x 6009
    # entries, past CODE_SIZE_CAP; no copy or encoder row may be made, and
    # no decoder solved (which at this size would run for minutes)
    inst = from_graph(cycle(3))
    q = 2003
    whole = frozenset({0, 1, 2})
    cover = FractionalCover(kind, [(whole, F(q - 1, q)), (whole, F(1, q))], F(1))
    monkeypatch.setattr(codes, "_decoders", lambda *a: pytest.fail("the code was built"))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=f"code-size: needed {q * 3 * q}, limit {CODE_SIZE_CAP}"):
            build(inst, cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q * 3 * q > CODE_SIZE_CAP and peak < 1 << 16


def test_verifier_requires_every_receiver():
    inst = tri3()
    cert = decide_beta_eq_2(inst)
    good = two_symbol_code(inst, cert.labeling, cert.num_classes)
    d = good.msg_symbols
    partial = CodeScheme(good.field, d, good.encoder, good.bcast[:-d], good.rate)
    with pytest.raises(ValueError, match="bcast must be 3 x 2, not 2 x 2"):
        verify_code(inst, partial)


def test_exhaustive_proves_mds_c5_past_the_old_cap():
    inst = from_graph(cycle(5))
    scheme = mds_weak_cover_code(inst, fractional_cover(inst, "weak"))
    # 7^10 message vectors, past the 2^24 that were once enumerated
    total = scheme.field ** (inst.n * scheme.msg_symbols)
    assert total > 1 << 24
    for kw in ({}, {"mode": "exhaustive"}):  # exhaustive is the default
        rep = verify_code(inst, scheme, trials=5_000, seed=3, **kw)
        assert (rep.mode, rep.trials, rep.seed, rep.passed) == ("exhaustive", total, None, True)
    bad = _flipped(inst, scheme, random.Random(3))
    rep = verify_code(inst, bad)
    assert rep.mode == "exhaustive" and len(rep.failures) == MAX_FAILURES
    assert all(_genuine(inst, bad, x, j) for x, j in rep.failures)
    assert [x for x, _ in rep.failures] == sorted(x for x, _ in rep.failures)


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


# -- the verifier against the int64 reference --------------------------------


def _genuine(inst, scheme, x, j):
    """True when receiver j decodes message vector x wrongly, in Python ints."""
    p, d = scheme.field, scheme.msg_symbols
    bcast = [sum(e * v for e, v in zip(row, x)) % p for row in scheme.encoder.tolist()]
    rows = zip(scheme.bcast[j * d : (j + 1) * d].tolist(), _side(inst, scheme)[j * d : (j + 1) * d])
    want = inst.receivers[j].wants
    return any((sum(b * y for b, y in zip(bc, bcast)) + sum(s * v for s, v in zip(sc, x))
                - x[want * d + t]) % p
               for t, (bc, sc) in enumerate(rows))


def _flipped(inst, scheme, rng):
    """A copy of scheme with one encoder or broadcast coefficient moved to
    another value mod p."""
    s = copy.deepcopy(scheme)
    p, d = s.field, s.msg_symbols
    j = rng.randrange(inst.m)
    if rng.randrange(2):
        row, c = rng.choice(s.encoder), rng.randrange(inst.n * d)
    else:
        row, c = rng.choice(s.bcast[j * d : (j + 1) * d]), rng.randrange(s.broadcast_symbols)
    row[c] = (row[c] + rng.randrange(1, p)) % p  # row is a view into s
    return s


def _corpus():
    """(instance, code) for every construction on small instances."""
    out = []
    graphs = [cycle(5), cycle(7), complement(cycle(6)), Graph.from_edge_list(5, [(0, 1), (2, 3), (3, 4)])]
    rng = random.Random(11)
    graphs += [random_gnp(rng.randrange(4, 7), 0.5, rng) for _ in range(3)]
    for g in graphs:
        inst = from_graph(g)
        out.append((inst, strong_cover_code(inst, fractional_cover(inst, "strong"))))
        out.append((inst, clique_cover_code(g, integer_clique_cover(g)[1])))
        out.append((inst, minrk_code(inst, minrk2(inst))))
        out.append((inst, mds_weak_cover_code(inst, fractional_cover(inst, "weak"))))
        cert = decide_beta_eq_2(inst)
        if cert.is_two:
            out.append((inst, two_symbol_code(inst, cert.labeling, cert.num_classes)))
    # every receiver doubled, so twins share their pivot rows (rate 5/2: no
    # two-symbol code)
    twins = Instance(5, from_graph(cycle(5)).receivers * 2)
    assert not decide_beta_eq_2(twins).is_two
    out.append((twins, strong_cover_code(twins, fractional_cover(twins, "strong"))))
    out.append((twins, mds_weak_cover_code(twins, fractional_cover(twins, "weak"))))
    out.append((tri3(), _tri3_scheme([1, 0])))
    return out


def _outcome(verify, inst, scheme, **kw):
    try:
        rep = verify(inst, scheme, **kw)
    except CapExceeded as e:
        return ("cap", e.cap), None
    return (rep.mode, rep.trials, rep.seed, rep.passed), rep


def test_verify_matches_int64_reference():
    rng = random.Random(5)
    fields, failing, past_cap = set(), 0, 0
    for inst, scheme in _corpus():
        fields.add(scheme.field)
        cols = inst.n * scheme.msg_symbols
        for s in (scheme, _flipped(inst, scheme, rng), _flipped(inst, scheme, rng)):
            for kw in ({"trials": 1_000, "seed": rng.randrange(99)},
                       {"mode": "exhaustive"},
                       {"mode": "random", "trials": 777, "seed": rng.randrange(99)}):
                if kw.get("mode") == "random" or s.field**cols <= ENUMERATION_CAP:
                    want, ref = _outcome(verify_code_reference, inst, s, **kw)
                else:  # past the reference's enumeration: every unit vector and a draw
                    draw = np.random.default_rng(kw.get("seed", 0)).integers(0, s.field, (1_000, cols))
                    xs = np.vstack([np.eye(cols, dtype=np.int64), draw])
                    want, ref = ("exhaustive", s.field**cols, None, not reference_failures(inst, s, xs)), None
                    past_cap += 1
                got, rep = _outcome(verify_code, inst, s, **kw)
                assert got == want, (s, kw)
                failing += not rep.passed
                assert len(rep.failures) <= MAX_FAILURES
                assert all(_genuine(inst, s, x, j) for x, j in rep.failures)
                if ref is not None and len(ref.failures) < MAX_FAILURES:  # both hold every failure
                    assert sorted(rep.failures) == sorted(ref.failures)
                if rep.mode == "exhaustive":  # in index order
                    assert [x for x, _ in rep.failures] == sorted(x for x, _ in rep.failures)
    assert {2, 3, 5} <= fields and failing > 20 and past_cap > 10


def test_decoders_match_the_list_solve():
    # the array solve gives the list solve's bcast rows entry for entry,
    # side_rows its side rows, and every array is int64 and reduced mod p
    kinds = set()
    for inst, scheme in _corpus():
        if not scheme.kind:  # hand-built
            continue
        kinds.add(scheme.kind)
        p, d = scheme.field, scheme.msg_symbols
        bcast, side = decoders_reference(inst, p, d, scheme.encoder.tolist())
        rows = codes.side_rows(inst, scheme)
        assert (scheme.bcast.tolist(), rows.tolist()) == (bcast, side)
        for a in (scheme.encoder, scheme.bcast, rows):
            assert a.dtype == np.int64 and ((0 <= a) & (a < p)).all()
    assert kinds == {"strong-cover", "minrank", "mds-weak-cover", "two-symbol"}


def test_gf2_random_path_catches_a_flipped_bit():
    inst = from_graph(cycle(13))
    scheme = strong_cover_code(inst, fractional_cover(inst, "strong"))
    assert 2 ** (inst.n * scheme.msg_symbols) == 1 << 26  # past the old 2^24 enumeration
    rep = verify_code(inst, scheme)
    assert rep.mode == "exhaustive" and rep.trials == 1 << 26 and rep.passed
    rep = verify_code(inst, scheme, mode="random", trials=3_000, seed=2)
    assert rep.mode == "random" and rep.trials == 3_000 and rep.passed
    scheme.bcast[6 * scheme.msg_symbols + 1, 4] ^= 1
    rep = verify_code(inst, scheme, mode="random", trials=3_000, seed=2)
    assert not rep.passed and all(j == 6 and _genuine(inst, scheme, x, j) for x, j in rep.failures)
    assert not verify_code_reference(inst, scheme, trials=3_000, seed=2).passed


def test_fewer_states_than_a_word_reports_no_padding():
    # receiver 0 takes both broadcasts, a + c once it cancels a, for b:
    # wrong exactly when b != c, on 4 of the 2^3 states, and no others
    inst, scheme = tri3(), _tri3_scheme([1, 1])
    rep = verify_code(inst, scheme, mode="exhaustive")
    assert rep.trials == 8
    assert rep.failures == [((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 1), 0), ((1, 1, 0), 0)]
    rep = verify_code(inst, scheme, mode="random", trials=9, seed=4)
    draw = np.random.default_rng(4).integers(0, 2, size=(9, 3))
    assert rep.failures == [(tuple(map(int, x)), 0) for x in draw if x[1] != x[2]][:MAX_FAILURES]


def test_odd_field_exhaustive_crosses_chunks():
    # F_3 identity code on K10 less the edge {0, 9}: broadcast every message.
    # Receiver 9 also adds broadcast symbol 0, which it cannot cancel, so it
    # fails exactly when x_0 != 0, first at state 3^9: the walk skips
    # x_0 = 0's whole subtree.
    n, p = 10, 3
    edges = [(u, v) for u in range(n) for v in range(u) if (u, v) != (9, 0)]
    inst = from_graph(Graph.from_edge_list(n, edges))
    eye = np.eye(n, dtype=np.int64)
    scheme = CodeScheme(p, 1, eye, eye.copy(), F(n))
    rep = verify_code(inst, scheme)
    assert rep.mode == "exhaustive" and rep.trials == p**n > 1 << 14 and rep.passed
    scheme.bcast[9, 0] = 1
    rep = verify_code(inst, scheme)
    tails = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert rep.failures == [((1,) + (0,) * 7 + t, 9) for t in tails]
    assert not verify_code_reference(inst, scheme).passed


def _c5_code(p):
    """A 3-row code of C5 over F_p: large combinations of the clique rows
    x0 + x1, x2 + x3 and x4, its decoders solved on Python lists, which
    stay exact at any p."""
    mix = [[p - 2, p // 2 + 7, p - 9], [p // 2 - 5, p - 3, p // 4 + 1], [p - 6, 3, p - 1]]
    cliques = [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]]
    encoder = [[sum(m * r[c] for m, r in zip(row, cliques)) % p for c in range(5)] for row in mix]
    return _scheme(p, 1, encoder, decoders_reference(from_graph(cycle(5)), p, 1, encoder)[0], F(3))


def test_field_beyond_float_range_is_refused():
    # over F_(2^31 - 1) int64 products overflow, and the reference reports
    # "failures" that decode correctly in exact integers
    inst, scheme = from_graph(cycle(5)), _c5_code(2**31 - 1)
    ref = verify_code_reference(inst, scheme, trials=200, seed=1)
    assert not ref.passed
    assert not any(_genuine(inst, scheme, x, j) for x, j in ref.failures)
    with pytest.raises(CapExceeded, match="verify-field") as checked:
        verify_code(inst, scheme, trials=200, seed=1)
    # a construction meets the same cap, with the same numbers, before it
    # makes an array
    with pytest.raises(CapExceeded) as built:
        codes._code(inst, scheme.field, 1, scheme.encoder.tolist(), F(3), "")
    assert str(built.value) == str(checked.value)
    # a field past int64 meets the cap before any array is read
    scheme.field = (1 << 64) + 13
    with pytest.raises(CapExceeded, match="verify-field"):
        verify_code(inst, scheme)
    # the largest prime that keeps (3 + 5)(p - 1)^2 under 2^53: exact, and
    # side_rows' float64 product gives the list solve's side rows
    p = 33_554_393
    assert 8 * (p - 1) ** 2 < 1 << 53 <= 8 * (next_prime(p + 1) - 1) ** 2
    scheme = _c5_code(p)
    built = codes._code(inst, p, 1, scheme.encoder, F(3), "")
    assert _arrays(built) == _arrays(scheme)
    assert codes.side_rows(inst, built).tolist() == _side(inst, scheme)
    assert verify_code(inst, scheme, trials=2_000, seed=1).passed
    scheme.bcast[2, 1] += 1
    rep = verify_code(inst, scheme, trials=2_000, seed=1)
    assert len(rep.failures) == MAX_FAILURES and all(_genuine(inst, scheme, x, j) for x, j in rep.failures)


def test_residual_map_is_exact_at_the_largest_admitted_field():
    # C_b E is a float64 product: at the largest prime verify_code admits for
    # the shape, M and the side rows equal theirs in Python integers, entries
    # at p - 1 included
    rng = random.Random(23)
    n, d, rows = 4, 3, 20
    inst = Instance(n, tuple(Receiver(v, frozenset({(v + 1) % n})) for v in range(n)))
    top = math.isqrt(((1 << 53) - 1) // (rows + n * d)) + 1  # largest q with (q - 1)^2 in range
    p = next(q for q in range(top, 2, -1) if is_prime(q))
    assert (rows + n * d) * (p - 1) ** 2 < 1 << 53 <= (rows + n * d) * (next_prime(p) - 1) ** 2

    def draw(r, c):
        return [[p - 1 if i % 3 == 0 else rng.randrange(p) for _ in range(c)] for i in range(r)]

    enc, bcast = draw(rows, n * d), draw(n * d, rows)
    scheme = _scheme(p, d, enc, bcast, F(rows, d))
    side = _side(inst, scheme)
    assert codes.side_rows(inst, scheme).tolist() == side
    want = [[(sum(b * enc[r][c] for r, b in enumerate(bcast[k])) + side[k][c]
              - (c == inst.receivers[k // d].wants * d + k % d)) % p for c in range(n * d)]
            for k in range(n * d)]
    assert codes._residual_map(inst, scheme).tolist() == want


def test_random_mode_draws_only_when_the_residual_map_is_nonzero(monkeypatch):
    # M = 0 proves every vector decodes, so random mode answers a proved
    # code with no draw; a failing code still reports the draw's failures
    inst = from_graph(complement(cycle(7)))
    scheme = mds_weak_cover_code(inst, fractional_cover(inst, "weak"))
    bad = _flipped(inst, scheme, random.Random(4))
    cols = inst.n * scheme.msg_symbols
    draw = [tuple(map(int, x)) for x in np.random.default_rng(9).integers(0, bad.field, (2_000, cols))]
    want = _brute_failures(inst, bad, draw)
    assert want and verify_code_reference(inst, bad, mode="random", trials=2_000, seed=9).failures
    with monkeypatch.context() as m:
        m.setattr(codes.np.random, "default_rng", lambda *a: pytest.fail("drew vectors for a proved code"))
        for kw in ({}, {"trials": 2_000, "seed": 9}):
            rep = verify_code(inst, scheme, mode="random", **kw)
            assert rep == VerificationReport("random", kw.get("trials", RANDOM_TRIALS), kw.get("seed", 0), [])
    assert verify_code(inst, bad, mode="random", trials=2_000, seed=9).failures == want


def test_bad_mode_and_trials_are_refused():
    inst, scheme = tri3(), _tri3_scheme([1, 0])
    with pytest.raises(ValueError, match="unknown verification mode 'exhuastive'"):
        verify_code(inst, scheme, mode="exhuastive")
    with pytest.raises(ValueError, match="at least 1 random trial"):
        verify_code(inst, scheme, mode="random", trials=0)


def test_a_negative_seed_is_refused():
    # refused before the residual map is read, so a proved code (no draw
    # made) and a failing one (whose draw would reject the seed) alike
    inst = tri3()
    for scheme in (_tri3_scheme([1, 0]), _tri3_scheme([1, 1])):
        for mode in ("random", "exhaustive"):
            with pytest.raises(ValueError, match="seed must not be negative, got -1"):
                verify_code(inst, scheme, mode=mode, seed=-1)


# -- failure order of the walk over the digits --------------------------------


def _brute_failures(inst, scheme, vectors=None):
    """The first MAX_FAILURES wrong decodings in (vector, decoder) order:
    each vector, in index order unless `vectors` gives them, decoded at
    every decoder in Python ints."""
    p, d = scheme.field, scheme.msg_symbols

    def terms(row):
        return [(c, v) for c, v in enumerate(row) if v % p]

    enc = [terms(row) for row in scheme.encoder.tolist()]
    bcast, side = scheme.bcast.tolist(), _side(inst, scheme)
    decs = [(j, [(inst.receivers[j].wants * d + t, terms(bcast[j * d + t]), terms(side[j * d + t]))
                 for t in range(d)])
            for j in range(inst.m)]
    out = []
    for x in vectors or product(range(p), repeat=inst.n * d):
        bcast = [sum(v * x[c] for c, v in row) % p for row in enc]
        for j, symbols in decs:
            if any((sum(v * bcast[c] for c, v in bc) + sum(v * x[c] for c, v in sc) - x[want]) % p
                   for want, bc, sc in symbols):
                out.append((x, j))
        if len(out) >= MAX_FAILURES:
            return out[:MAX_FAILURES]
    return out


def _spoiled(scheme, cols, decoders):
    """A copy where each listed decoder's first symbol also adds the
    broadcast symbols `cols`, which the identity code sends as those
    message symbols: the decoders fail exactly where their sum is nonzero."""
    s = copy.deepcopy(scheme)
    for k in decoders:
        row = s.bcast[k * s.msg_symbols]
        for c in cols:
            row[c] = (row[c] + 1) % s.field
    return s


# short and long walks (n*d from 2 to 11 digits) over each small field
@pytest.mark.parametrize("p, n, d", [
    (2, 3, 1), (2, 3, 2), (2, 4, 2), (2, 11, 1),
    (3, 4, 1), (3, 8, 1), (3, 9, 1), (3, 5, 2),
    (5, 3, 1), (5, 6, 1), (5, 7, 1),
    (7, 2, 1), (7, 5, 1), (7, 6, 1),
])
def test_failures_in_exact_order_across_the_split(p, n, d):
    # the identity code of n messages with no side information, each
    # receiver j wanting message j
    inst = Instance(n, tuple(Receiver(j, frozenset()) for j in range(n)))
    cols = n * d
    scheme = codes._code(inst, p, d, np.eye(cols, dtype=np.int64), F(n), "")
    rng = random.Random(p * 100 + cols)
    variants = [
        _spoiled(scheme, [0], [n - 1, 0]),  # first failure at e_0, M nonzero in column 0 only
        _spoiled(scheme, [cols - 1], [0, n - 1]),  # at e_(n*d-1), in the last column only
        _spoiled(scheme, [cols - 2, cols - 1], [0]),  # passes where the two digits sum to 0
        _flipped(inst, scheme, rng),
        _flipped(inst, _flipped(inst, scheme, rng), rng),
    ]
    assert verify_code(inst, scheme, mode="exhaustive").passed
    draw = [tuple(map(int, x)) for x in np.random.default_rng(p).integers(0, p, size=(200, cols))]
    for s in variants:
        rep = verify_code(inst, s, mode="exhaustive")
        assert rep.trials == p**cols
        assert rep.failures == _brute_failures(inst, s), (p, n, d, s)
        rep = verify_code(inst, s, mode="random", trials=200, seed=p)
        assert rep.failures == _brute_failures(inst, s, draw), (p, n, d, s)
    e_first, e_last = (1,) + (0,) * (cols - 1), (0,) * (cols - 1) + (1,)
    for s, e in ((variants[0], e_first), (variants[1], e_last)):
        assert verify_code(inst, s, mode="exhaustive").failures[:2] == [(e, 0), (e, n - 1)]


@pytest.mark.parametrize("p", [2, 3])
def test_an_instance_with_no_receivers_passes_every_vector(p):
    inst = Instance(4, ())
    scheme = CodeScheme(p, 2, np.ones((1, 8), np.int64), np.zeros((0, 1), np.int64), F(1))
    rep = verify_code(inst, scheme, mode="exhaustive")
    assert rep.passed and rep.trials == p**8 and _brute_failures(inst, scheme) == []
    rep = verify_code(inst, scheme, mode="random", trials=50, seed=1)
    assert rep.passed and rep.trials == 50
    # its minrank code broadcasts nothing, and has no decoder to solve
    empty = minrk_code(inst, minrk2(inst))
    assert empty.encoder.shape == (0, 4) and verify_code(inst, empty).passed


def test_a_one_digit_code_over_a_large_field_walks_no_table():
    # the 1-message identity code over the largest prime below 2^24: the
    # failing vectors of a spoiled decoder are read off one digit at a time
    p = 16_777_213
    inst = Instance(1, (Receiver(0, frozenset()),))
    scheme = codes._code(inst, p, 1, [[1]], F(1), "")
    rep = verify_code(inst, scheme, mode="exhaustive")
    assert (rep.mode, rep.trials, rep.passed) == ("exhaustive", p, True)
    rep = verify_code(inst, _spoiled(scheme, [0], [0]))  # decodes 2x
    assert rep.failures == [((v,), 0) for v in range(1, MAX_FAILURES + 1)]
