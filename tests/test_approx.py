import itertools
import math
import random
from fractions import Fraction

import pytest

from approx_reference import (
    alpha_greedy_reference,
    exact_leaves,
    expanding_or_cover_reference,
    induced_subhypergraph,
    low_degree_cover_reference,
    tau_reference,
)
from instance_reference import blind_set

from icbounds import approx
from icbounds.approx import (
    MC_INFLATION,
    CoverParts,
    alpha_greedy,
    approximate_beta,
    build_cover,
    decide_expanding_or_cover,
    low_degree_cover,
    ratio_bound,
    tau,
)
from icbounds.combinatorial import (
    ExpandingSequence,
    FractionalCover,
    fractional_cover,
    is_expanding_sequence,
    verify_cover,
)
from icbounds.families import complement, cycle, random_gnp, random_instance, tri3
from icbounds.instance import Graph, Instance, Receiver, from_graph, to_mask
from icbounds.numeric import pow_frac_enclosure

F = Fraction


def test_induced_subhypergraph():
    inst = from_graph(cycle(5))
    sub, vmap, emap = induced_subhypergraph(inst, [0, 1, 2])
    assert sub.n == 3
    assert all(inst.receivers[emap[j]].wants == vmap[sub.receivers[j].wants] for j in range(sub.m))


def test_alpha_greedy_valid():
    rng = random.Random(51)
    for _ in range(200):
        n = rng.randrange(2, 9)
        inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        seq = alpha_greedy(inst)
        assert is_expanding_sequence(inst, seq.receivers)


def test_alpha_greedy_matches_the_set_greedy():
    # the mask greedy picks the receivers the set greedy picks, in the
    # same order, on weighted and unweighted instances
    rng = random.Random(52)
    for inst in _corpus(rng, 300):
        assert alpha_greedy(inst) == alpha_greedy_reference(inst)


def test_low_degree_cover_small():
    # triangle, degree parameter 0: one full set, weight 2 exactly and
    # MC_INFLATION * 2 sampled
    inst = from_graph(cycle(3))
    cover = low_degree_cover_reference(inst, 0b111, 0)
    assert not verify_cover(inst, cover)
    assert cover.total <= 2
    assert low_degree_cover(inst, 0b111, 0) == FractionalCover(
        "weak", [(frozenset(range(inst.m)), 2 * MC_INFLATION)], 2 * MC_INFLATION
    )


def test_low_degree_cover_samples_within_the_inflated_cap():
    # the sampler covers, weighs at most MC_INFLATION * (4d+2) and repeats
    # under its seed
    inst = from_graph(complement(cycle(6)))  # blind sets of size 2
    cover = low_degree_cover(inst, 0b111111, 2, seed=4)
    assert not verify_cover(inst, cover)
    assert cover.total <= MC_INFLATION * 10
    assert low_degree_cover(inst, 0b111111, 2, seed=4) == cover


def test_low_degree_cover_weight_cap():
    rng = random.Random(52)
    done = 0
    while done < 200:
        n = rng.randrange(2, 8)
        inst = from_graph(random_gnp(n, rng.random(), rng))
        d = rng.randrange(0, 3)
        if any(len(blind_set(r, n)) > d for r in inst.receivers):
            continue  # precondition: blind sets at most d
        done += 1
        cover = low_degree_cover_reference(inst, (1 << n) - 1, d)
        assert not verify_cover(inst, cover)
        assert cover.total <= 4 * d + 2


def test_low_degree_cover_resamples_until_every_receiver_is_covered(monkeypatch):
    # one draw a round at first: no hyperclique takes every receiver of
    # these leaves, so the first round under-covers and the sample count
    # doubles; on every round the integer stopping rule agrees with the
    # exact check of that round's cover of V's receivers
    monkeypatch.setattr(approx, "MC_BASE_SAMPLES", 1)
    cc6 = from_graph(complement(cycle(6)))  # blind sets {v-1, v+1}
    twin = Instance(6, cc6.receivers + (cc6.receivers[0],))  # receiver 6 repeats receiver 0
    leaves = ((cc6, 0b111111), (cc6, 0b011110), (twin, 0b111111), (twin, 0b110011))
    for (inst, vmask), seed in itertools.product(leaves, range(4)):
        verts = [v for v in range(inst.n) if vmask >> v & 1]
        d = max((len(set(verts) & blind_set(r, inst.n)) for r in inst.receivers
                 if r.wants in verts), default=0)
        rounds = 0
        for cover, covered in approx._sample_rounds(inst, vmask, d, seed):
            rounds += 1
            assert covered == (not _faults_on(inst, verts, cover))
            if inst is twin:
                # identical receivers form one group: an item takes both or neither
                assert all((0 in s) == (6 in s) for s, _ in cover.items)
            if covered:
                break
        assert rounds > 1
        assert low_degree_cover(inst, vmask, d, seed=seed) == cover
        assert cover.total <= MC_INFLATION * (4 * d + 2)


def test_low_degree_cover_rejects_high_degree():
    inst = from_graph(cycle(5))  # blind sets have size 2
    for cover in (low_degree_cover, low_degree_cover_reference):
        with pytest.raises(ValueError):
            cover(inst, 0b11111, 1)


def test_expanding_or_cover_certificates():
    # with exact leaves the cover meets the bound 6k n^{1-1/k}; so does the
    # parts' nominal weight (1 per hyperclique, 4d+2 per leaf), which is
    # what bounds a sampled cover by MC_INFLATION times it
    rng = random.Random(53)
    leaves = 0
    with exact_leaves():
        for _ in range(200):
            n = rng.randrange(2, 9)
            inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
            k = rng.randrange(1, 4)
            out = decide_expanding_or_cover(inst, k)
            if isinstance(out, ExpandingSequence):
                assert len(out.receivers) == k + 1
                assert is_expanding_sequence(inst, out.receivers)
            else:
                cover = build_cover(inst, k, out)
                assert not verify_cover(inst, cover)
                bound = 6 * k * max(pow_frac_enclosure(n, k)[1], 1)
                leaves += len(out.leaves)
                nominal = len(out.cliques) + sum(4 * d + 2 for _, d in out.leaves)
                assert cover.total <= nominal <= bound
    assert leaves


def test_expanding_or_cover_on_tri3():
    out = decide_expanding_or_cover(tri3(), 1)
    # tri3 has an expanding pair
    assert isinstance(out, ExpandingSequence)


def _corpus(rng, count):
    """Seeded random instances (every third one weighted) and graphs, after
    three whose rate classes take the cover: K_7, K_8, and K_3 at rate 1
    beside K_7 at rate 1/2 (the cover in the second class)."""
    k3_k7 = Graph.from_edge_list(
        10, [(u, v) for u in range(10) for v in range(u) if (u < 3) == (v < 3)]
    )
    rates = tuple(F(1) if v < 3 else F(1, 2) for v in range(10))
    out = [from_graph(complement(Graph(n, frozenset()))) for n in (7, 8)]
    out.append(Instance(10, from_graph(k3_k7).receivers, rates))
    while len(out) < count:
        n = rng.randrange(2, 9)
        if len(out) % 2:
            inst = from_graph(random_gnp(n, rng.random(), rng))
        else:
            inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        if len(out) % 3 == 0:
            rates = tuple(F(1, rng.choice((1, 2, 3, 4, 8))) for _ in range(n))
            inst = Instance(n, inst.receivers, rates)
        out.append(inst)
    return out


def _same_outcome(inst, k, decided, want, seed=0):
    # the decision's sequence, or the cover built from its parts, items
    # and total, equals the one-pass recursion's
    if isinstance(want, ExpandingSequence):
        assert decided == want
    else:
        assert isinstance(decided, CoverParts)
        assert build_cover(inst, k, decided, seed=seed) == want


def _refuse(*args, **kwargs):
    raise AssertionError("the decision built an instance")


def test_decision_matches_single_pass_recursion(monkeypatch):
    # the split recursion against the one-pass one, at every k up to tau's
    # cap; the decision recurses on masks and builds no sub-instance
    rng = random.Random(57)
    with exact_leaves():
        for inst in _corpus(rng, 120):
            for k in range(1, (inst.n - 1).bit_length() + 3):
                want = expanding_or_cover_reference(inst, k)
                with monkeypatch.context() as mp:
                    mp.setattr(approx, "Instance", _refuse)
                    decided = decide_expanding_or_cover(inst, k)
                _same_outcome(inst, k, decided, want)


def test_tau_builds_no_class_sub_instance(monkeypatch):
    # tau decides each rate class on its message mask: a tau whose classes
    # all take the trivial choice builds no instance at all, weighted
    # instances with several classes and a 160-vertex graph included
    rng = random.Random(61)
    insts = _corpus(rng, 90)
    insts.append(from_graph(random_gnp(160, 0.5, rng)))
    checked = several = 0
    for inst in insts:
        want = tau(inst, seed=2)
        if want.fallback or any(c.choice == "cover" for c in want.classes):
            continue
        with monkeypatch.context() as mp:
            mp.setattr(approx, "Instance", _refuse)
            assert tau(inst, seed=2) == want
        checked += 1
        several += inst.is_weighted() and len(want.classes) > 1
    assert checked > 40 and several > 5


def test_decision_matches_single_pass_recursion_monte_carlo():
    rng = random.Random(58)
    for inst in _corpus(rng, 4):
        for k in (1, 2):
            want = expanding_or_cover_reference(inst, k, seed=5)
            _same_outcome(inst, k, decide_expanding_or_cover(inst, k), want, seed=5)


def test_decision_checks_the_leaf_precondition(monkeypatch):
    # a dense leaf whose d misses a receiver's blind set is refused by the
    # decision itself, as low_degree_cover would refuse it
    inst = from_graph(cycle(5))
    monkeypatch.setattr(approx, "pow_frac_ceil", lambda n, k: 0)
    with pytest.raises(ValueError, match=r"\|S\| \+ d"):
        decide_expanding_or_cover(inst, 3)


def test_tau_matches_single_pass_reference():
    # the same certificate with exact leaves and, on the last four
    # instances, with sampled ones: no leaf is sampled for tau's value at
    # these sizes
    rng = random.Random(59)
    exact, sampled = _corpus(rng, 80), _corpus(rng, 4)

    def check(inst):
        got = tau(inst, seed=3)
        want = tau_reference(inst, seed=3)
        for c in got.classes:
            assert (c.cover is None) == (c.choice == "trivial")
            c.cover = None
        assert got.mode == "exact"
        assert got == want

    with exact_leaves():
        for inst in exact:
            check(inst)
    for inst in sampled:
        check(inst)


def test_tau_cover_on_complete_graph():
    inst = from_graph(complement(Graph(8, frozenset())))
    cert = tau(inst)
    (cls,) = cert.classes
    assert cls.choice == "cover" and cls.k == 1
    assert cls.cover_term == 12 and cls.term == 6
    assert not verify_cover(inst, cls.cover)
    assert cls.cover.total <= 6 * cls.k * max(pow_frac_enclosure(8, cls.k)[1], 1)
    assert cert.mode == "exact"  # one hyperclique, no leaf sampled


def _faults_on(inst, vertices, cover):
    """verify_cover's faults of cover as a unit-rate weak cover of the
    receivers wanting into `vertices`, by receiver index of inst, on their
    own instance."""
    ids = sorted(j for j, r in enumerate(inst.receivers) if r.wants in vertices)
    local = {j: i for i, j in enumerate(ids)}
    sub = Instance(inst.n, tuple(inst.receivers[j] for j in ids))
    assert all(s <= set(ids) for s, _ in cover.items)
    items = [(frozenset(local[j] for j in s), w) for s, w in cover.items]
    return verify_cover(sub, FractionalCover("weak", items, cover.total))


def _assert_class_cover(inst, c):
    # c's cover covers, at unit rate, every receiver wanting into the
    # class, by receiver index of the instance
    assert not _faults_on(inst, c.vertices, c.cover)


def test_tau_class_covers():
    # a winning class carries its cover; trivial classes carry none
    rng = random.Random(60)
    seen = {"cover": 0, "trivial": 0}
    for inst in _corpus(rng, 60):
        for c in tau(inst).classes:
            seen[c.choice] += 1
            if c.choice == "trivial":
                assert c.cover is None
            else:
                _assert_class_cover(inst, c)
    assert seen["cover"] and seen["trivial"]


def _counted_tau(monkeypatch, inst, seed=0):
    """tau(inst, seed), with the (k, message mask) of each decision it ran
    and the number of exact cover checks it made."""
    decided, checks = [], []
    decide, verify = approx._decide, approx.verify_cover
    with monkeypatch.context() as mp:
        mp.setattr(approx, "_decide", lambda i, k, top: decided.append((k, top)) or decide(i, k, top))
        mp.setattr(approx, "verify_cover", lambda *a: checks.append(a) or verify(*a))
        cert = tau(inst, seed=seed)
    return cert, decided, len(checks)


def _assert_decided_once(cert, decided, checks):
    # one decision per k up to the class's k, none again for a winning
    # class, and one exact check per built cover
    assert decided == [(k, to_mask(c.vertices)) for c in cert.classes for k in range(1, c.k + 1)]
    assert checks == sum(c.choice == "cover" for c in cert.classes)


def test_tau_decides_once_and_checks_each_cover_once(monkeypatch):
    rng = random.Random(62)
    built = 0
    for inst in _corpus(rng, 40):
        cert, decided, checks = _counted_tau(monkeypatch, inst, seed=3)
        assert cert == tau(inst, seed=3)
        if cert.fallback:
            assert not decided and not checks
            continue
        _assert_decided_once(cert, decided, checks)
        built += checks
    assert built >= 3


def test_tau_samples_the_leaves_of_a_winning_cover(monkeypatch):
    # the complement of a perfect matching on 144 vertices: k = 2, and the
    # cover term 12 * 2 * 12 ties the trivial 2n, so the cover is built and
    # its dense leaves are sampled; the sampler makes no exact check, so
    # the built cover's one check is the only one
    n = 144
    inst = from_graph(complement(Graph.from_edge_list(n, [(v, v + 1) for v in range(0, n, 2)])))
    cert, decided, checks = _counted_tau(monkeypatch, inst, seed=1)
    (c,) = cert.classes
    assert (c.k, c.cover_term, c.trivial_term, c.choice) == (2, 288, 288, "cover")
    assert cert.mode == "monte-carlo" and cert.value == 144
    _assert_decided_once(cert, decided, checks)
    assert checks == 1
    _assert_class_cover(inst, c)
    assert c.cover.total <= MC_INFLATION * c.cover_term / 2 <= c.cover_term


def test_tau_upper_bounds_weak_cover():
    rng = random.Random(54)
    for _ in range(200):
        n = rng.randrange(2, 9)
        inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        cert = tau(inst)
        psi = fractional_cover(inst, "weak").total
        assert cert.value >= psi
        # the certificate's terms recompose to its value
        if cert.classes:
            assert sum(c.term for c in cert.classes) == cert.value


def test_tau_small_n_fallback():
    cert = tau(tri3())
    assert cert.fallback is not None
    assert cert.value == 3


def test_tau_weighted():
    inst = Instance(
        5,
        tuple(Receiver((v + 1) % 5, frozenset({(v + 4) % 5})) for v in range(5)),
        rates=(F(1), F(1, 2), F(1, 4), F(1), F(1, 8)),
    )
    cert = tau(inst)
    psi = fractional_cover(inst, "weak").total
    assert cert.value >= psi
    assert len({c.s for c in cert.classes}) == len(cert.classes)


def test_tau_monte_carlo_mode():
    # the mode says whether a winning cover sampled a leaf, which needs
    # n >= 144, not how many messages there are; the instance alone decides
    rng = random.Random(55)
    for n in (8, 20, 21):
        inst = random_instance(n, 2 * n, rng)
        cert = tau(inst, seed=9)
        assert cert.mode == "exact"
        assert cert.seed == 9
        assert cert.value >= fractional_cover(inst, "weak").total
    with pytest.raises(TypeError):
        tau(inst, mc=True)
    with pytest.raises(TypeError):
        approximate_beta(inst, mc=True)


def test_ratio_bound_certified():
    for n in (4, 10, 100, 10_000):
        rb = ratio_bound(n)
        truth = n * (2 * math.log2(math.log2(n)) + 24) / math.log2(n)
        assert float(rb) >= truth - 1e-6
        assert float(rb) <= truth * 1.01 + 1
    with pytest.raises(ValueError):
        ratio_bound(3)


def test_approximate_beta_report():
    rng = random.Random(56)
    for _ in range(50):
        n = rng.randrange(4, 9)
        inst = random_instance(n, rng.randrange(n, 2 * n + 1), rng)
        rep = approximate_beta(inst)
        assert rep.lower <= rep.upper
        assert is_expanding_sequence(inst, rep.sequence.receivers)
        assert rep.ratio_bound == ratio_bound(n)
