import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
import combinatorial_reference as reference
from combinatorial_reference import alpha_exact as reference_alpha
from combinatorial_reference import enumerate_maximal_hypercliques as reference_hypercliques
from codes_reference import decoders_reference

from icbounds import codes, combinatorial
from icbounds.codes import CodeScheme, _decoders, minrk_code, side_rows, strong_cover_code, verify_code
from icbounds.combinatorial import (
    ExpandingSequence,
    FractionalCover,
    alpha_exact,
    enumerate_maximal_hypercliques,
    fits_graph,
    fractional_cover,
    integer_clique_cover,
    is_expanding_sequence,
    is_strong_hyperclique,
    is_weak_hyperclique,
    minrk2,
    rank_mod_p,
    representation_rank,
    row_reduce,
    sequence_weight,
    verify_cover,
)
from icbounds.families import cycle, complement, petersen, random_gnp, random_instance, tri3
from icbounds.hierarchy import solve_bk
from icbounds.instance import CapExceeded, Graph, Instance, Receiver, from_graph
from icbounds.lp import LpProblem, solve_min

F = Fraction


def test_rank_mod_p():
    assert rank_mod_p([[1, 2], [2, 4]], 5) == 1
    assert rank_mod_p([[1, 2], [2, 0]], 3) == 2
    assert rank_mod_p([[0, 0], [0, 0]], 7) == 0
    # GF(2) rows 0b101, 0b011, 0b110 (bit v in column v) sum to zero
    assert rank_mod_p([[1, 0, 1], [1, 1, 0], [0, 1, 1]], 2) == 2
    assert rank_mod_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2) == 3
    assert rank_mod_p([[0], [0]], 2) == 0


def _span(rows, p, n):
    """Every F_p combination of `rows`, by enumeration."""
    out = {(0,) * n}
    for row in rows:
        out = {tuple((a + c * b) % p for a, b in zip(v, row)) for v in out for c in range(p)}
    return out


def _mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def test_row_reduce_against_direct_checks(monkeypatch):
    rng = random.Random(12)
    solved = {True: 0, False: 0}
    eliminated = []  # the systems _decoders hands to row_reduce

    def counted(mat, p):
        eliminated.append(mat)
        return row_reduce(mat, p)

    monkeypatch.setattr(codes, "row_reduce", counted)
    answered = {"shortcut": 0, "elimination": 0}  # receivers of the solved encoders
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        m, n = rng.randint(1, 4 if p <= 3 else 3), rng.randint(1, 5)
        mat = []
        for _ in range(m):  # a third of the rows depend on earlier ones
            if mat and rng.random() < 1 / 3:
                cs = [rng.randrange(p) for _ in mat]
                row = [sum(c * r[v] for c, r in zip(cs, mat)) for v in range(n)]
            else:
                row = [rng.randrange(-p, 2 * p) for _ in range(n)]
            mat.append(row)
        copy = [list(row) for row in mat]
        red, pivots = row_reduce(mat, p)
        assert mat == copy
        assert row_reduce(np.array(mat), p) == (red, pivots)  # an int64 array reads the same
        rank = len(pivots)
        # reduced row-echelon form with the same row space, of size p^rank
        assert pivots == sorted(set(pivots)) and len(red) == rank
        for row, c in zip(red, pivots):
            assert row[c] == 1 and not any(row[:c])
            assert all(0 <= v < p for v in row)
            assert sum(1 for other in red if other[c]) == 1
        span = _span(mat, p, n)
        assert _span(red, p, n) == span and len(span) == p**rank
        assert rank_mod_p(mat, p) == rank
        # row basis and span solve from the reduced transpose
        red_t, basis = row_reduce([list(col) for col in zip(*mat)], p)
        first = [j for j in range(m)
                 if tuple(v % p for v in mat[j]) not in _span(mat[:j], p, n)]
        assert basis == first and len(basis) == rank
        for j in range(m):
            e = [row[j] for row in red_t]
            got = [sum(c * mat[b][v] for c, b in zip(e, basis)) % p for v in range(n)]
            assert got == [v % p for v in mat[j]]
        # decoder solve: a random encoder for d symbols per message either
        # gets decoders meeting bc E + sc = Sel_f(j), sc the side rows bc
        # implies, zero outside N(j), equal entry for entry to the list
        # solve's, or is refused, as by the list solve, exactly when some
        # selector is outside E_U's span; the solved receivers are counted
        # by how _decoders answered them, read off a local pivot row or
        # through row_reduce, and both must be many
        d, k = rng.randint(1, 2), rng.randint(1, 3)
        inst = random_instance(k, rng.randint(1, 2 * k), rng)
        enc = [[rng.randrange(p) for _ in range(k * d)]
               for _ in range(rng.randint(1, 4 if p <= 3 else 3))]
        blocked = None
        for j, r in enumerate(inst.receivers):
            cols = [c for c in range(k * d) if c // d not in r.knows]
            span = _span([[row[c] for c in cols] for row in enc], p, len(cols))
            if any(tuple(int(c == r.wants * d + t) for c in cols) not in span
                   for t in range(d)):
                blocked = (j, r.wants)
                break
        if blocked is not None:
            solved[False] += 1
            for solve, e in ((_decoders, np.array(enc)), (decoders_reference, enc)):
                with pytest.raises(ValueError, match=f"receiver {blocked[0]} cannot decode "
                                                     f"message {blocked[1]}$"):
                    solve(inst, p, d, e)
            continue
        solved[True] += 1
        eliminated.clear()
        coef = _decoders(inst, p, d, np.array(enc))
        side = side_rows(inst, CodeScheme(p, d, np.array(enc), coef, Fraction(1))).tolist()
        bcast = coef.tolist()
        assert (bcast, side) == decoders_reference(inst, p, d, enc)
        answered["elimination"] += len(eliminated)
        answered["shortcut"] += inst.m - len(eliminated)
        for j, r in enumerate(inst.receivers):
            sel = [[int(c == r.wants * d + t) for c in range(k * d)] for t in range(d)]
            bc, sc = bcast[j * d : (j + 1) * d], side[j * d : (j + 1) * d]
            bce = _mul(bc, enc, p)
            assert [[(a + b) % p for a, b in zip(x, y)] for x, y in zip(bce, sc)] == sel
            assert all(row[c] == 0 for row in sc for c in range(k * d) if c // d not in r.knows)
    assert min(solved.values()) >= 50
    assert min(answered.values()) >= 50


def _brute_minrk2(inst):
    """Minimum GF(2) rank over every fitting matrix, by enumeration."""
    slots = [(j, v) for j, r in enumerate(inst.receivers) for v in sorted(r.knows)]
    best = inst.m
    for bits in product((0, 1), repeat=len(slots)):
        mat = [[int(v == r.wants) for v in range(inst.n)] for r in inst.receivers]
        for (j, v), b in zip(slots, bits):
            mat[j][v] = b
        best = min(best, rank_mod_p(mat, 2))
    return best


def test_minrk2_on_random_instances():
    rng = random.Random(13)
    brute = done = 0
    while done < 60:
        n = rng.randint(1, 6)
        inst = random_instance(n, rng.randint(1, 2 * n), rng)
        free = sum(len(r.knows) for r in inst.receivers)
        if free > combinatorial.MINRK_FREE_ENTRY_CAP:
            continue
        done += 1
        mr = minrk2(inst)
        assert mr.exact and mr.field == 2
        assert not fits_graph(inst, mr.matrix, 2)
        assert rank_mod_p(mr.matrix, 2) == mr.value
        if free <= 10:
            brute += 1
            assert mr.value == _brute_minrk2(inst)
        b2 = solve_bk(inst, min(2, n)).value
        assert math.ceil(b2) <= mr.value
        scheme = minrk_code(inst, mr)
        assert scheme.rate == mr.value
        assert verify_code(inst, scheme, mode="exhaustive").passed
    assert brute >= 20


def test_alpha_on_cycles():
    assert alpha_exact(from_graph(cycle(5)))[0] == 2
    assert alpha_exact(from_graph(cycle(7)))[0] == 3
    a, seq = alpha_exact(from_graph(petersen()))
    assert a == 4
    assert is_expanding_sequence(from_graph(petersen()), seq.receivers)


def test_integer_alpha_search_matches_the_fraction_search():
    # scaling every weight by the rates' common denominator keeps every
    # comparison and tie, so value and sequence are the Fraction search's
    rng = random.Random(26)
    weighted = fractional = 0
    for i in range(540):
        n = rng.randrange(2, 10)
        if i % 3 == 2:
            inst = from_graph(random_gnp(n, rng.random(), rng))
        else:
            inst = random_instance(n, rng.randrange(1, 2 * n + 2), rng)
        if i % 3 == 0:  # rates over mixed denominators, some repeated
            dens = [rng.choice((1, 2, 3, 4, 5, 6, 7, 9, 12, 35)) for _ in range(n)]
            inst = Instance(n, inst.receivers, tuple(F(rng.randrange(1, q + 1), q) for q in dens))
            weighted += inst.is_weighted()
        a, seq = alpha_exact(inst)
        want_a, want_seq = reference_alpha(inst)
        assert (a, seq) == (want_a, ExpandingSequence(want_seq, want_a)), i
        assert type(a) is Fraction and is_expanding_sequence(inst, seq.receivers)
        fractional += a.denominator > 1
    assert weighted >= 170 and fractional >= 100


def test_expanding_sequence_validation():
    inst = from_graph(cycle(5))
    assert is_expanding_sequence(inst, [0, 2])
    assert not is_expanding_sequence(inst, [0, 1])  # 1 is in S(0)
    assert sequence_weight(inst, [0, 2]) == 2


def test_hypercliques_on_tri3():
    # tri3's one-sided knowledge admits no hyperclique beyond singletons,
    # which is exactly why both cover numbers sit at 3
    inst = tri3()
    for pair in combinations(range(3), 2):
        assert not is_weak_hyperclique(inst, pair)
        assert not is_strong_hyperclique(inst, pair)
    for j in range(3):
        assert is_weak_hyperclique(inst, [j])
        assert is_strong_hyperclique(inst, [j])
    assert fractional_cover(inst, "weak").total == 3
    assert fractional_cover(inst, "strong").total == 3


def test_weak_hyperclique_on_clique_instance():
    # a graph clique gives both kinds of hyperclique
    g = Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    inst = from_graph(g)
    assert is_weak_hyperclique(inst, [0, 1, 2])
    assert is_strong_hyperclique(inst, [0, 1, 2])


def test_strong_at_least_weak():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(2, 6)
        g = random_gnp(n, rng.random(), rng)
        inst = from_graph(g)
        weak = fractional_cover(inst, "weak")
        strong = fractional_cover(inst, "strong")
        assert not verify_cover(inst, weak)
        assert not verify_cover(inst, strong)
        assert strong.total >= weak.total


def test_fractional_cover_values():
    assert fractional_cover(from_graph(cycle(5)), "strong").total == F(5, 2)
    assert fractional_cover(from_graph(complement(cycle(7))), "strong").total == F(7, 3)
    assert fractional_cover(from_graph(petersen()), "strong").total == 5


def test_cover_lp_is_certified_by_rounding(monkeypatch):
    seen = []

    def spy(p):
        seen.append(solve_min(p))
        return seen[-1]

    monkeypatch.setattr(combinatorial, "solve_min", spy)
    assert fractional_cover(from_graph(complement(cycle(7))), "strong").total == F(7, 3)
    assert [o.method for o in seen] == ["rounded"]


def _wanted_by(inst):
    """owner[v]: the one distinct receiver wanting message v, on a unicast
    instance (distinct receivers want pairwise different messages and every
    message is wanted); None otherwise."""
    reps = inst.distinct_receivers()
    owner = {inst.receivers[j].wants: j for j in reps}
    return [owner[v] for v in range(inst.n)] if len(owner) == len(reps) == inst.n else None


def _row_by_row_lp(inst, kind):
    """(cliques, LP): the cover LP appended a row at a time with
    LpProblem.add from enumerate_maximal_hypercliques."""
    cliques = enumerate_maximal_hypercliques(inst, kind)
    if kind == "strong":
        targets = [(v, inst.rate(v)) for v in range(inst.n)]
    else:
        targets = [(j, inst.rate(inst.receivers[j].wants)) for j in inst.distinct_receivers()]
    ref = LpProblem(len(cliques), dict.fromkeys(range(len(cliques)), 1))
    for t, r in targets:
        ref.add({j: 1 for j, c in enumerate(cliques) if t in c}, r)
    return cliques, ref


def test_cover_lp_arrays_match_row_by_row_build(monkeypatch):
    # the cover LP built in one pass equals the one appended a row at a time
    # with LpProblem.add, and so does the cover it certifies; on a unicast
    # instance the weak cover comes from the strong LP, which must equal the
    # reference weak LP relabelled by owner (receiver owner[v] -> message v)
    built = []

    def spy(p):
        built.append(p)
        return solve_min(p)

    monkeypatch.setattr(combinatorial, "solve_min", spy)
    rng = random.Random(17)
    unicast_weak = 0
    for i in range(80):
        n = rng.randint(1, 8)
        if i % 2:
            inst = from_graph(random_gnp(n, rng.random(), rng))
        else:
            inst = random_instance(n, rng.randint(1, 2 * n), rng)
            rates = tuple(F(1, rng.choice((1, 2, 3))) for _ in range(n))
            inst = Instance(n, inst.receivers, rates if i % 4 == 0 else None)
        owner = _wanted_by(inst)
        for kind in ("weak", "strong"):
            if not inst.m and kind == "weak":
                continue
            cover = fractional_cover(inst, kind)
            cliques, ref = _row_by_row_lp(inst, kind)
            relabel = kind == "weak" and owner is not None
            if relabel:
                unicast_weak += 1
                wants = [inst.receivers[j].wants for j in range(inst.m)]
                cliques = sorted((frozenset(wants[j] for j in c) for c in cliques), key=sorted)
                ref = LpProblem(len(cliques), dict.fromkeys(range(len(cliques)), 1))
                for v in range(inst.n):
                    ref.add({j: 1 for j, c in enumerate(cliques) if v in c}, inst.rate(v))
            got = built[-1]
            for name in ("indptr", "indices", "coefs", "rhs_nums", "rhs_dens"):
                assert getattr(got, name).tolist() == getattr(ref, name).tolist(), name
                assert getattr(got, name).dtype == getattr(ref, name).dtype, name
            assert got.objective == ref.objective
            opt = solve_min(ref)
            assert cover.total == opt.value
            expect = [(cliques[j], x) for j, x in enumerate(opt.x) if x > 0]
            if relabel:
                expect = [(frozenset(owner[v] for v in c), x) for c, x in expect]
            assert cover.items == expect
    assert 20 < unicast_weak < 60  # both paths are exercised


def _shared_cover_cases(rng):
    """Seeded instances of every shape the shared cover meets: graphs,
    directed unicast instances with permuted wants, unicast instances with
    identical twin receivers, weighted rates, and non-unicast ones."""
    for i in range(300):
        n = rng.randint(1, 9)
        shape = i % 5
        if shape == 0:
            inst = from_graph(random_gnp(n, rng.random(), rng))
        elif shape in (1, 2, 3):
            wants = rng.sample(range(n), n)
            recs = []
            for w in wants:
                rest = [v for v in range(n) if v != w]
                recs.append(Receiver(w, frozenset(rng.sample(rest, rng.randint(0, len(rest))))))
            if shape == 2:  # identical twins, shuffled in
                recs += [recs[j] for j in rng.choices(range(n), k=rng.randint(1, n))]
                rng.shuffle(recs)
            inst = Instance(n, tuple(recs))
        else:
            inst = random_instance(n, rng.randint(1, 2 * n), rng)
        if i % 3 == 0:
            inst = Instance(n, inst.receivers, tuple(F(1, rng.choice((1, 2, 3, 5))) for _ in range(n)))
        yield inst


def test_shared_cover_matches_the_weak_lp():
    rng = random.Random(1515)
    shapes = {True: 0, False: 0}
    for i, inst in enumerate(_shared_cover_cases(rng)):
        shapes[_wanted_by(inst) is not None] += 1
        kinds = ("weak", "strong") if i % 2 else ("strong", "weak")
        covers = {kind: fractional_cover(inst, kind) for kind in kinds}
        _, ref = _row_by_row_lp(inst, "weak")
        assert covers["weak"].total == solve_min(ref).value
        for kind, cover in covers.items():
            assert cover.kind == kind
            assert verify_cover(inst, cover) == []
        if _wanted_by(inst) is not None:
            assert covers["weak"].total == covers["strong"].total
    assert min(shapes.values()) > 50


def test_unicast_instances_solve_one_cover_lp(monkeypatch):
    calls = []

    def spy(p):
        calls.append(p)
        return solve_min(p)

    monkeypatch.setattr(combinatorial, "solve_min", spy)
    doubled = lambda: Instance(7, from_graph(cycle(7)).receivers * 2)  # unicast, with twins
    for make in (lambda: from_graph(complement(cycle(7))), doubled, tri3):
        for kinds in (("weak", "strong"), ("strong", "weak")):
            inst = make()  # a new instance: nothing kept from an earlier call
            calls.clear()
            for kind in kinds + kinds:
                fractional_cover(inst, kind)
            assert len(calls) == 1, (inst, kinds)
    # two receivers want message 0 with different side information
    inst = Instance(3, (Receiver(0, frozenset({1})), Receiver(0, frozenset({2})),
                        Receiver(1, frozenset({0})), Receiver(2, frozenset({0}))))
    calls.clear()
    assert fractional_cover(inst, "weak").total == 2
    assert fractional_cover(inst, "strong").total == 3
    assert len(calls) == 2


def test_editing_a_returned_cover_leaves_the_kept_one_alone():
    for inst in (from_graph(complement(cycle(7))), from_graph(cycle(5))):
        first = {kind: fractional_cover(inst, kind) for kind in ("weak", "strong")}
        want = {kind: (list(c.items), c.total) for kind, c in first.items()}
        for c in first.values():
            c.items[0] = (frozenset(), F(99))
            c.items.append((frozenset({0}), F(5)))
            c.total = F(0)
        for kind in ("strong", "weak"):
            again = fractional_cover(inst, kind)
            assert (again.items, again.total) == want[kind]
            assert verify_cover(inst, again) == []


def test_integer_clique_cover():
    k, cover = integer_clique_cover(cycle(5))
    assert k == 3
    covered = set().union(*cover)
    assert covered == set(range(5))
    k7, _ = integer_clique_cover(complement(cycle(7)))
    assert k7 == 3


def _min_strong_partition(inst: Instance) -> int:
    """Fewest strong hypercliques partitioning the messages, by dynamic
    programming over message subsets (the family is closed under subsets,
    so a least cover is a partition)."""
    strong = [t for t in range(1, 1 << inst.n)
              if is_strong_hyperclique(inst, {v for v in range(inst.n) if t >> v & 1})]
    best = [0] + [inst.n + 1] * ((1 << inst.n) - 1)
    for mask in range(1, 1 << inst.n):
        low = mask & -mask
        best[mask] = 1 + min(best[mask ^ t] for t in strong if t & low and not t & ~mask)
    return best[-1]


def test_integer_clique_cover_on_instances():
    # on any instance the cover is a least cover by strong hypercliques, and
    # its unit-weight strong-cover code decodes at rate k
    rng = random.Random(23)
    for i in range(150):
        n = rng.randint(1, 7)
        inst = random_instance(n, rng.randint(1, 2 * n), rng)
        if i % 4 == 0:  # identical receivers
            inst = Instance(n, inst.receivers + inst.receivers[: rng.randint(1, inst.m)])
        k, cover = integer_clique_cover(inst)
        assert k == len(cover) == _min_strong_partition(inst)
        assert all(is_strong_hyperclique(inst, c) for c in cover)
        assert sorted(v for c in cover for v in c) == list(range(n))
        unit = FractionalCover("strong", [(c, F(1)) for c in cover], F(k))
        assert not verify_cover(inst, unit)
        scheme = strong_cover_code(inst, unit)
        assert scheme.rate == k
        assert verify_code(inst, scheme, mode="exhaustive").passed


def test_maximal_hypercliques():
    inst = from_graph(cycle(5))
    strong = enumerate_maximal_hypercliques(inst, "strong")
    # maximal strong hypercliques of a graph instance = maximal cliques
    assert sorted(sorted(s) for s in strong) == [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]] or len(strong) == 5


def test_maximal_hypercliques_match_the_networkx_reference():
    # seeded graphs from empty to complete, random instances with identical
    # receivers and weighted ones, and n = 0, 1: the bitset enumeration
    # returns the reference's list, order included
    rng = random.Random(29)
    insts = [from_graph(random_gnp(rng.randint(1, 14), rng.random(), rng)) for _ in range(200)]
    insts += [from_graph(complement(random_gnp(rng.randint(8, 16), rng.uniform(0.05, 0.3), rng)))
              for _ in range(50)]
    for i in range(200):
        n = rng.randint(1, 9)
        inst = random_instance(n, rng.randint(1, 2 * n), rng)
        if i % 3 == 0:  # identical receivers
            inst = Instance(n, inst.receivers + inst.receivers[: rng.randint(1, inst.m)])
        insts.append(inst)
    insts += [Instance(1, ()), from_graph(Graph.from_edge_list(1, [])), Instance(0, ()),
              random_instance(1, 3, rng), tri3(), from_graph(petersen())]
    sizes = set()
    for inst in insts:
        for kind in ("weak", "strong"):
            got = enumerate_maximal_hypercliques(inst, kind)
            assert got == reference_hypercliques(inst, kind)
            sizes.update(len(c) for c in got)
    assert len(insts) >= 400 and {1, 2, 3, 4} <= sizes
    with pytest.raises(ValueError, match="kind"):
        enumerate_maximal_hypercliques(tri3(), "medium")


def test_representation_rank_identity():
    inst = from_graph(Graph.from_edge_list(3, []))
    res = representation_rank(inst, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    assert res.value == 3
    bad = fits_graph(inst, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 2)
    assert bad  # nonzero off-diagonal on a non-edge
    assert fits_graph(inst, [[1, 0, 0], [0, 2, 0], [0, 0, 1]], 2)  # zero mod 2 at f(1)
    assert fits_graph(inst, [[1, 0, 0], [0, 1, 0]], 2) == ["matrix is not 3 x 3"]
    with pytest.raises(ValueError, match="does not fit"):
        representation_rank(inst, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 2)


def test_representation_rank_refuses_a_field_that_is_not_prime():
    # over Z/4 the elimination would take 2 as a pivot: the rank of a ring,
    # not a minrank
    inst = from_graph(Graph.from_edge_list(2, [(0, 1)]))
    for p in (4, 6, 9):
        with pytest.raises(ValueError, match=f"^matrix field {p} is not a prime$"):
            representation_rank(inst, [[1, 2], [2, 1]], p)
    assert representation_rank(inst, [[1, 2], [2, 1]], 5).value == 2


def test_representation_rank_over_a_61_bit_field_answers_at_once():
    # the field's primality test is Miller-Rabin: trial division up to
    # sqrt(2^61 - 1) would take minutes
    inst = from_graph(cycle(5))
    p = 2**61 - 1
    gram = [[1 if u == v else (p - 1 if (u - v) % 5 in (1, 4) else 0) for v in range(5)]
            for u in range(5)]
    t0 = time.perf_counter()
    res = representation_rank(inst, gram, p)
    assert time.perf_counter() - t0 < 1
    assert res.field == p and res.value == 5
    with pytest.raises(ValueError, match="exact only below"):
        representation_rank(inst, gram, 2**127 - 1)


def test_fitting_matrix_of_an_instance():
    # tri3: receiver j knows message j and wants j + 1 (mod 3)
    inst = tri3()
    mr = minrk2(inst)
    assert (mr.value, mr.exact) == (2, True)
    assert not fits_graph(inst, mr.matrix, 2)
    assert rank_mod_p(mr.matrix, 2) == 2
    assert fits_graph(inst, [[1, 1, 1], [0, 1, 1], [1, 0, 1]], 2) == [
        "receiver 0: nonzero entry at message 2 outside N(0)"
    ]
    # over F_3 each row has a 2 at f(j), which its decoder divides by
    rep = representation_rank(inst, [[1, 2, 0], [0, 1, 2], [2, 0, 1]], 3)
    assert rep.value == 2
    scheme = minrk_code(inst, rep)
    assert scheme.rate == 2
    assert verify_code(inst, scheme, mode="exhaustive").passed


def test_minrk2_small():
    assert minrk2(cycle(5)).value == 3
    assert minrk2(cycle(4)).value == 2
    # complete graph: all-ones matrix has rank 1
    k4 = Graph.from_edge_list(4, list(combinations(range(4), 2)))
    assert minrk2(k4).value == 1
    empty = Graph.from_edge_list(3, [])
    assert minrk2(empty).value == 3
    # Petersen has 30 free entries, above the default cap
    with pytest.raises(CapExceeded, match="minrk-free-entries: needed 30, limit 26"):
        minrk2(petersen())


def test_minrk2_shares_rows_between_twins():
    # identical receivers share one row: C7 with every receiver doubled
    # counts its 14 distinct free entries, not 28, and keeps minrank 4
    c7 = from_graph(cycle(7))
    doubled = Instance(7, c7.receivers + c7.receivers)
    mr = minrk2(doubled)
    assert mr.value == 4 == minrk2(c7).value
    assert not fits_graph(doubled, mr.matrix, 2)
    assert mr.matrix[:7] == mr.matrix[7:]
    assert rank_mod_p(mr.matrix, 2) == 4
    with pytest.raises(CapExceeded, match="needed 14, limit 13"):
        minrk2(doubled, cap=13)
    # a graph has no twins: its search and matrix are the graph's own
    assert minrk2(from_graph(cycle(5))) == minrk2(cycle(5))


def test_minrk2_bounds_b2():
    # ceil(b2) <= minrk2 wherever the search is exact
    rng = random.Random(6)
    done = 0
    while done < 40:
        n = rng.randrange(3, 7)
        g = random_gnp(n, rng.random(), rng)
        if 2 * len(g.edge_list()) > 26:
            continue
        done += 1
        mr = minrk2(g)
        assert mr.exact
        b2 = solve_bk(from_graph(g), 2).value
        assert -(-b2.numerator // b2.denominator) <= mr.value


def test_vertex_transitive_cover_is_n_over_omega():
    # chi_bar_f = n/omega on vertex-transitive graphs
    for g, omega in [(cycle(5), 2), (cycle(7), 2), (complement(cycle(7)), 3), (petersen(), 2)]:
        assert fractional_cover(from_graph(g), "strong").total == F(g.n, omega)


def test_cover_verifier_catches_bad_weights():
    inst = from_graph(cycle(5))
    cov = fractional_cover(inst, "strong")
    broken = type(cov)(cov.kind, [(s, w / 2) for s, w in cov.items], cov.total / 2)
    assert verify_cover(inst, broken)


def _non_unicast(rng):
    """A random instance with an unwanted message and, often, identical
    copies of some receivers; every third one weighted."""
    n = rng.randint(2, 8)
    recs = []
    for _ in range(rng.randint(1, 2 * n)):
        w = rng.randrange(n - 1)  # message n - 1 is wanted by no one
        rest = [v for v in range(n) if v != w]
        recs.append(Receiver(w, frozenset(rng.sample(rest, rng.randint(0, len(rest))))))
    if rng.random() < 0.5:
        recs += rng.choices(recs, k=rng.randint(1, len(recs)))
        rng.shuffle(recs)
    rates = tuple(F(1, rng.choice((1, 2, 3, 5))) for _ in range(n)) if rng.random() < 1 / 3 else None
    return Instance(n, tuple(recs), rates)


def _tampered(cover, inst, rng):
    """cover with one fault or none: an item dropped, added or reweighted,
    or the total changed."""
    items = list(cover.items)
    pool = range(inst.n) if cover.kind == "strong" else inst.distinct_receivers()
    change = rng.randrange(5)
    if change == 0 and items:
        items.pop(rng.randrange(len(items)))
    elif change == 1:
        items.append((frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool))))), F(1, 2)))
    elif change == 2 and items:
        k = rng.randrange(len(items))
        items[k] = (items[k][0], items[k][1] * rng.choice((F(1, 2), F(-1), F(3, 2))))
    total = sum((w for _, w in items), F(0))
    if change == 3:
        total += F(1, 7)
    return FractionalCover(cover.kind, items, total)


def test_both_kinds_match_the_two_relation_reference():
    # strong hypercliques read as the weak ones of the message instance: on
    # non-unicast instances the strong predicate, the maximal hypercliques,
    # both covers and the cover check's faults, tampered covers included,
    # equal the reference's, which keeps its strong and weak graphs apart
    rng = random.Random(32)
    twins = faults = 0
    for _ in range(250):
        inst = _non_unicast(rng)
        twins += len(inst.distinct_receivers()) < inst.m
        for t in range(1, 1 << inst.n):
            members = [v for v in range(inst.n) if t >> v & 1]
            assert is_strong_hyperclique(inst, members) == reference.is_strong_hyperclique(inst, members)
        for kind in ("weak", "strong"):
            assert enumerate_maximal_hypercliques(inst, kind) == reference_hypercliques(inst, kind)
            cover = fractional_cover(inst, kind)
            assert (cover.items, cover.total) == reference.fractional_cover(inst, kind)
            for cov in (cover, _tampered(cover, inst, rng)):
                got = verify_cover(inst, cov)
                assert got == reference.verify_cover(inst, cov)
                faults += bool(got)
    assert twins > 50 and faults > 150


def test_a_tampered_strong_cover_is_refused_in_its_own_words():
    inst = tri3()
    cover = fractional_cover(inst, "strong")
    bad = FractionalCover("strong", cover.items + [(frozenset({0, 1}), F(1))], cover.total + 1)
    assert verify_cover(inst, bad) == ["[0, 1] is not a strong hyperclique"]
    # message 3, wanted by no one, must still be covered at its rate
    inst = Instance(4, inst.receivers, (F(1), F(1), F(1), F(1, 2)))
    cover = fractional_cover(inst, "strong")
    assert [(sorted(s), w) for s, w in cover.items] == [([0], 1), ([1], 1), ([2], 1), ([3], F(1, 2))]
    short = FractionalCover("strong", [(frozenset({0}), F(1, 8))] + cover.items[1:3], F(17, 8))
    assert verify_cover(inst, short) == ["message 0 covered 1/8 < 1", "message 3 covered 0 < 1/2"]
