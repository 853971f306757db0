import random
from fractions import Fraction
from itertools import combinations

import pytest

from icbounds import combinatorial
from icbounds.combinatorial import (
    ExpandingSequence,
    alpha_exact,
    enumerate_maximal_hypercliques,
    fits_graph,
    fractional_cover,
    integer_clique_cover,
    is_expanding_sequence,
    is_strong_hyperclique,
    is_weak_hyperclique,
    minrk2,
    rank_gf2,
    rank_mod_p,
    representation_rank,
    sequence_weight,
    verify_cover,
)
from icbounds.families import cycle, complement, petersen, random_gnp, tri3
from icbounds.hierarchy import solve_bk
from icbounds.instance import CapExceeded, Graph, from_graph
from icbounds.lp import LpOptimum, solve_min

F = Fraction


def test_rank_gf2():
    assert rank_gf2([0b101, 0b011, 0b110]) == 2
    assert rank_gf2([0b1, 0b10, 0b100]) == 3
    assert rank_gf2([0, 0]) == 0


def test_rank_mod_p():
    assert rank_mod_p([[1, 2], [2, 4]], 5) == 1
    assert rank_mod_p([[1, 2], [2, 0]], 3) == 2
    assert rank_mod_p([[0, 0], [0, 0]], 7) == 0


def test_alpha_on_cycles():
    assert alpha_exact(from_graph(cycle(5)))[0] == 2
    assert alpha_exact(from_graph(cycle(7)))[0] == 3
    a, seq = alpha_exact(from_graph(petersen()))
    assert a == 4
    assert is_expanding_sequence(from_graph(petersen()), seq.receivers)


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
    assert [(o.method, o.fallback) for o in seen] == [("rounded", None)]


def test_cover_rejects_non_optimal_lp(monkeypatch):
    # an explicit raise, not an assert, so it holds under python -O too
    monkeypatch.setattr(combinatorial, "solve_min", lambda p: LpOptimum("infeasible"))
    with pytest.raises(AssertionError, match="cover LP came back infeasible"):
        fractional_cover(from_graph(cycle(5)), "strong")


def test_integer_clique_cover():
    k, cover = integer_clique_cover(cycle(5))
    assert k == 3
    covered = set().union(*cover)
    assert covered == set(range(5))
    k7, _ = integer_clique_cover(complement(cycle(7)))
    assert k7 == 3


def test_maximal_hypercliques():
    inst = from_graph(cycle(5))
    strong = enumerate_maximal_hypercliques(inst, "strong")
    # maximal strong hypercliques of a graph instance = maximal cliques
    assert sorted(sorted(s) for s in strong) == [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]] or len(strong) == 5


def test_representation_rank_identity():
    g = Graph.from_edge_list(3, [])
    res = representation_rank(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    assert res.value == 3
    bad = fits_graph(g, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 2)
    assert bad  # nonzero off-diagonal on a non-edge


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
