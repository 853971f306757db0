import random
from fractions import Fraction

import networkx as nx
import pytest
from beta2_reference import decide_reference, sharp_relation
from instance_reference import blind_set

from icbounds.beta2 import decide_beta_eq_2, undirected_beta2, validate_aac
from icbounds.codes import two_symbol_code, verify_code
from icbounds.families import aac_instance, complement, cycle, random_gnp, tri3
from icbounds.hierarchy import solve_bk
from icbounds.instance import Graph, Instance, Receiver, from_graph


def bipartite_complement(rng, n):
    # complement of a random bipartite graph with both sides nonempty
    left = rng.randrange(1, n)
    edges = [
        (u, v) for u in range(left) for v in range(left, n) if rng.random() < 0.6
    ]
    edges.append((0, left))  # at least one edge so the complement needs 2 symbols
    bip = Graph.from_edge_list(n, edges)
    return complement(bip)


def test_blind_and_sharp():
    inst = from_graph(cycle(5))
    assert blind_set(inst.receivers[0], inst.n) == frozenset({2, 3})
    rel = sharp_relation(inst)
    assert frozenset({2, 3}) in rel


def test_decide_true_on_complement_bipartite():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randrange(3, 9)
        g = bipartite_complement(rng, n)
        inst = from_graph(g)
        cert = decide_beta_eq_2(inst)
        assert cert.is_two
        scheme = two_symbol_code(inst, cert.labeling, cert.num_classes)
        assert verify_code(inst, scheme).passed
        assert scheme.rate == 2


def test_decide_false_on_c5():
    inst = from_graph(cycle(5))
    cert = decide_beta_eq_2(inst)
    assert not cert.is_two
    assert cert.aac is not None
    assert validate_aac(inst, cert.aac) == []
    assert cert.bound is not None and cert.bound > 2


def test_validate_aac_refuses_a_vertex_out_of_range():
    # a vertex outside 0..n-1 lies in no blind set
    inst = from_graph(cycle(5))
    w = decide_beta_eq_2(inst).aac
    assert validate_aac(inst, w) == []
    for bad in (5, -1):
        vertices = list(w.vertices)
        vertices[-1] = bad
        wrong = type(w)(w.n, vertices, w.edges)
        assert validate_aac(inst, wrong) == [f"edge {w.n - 1}: v_{w.n} not in the blind set",
                                             f"edge {w.n}: v_{w.n} not in the blind set"]


def test_decide_false_on_aac_instances():
    for n in (1, 2, 3):
        inst = aac_instance(n)
        cert = decide_beta_eq_2(inst)
        assert not cert.is_two
        assert validate_aac(inst, cert.aac) == []
        assert cert.bound == 2 + Fraction(1, n)


def test_aac_bound_matches_b2():
    # the witness lower bound is met with equality by the level-2 LP
    for n in (1, 2):
        assert solve_bk(aac_instance(n), 2).value == 2 + Fraction(1, n)


def test_decide_false_on_tri3_is_not_triggered():
    # tri3 has b2 = 2, so the decider must find a labeling
    cert = decide_beta_eq_2(tri3())
    assert cert.is_two
    assert verify_code(tri3(), two_symbol_code(tri3(), cert.labeling, cert.num_classes)).passed


def test_labeling_properties():
    inst = from_graph(complement(Graph.from_edge_list(4, [(0, 2), (1, 3)])))
    cert = decide_beta_eq_2(inst)
    assert cert.is_two
    lab = cert.labeling
    # constant on every blind set, different at the wanted message
    for j, r in enumerate(inst.receivers):
        t = blind_set(r, inst.n)
        vals = {lab[v] for v in t}
        assert len(vals) <= 1
        if vals:
            assert lab[r.wants] not in vals


def test_undirected_decider_matches_general():
    rng = random.Random(32)
    for _ in range(60):
        n = rng.randrange(3, 8)
        g = random_gnp(n, rng.random(), rng)
        if len(g.edge_list()) == n * (n - 1) // 2:
            continue  # complete graphs sit below rate 2 and are rejected
        cert = decide_beta_eq_2(from_graph(g))
        assert undirected_beta2(g) == cert.is_two


def test_undirected_beta2_matches_networkx_bipartiteness():
    # BFS 2-colouring of the complement against nx.is_bipartite
    rng = random.Random(57)
    graphs = [random_gnp(rng.randint(2, 14), rng.random(), rng) for _ in range(270)]
    graphs += [bipartite_complement(rng, rng.randint(2, 14)) for _ in range(50)]
    graphs += [cycle(n) for n in (4, 5, 6, 7)] + [Graph.from_edge_list(3, [])]
    verdicts = []
    for g in graphs:
        cg = complement(g)
        if not cg.edges:
            continue
        h = nx.Graph()
        h.add_nodes_from(range(cg.n))
        h.add_edges_from(cg.edge_list())
        verdicts.append(undirected_beta2(g))
        assert verdicts[-1] == nx.is_bipartite(h)
    assert len(verdicts) >= 300 and set(verdicts) == {True, False}
    k4 = complement(Graph.from_edge_list(4, []))
    with pytest.raises(ValueError, match="complete graph"):
        undirected_beta2(k4)


def test_witness_path_minimality():
    # a long odd antihole still produces a witness whose bound beats 2
    inst = from_graph(cycle(9))
    cert = decide_beta_eq_2(inst)
    assert not cert.is_two
    assert validate_aac(inst, cert.aac) == []
    assert cert.bound > 2


def test_a_witness_enqueues_new_blind_vertices_in_increasing_order():
    # random_instance-128 of scripts/certificates.py's decide2 corpus: from f(3) = 9
    # the search expands receiver 1's blind set {0, 1, 2, 4, 7, 8, 9}, which
    # meets T(3) = {2, 3, 5, 8} at 2 and 8; it ends at the lower, not at the
    # first in a frozenset's layout
    inst = Instance(10, (Receiver(0, frozenset(range(1, 10))), Receiver(5, frozenset({3, 6})),
                         Receiver(7, frozenset({1, 5})), Receiver(9, frozenset({0, 1, 4, 6, 7}))))
    cert = decide_beta_eq_2(inst)
    assert (cert.reason, cert.bound) == ("aac", 3)
    assert (cert.aac.vertices, cert.aac.edges) == ([9, 5, 2], [3, 1])
    assert validate_aac(inst, cert.aac) == []


def _random_instance(rng):
    n = rng.randint(2, 9)
    recs = [Receiver(rng.randrange(n), frozenset()) for _ in range(rng.randint(1, 2 * n))]
    recs = [Receiver(r.wants, frozenset(v for v in range(n) if v != r.wants and rng.random() < 0.5))
            for r in recs]
    return Instance(n, tuple(recs))


def test_decider_matches_the_pair_reference():
    # seeded graphs (sparse to dense, and complements of bipartite graphs)
    # and directed instances with repeated wants
    rng = random.Random(41)
    insts = [from_graph(random_gnp(rng.randint(3, 12), rng.random(), rng)) for _ in range(150)]
    insts += [from_graph(bipartite_complement(rng, rng.randint(3, 12))) for _ in range(50)]
    insts += [_random_instance(rng) for _ in range(200)]
    insts += [aac_instance(n) for n in (1, 2, 3)] + [from_graph(cycle(n)) for n in (5, 7, 9, 11)]
    verdicts = set()
    for inst in insts:
        cert = decide_beta_eq_2(inst)
        is_two, reason, lab, num, w = decide_reference(inst)
        assert (cert.is_two, cert.reason, cert.labeling, cert.num_classes) == (is_two, reason, lab, num)
        if w is not None:
            assert validate_aac(inst, w) == validate_aac(inst, cert.aac) == []
            assert cert.aac.n == w.n and cert.aac.edges[-1] == w.edges[-1]
        verdicts.add(reason)
    assert verdicts == {"", "aac", "beta_below_2"}
