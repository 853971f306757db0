import random
from fractions import Fraction

import pytest
from instance_reference import degree

from icbounds.families import (
    CHVATAL_SYMMETRY,
    FAMILY_NAMES,
    GROETZSCH_SYMMETRY,
    PETERSEN_SYMMETRY,
    aac_instance,
    cayley_3regular,
    chvatal,
    circulant,
    complement,
    cycle,
    family,
    groetzsch,
    kneser_complement,
    oddtown_trianglefree,
    petersen,
    projective_hadamard,
    random_gnp,
    random_instance,
    shift_perm,
    tri3,
)
from icbounds.hierarchy import validate_symmetry
from icbounds.instance import from_graph, validate
from icbounds.report import build_report


def is_graph_automorphism(g, perm):
    return all(g.has_edge(perm[u], perm[v]) for u, v in g.edge_list())


def test_cycle_and_complement():
    g = cycle(5)
    assert g.n == 5 and len(g.edge_list()) == 5
    cg = complement(g)
    assert len(cg.edge_list()) == 5  # C5 is self-complementary
    assert degree(complement(cycle(7)), 0) == 4


def test_circulant_and_cayley():
    g = circulant(7, 2)
    assert all(degree(g, v) == 4 for v in range(7))
    h = cayley_3regular(8)
    assert all(degree(h, v) == 3 for v in range(8))
    with pytest.raises(ValueError):
        circulant(5, 2)
    with pytest.raises(ValueError):
        cayley_3regular(7)


def test_kneser_complement():
    g = kneser_complement(5, 2)
    assert g.n == 10
    # intersecting-pairs graph = complement of Petersen
    assert len(g.edge_list()) == 45 - 15


def test_projective_hadamard_shape():
    g, gram = projective_hadamard(3)
    assert g.n == 9
    assert len(gram) == 9 and len(gram[0]) == 9
    # nonzero diagonal; edges exactly where the inner product is nonzero
    for u in range(9):
        assert gram[u][u] % 3 != 0
        for v in range(u + 1, 9):
            assert g.has_edge(u, v) == (gram[u][v] % 3 != 0)
    g5, _ = projective_hadamard(5)
    assert g5.n == 25
    with pytest.raises(ValueError):
        projective_hadamard(4)


def test_oddtown_shape():
    g, inc = oddtown_trianglefree(6)
    assert g.n == 16
    assert len(inc) == 16 and len(inc[0]) == 6
    # triangle-free, checked exhaustively
    for u in range(16):
        for v in range(u + 1, 16):
            if not g.has_edge(u, v):
                continue
            for w in range(v + 1, 16):
                assert not (g.has_edge(u, w) and g.has_edge(v, w))
    # odd-size sets; adjacency = odd intersection size
    for u in range(16):
        for v in range(16):
            dot = sum(inc[u][i] * inc[v][i] for i in range(6)) % 2
            assert dot == (1 if u == v else int(g.has_edge(u, v)))


def test_aac_instance_structure():
    for n in (1, 2, 3):
        inst = aac_instance(n)
        assert inst.n == 2 * n + 1
        assert inst.m == (n + 1) + n
        assert validate(inst).ok
        # every message is wanted by someone
        wanted = {r.wants for r in inst.receivers}
        assert wanted == set(range(inst.n))


def test_tri3():
    inst = tri3()
    assert inst.n == 3 and inst.m == 3
    assert validate(inst).ok


def test_named_graphs():
    assert petersen().n == 10 and all(degree(petersen(), v) == 3 for v in range(10))
    assert groetzsch().n == 11 and degree(groetzsch(), 10) == 5
    g = chvatal()
    assert g.n == 12 and all(degree(g, v) == 4 for v in range(12))


def test_symmetry_constants_are_automorphisms():
    for g, perms in [
        (petersen(), PETERSEN_SYMMETRY),
        (groetzsch(), GROETZSCH_SYMMETRY),
        (chvatal(), CHVATAL_SYMMETRY),
    ]:
        for perm in perms:
            assert sorted(perm) == list(range(g.n))
            assert is_graph_automorphism(g, perm)
        assert not validate_symmetry(from_graph(g), perms)


CASES = [
    ("complement-cycle", {"n": 7}), ("circulant", {"n": 7, "k": 2}),
    ("cayley3", {"n": 8}), ("kneser-complement", {"n": 5, "k": 2}),
    ("projective-hadamard", {"q": 3}), ("oddtown", {"m": 6}),
    ("aac", {"n": 2}), ("tri3", {}), ("petersen", {}),
    ("groetzsch", {}), ("chvatal", {}),
]


def test_family_registry():
    out = family("cycle", n=5)
    assert out.expected["b2"] == Fraction(5, 2)
    assert out.levels == (2,) and family("tri3").levels == (2, 3)
    assert out.symmetry == [shift_perm(5)]
    for name, params in CASES:
        out = family(name, **params)
        assert validate(out.instance).ok
        if out.symmetry:
            assert not validate_symmetry(out.instance, out.symmetry)
    assert set(FAMILY_NAMES) >= {"cycle", "tri3", "petersen"}
    with pytest.raises(ValueError):
        family("no-such-family")


def test_random_generators():
    rng = random.Random(3)
    for _ in range(20):
        g = random_gnp(6, 0.5, rng)
        assert g.n == 6
        inst = random_instance(5, 7, rng)
        assert validate(inst).ok


@pytest.mark.parametrize("name, params", [("cycle", {"n": 5})] + CASES)
def test_expected_keys_are_report_bound_names(name, params):
    # paper-suite compares each expected value with the report's bound of
    # that name, and an expected beta with where the report's bounds meet
    f = family(name, **params)
    rep = build_report(f.instance, name, f.levels, sym=f.symmetry, with_decide2=True,
                       matrix=f.matrix, matrix_field=f.matrix_field)
    assert set(f.expected) <= {"beta", *rep.bounds}
