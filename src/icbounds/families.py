"""Named instance and graph families, with expected-bound metadata.

Each generator returns its natural object (Graph or Instance, sometimes with
an auxiliary matrix); `family(name, **params)` wraps any of them into a
FamilyOutput carrying expected bounds and, for vertex-transitive families, a
generating permutation of a cyclic symmetry usable for LP orbit reduction.
An expected key is the name of the bound `report.build_report` gives
(alpha, b<k>, chibarf, rate2-obstruction, ...) or beta, which the report's
lower and upper bounds must meet at, with an exhaustively verified code of
that rate; `paper-suite` compares them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .instance import Graph, Instance, Receiver, from_graph


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    edges = [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)]
    return Graph.from_edge_list(g.n, edges)


def circulant(n: int, k: int) -> Graph:
    """Cayley graph of Z_n with generators {+-1, ..., +-k}."""
    if k < 1 or (k == 1 and n < 3) or (k > 1 and (n < 4 or 2 * k >= n - 1)):
        raise ValueError("need k >= 1 and k < (n-1)/2")
    edges = [(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)]
    return Graph.from_edge_list(n, edges)


def cayley_3regular(n: int) -> Graph:
    """3-regular Cayley graph of Z_n with generators {1, n/2}, even n >= 6
    (n = 4 gives K4, whose rate is 1, not the family's n/2)."""
    if n < 6 or n % 2:
        raise ValueError("need even n >= 6")
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + n // 2) % n) for i in range(n // 2)]
    return Graph.from_edge_list(n, edges)


def kneser_complement(n: int, k: int) -> Graph:
    """Vertices = k-subsets of [n]; adjacent iff intersecting."""
    if n <= 2 * k:
        raise ValueError("need n > 2k")
    verts = list(combinations(range(n), k))
    edges = [
        (i, j)
        for i, j in combinations(range(len(verts)), 2)
        if set(verts[i]) & set(verts[j])
    ]
    g = Graph.from_edge_list(len(verts), edges)
    return g


def _kneser_shift_perm(n: int, k: int) -> list[int]:
    # Permutation of the k-subset vertices induced by i -> i+1 mod n.
    verts = list(combinations(range(n), k))
    index = {v: i for i, v in enumerate(verts)}
    return [index[tuple(sorted((x + 1) % n for x in v))] for v in verts]


def projective_hadamard(q: int) -> tuple[Graph, list[list[int]]]:
    """Non-self-orthogonal points of the projective plane over F_q; adjacency
    = nonzero inner product.  Also returns the Gram matrix over F_q (nonzero
    diagonal, zero exactly on non-edges).  q must be an odd prime."""
    from .numeric import is_prime

    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError("q must be an odd prime")
    points = []
    # Canonical form: first nonzero coordinate equals 1, lexicographic order.
    for x in range(q):
        for y in range(q):
            for z in range(q):
                v = (x, y, z)
                if v == (0, 0, 0):
                    continue
                nz = next(c for c in v if c)
                if nz != 1:
                    continue
                if (x * x + y * y + z * z) % q == 0:
                    continue
                points.append(v)
    n = len(points)
    gram = [
        [(a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) % q for b in points] for a in points
    ]
    edges = [(i, j) for i, j in combinations(range(n), 2) if gram[i][j] != 0]
    return Graph.from_edge_list(n, edges), gram


def oddtown_trianglefree(m: int) -> tuple[Graph, list[list[int]]]:
    """Triangle-free graph from set families over a ground set of size m
    (a multiple of 6): per 6-block, the 5 singletons, the 10 pair-plus-sixth
    sets, and the full 5-set; adjacency = odd intersection size.  Also
    returns the 0/1 incidence matrix (vertices x ground elements)."""
    if m < 6 or m % 6:
        raise ValueError("m must be a positive multiple of 6")
    sets: list[frozenset[int]] = []
    for b in range(m // 6):
        base = 6 * b
        for i in range(5):
            sets.append(frozenset({base + i}))
        for i, j in combinations(range(5), 2):
            sets.append(frozenset({base + i, base + j, base + 5}))
        sets.append(frozenset(base + i for i in range(5)))
    n = len(sets)
    edges = [
        (i, j) for i, j in combinations(range(n), 2) if len(sets[i] & sets[j]) % 2
    ]
    inc = [[1 if e in s else 0 for e in range(m)] for s in sets]
    return Graph.from_edge_list(n, edges), inc


def aac_instance(n_param: int) -> Instance:
    """The canonical almost-alternating-cycle witness instance: messages
    v_{-n}..v_n (index i+n), hyperedges j_0..j_n wanting v_{i-n} and blind
    exactly on {v_i, v_{i+1}} (just {v_n} for the last edge).  The otherwise
    unwanted messages v_1..v_n each get a receiver knowing everything else;
    those have empty blind sets, so they leave the rate-2 decision untouched
    but make the level-2 bound tight at 2 + 1/n."""
    if n_param < 1:
        raise ValueError("need n_param >= 1")
    n = n_param
    nv = 2 * n + 1
    v = lambda i: i + n  # vertex index of v_i, -n <= i <= n
    recs = []
    for i in range(n + 1):
        blind = {v(i), v(i + 1)} if i < n else {v(n)}
        wants = v(i - n)
        knows = frozenset(range(nv)) - blind - {wants}
        recs.append(Receiver(wants, knows))
    for i in range(1, n + 1):
        recs.append(Receiver(v(i), frozenset(range(nv)) - {v(i)}))
    return Instance(nv, tuple(recs))


def tri3() -> Instance:
    """Three messages a,b,c = 0,1,2; receivers ({a},b), ({b},c), ({c},a)."""
    return Instance(
        3,
        (
            Receiver(1, frozenset({0})),
            Receiver(2, frozenset({1})),
            Receiver(0, frozenset({2})),
        ),
    )


def petersen() -> Graph:
    """Outer 5-cycle 0-4, inner pentagram 5-9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edge_list(10, edges)


def groetzsch() -> Graph:
    """Mycielskian of C5: cycle 0-4, shadow vertices 5-9, apex 10."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    for i in range(5):
        edges += [(5 + i, (i + 1) % 5), (5 + i, (i - 1) % 5), (5 + i, 10)]
    return Graph.from_edge_list(11, edges)


def chvatal() -> Graph:
    edges = [
        (0, 1), (0, 4), (0, 6), (0, 9), (1, 2), (1, 5), (1, 7), (2, 3),
        (2, 6), (2, 8), (3, 4), (3, 7), (3, 9), (4, 5), (4, 8), (5, 10),
        (5, 11), (6, 10), (6, 11), (7, 8), (7, 11), (8, 10), (9, 10), (9, 11),
    ]
    return Graph.from_edge_list(12, edges)


def random_gnp(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edge_list(n, edges)


def random_instance(n: int, m: int, rng: random.Random) -> Instance:
    recs = []
    for _ in range(m):
        w = rng.randrange(n)
        rest = [v for v in range(n) if v != w]
        recs.append(Receiver(w, frozenset(rng.sample(rest, rng.randint(0, len(rest))))))
    return Instance(n, tuple(recs))


# -- registry with expected bounds and symmetry metadata --------------------


def shift_perm(n: int) -> list[int]:
    return [(i + 1) % n for i in range(n)]


def block_shift_perm(n: int, block: int) -> list[int]:
    """Rotate each consecutive block of `block` vertices by one; trailing
    vertices (n mod block) stay fixed."""
    perm = list(range(n))
    for start in range(0, n - block + 1, block):
        for i in range(block):
            perm[start + i] = start + (i + 1) % block
    return perm


# Full automorphism generators, precomputed once (vertex-orbit reduction of
# the level-k LP needs more than the cyclic subgroup to be effective here).
PETERSEN_SYMMETRY = [
    [3, 4, 0, 1, 2, 8, 9, 5, 6, 7],
    [0, 1, 6, 9, 4, 5, 2, 8, 7, 3],
]
GROETZSCH_SYMMETRY = [
    [1, 2, 3, 4, 0, 6, 7, 8, 9, 5, 10],
    [0, 4, 3, 2, 1, 5, 9, 8, 7, 6, 10],
]
CHVATAL_SYMMETRY = [
    [0, 4, 3, 2, 1, 5, 9, 8, 7, 6, 11, 10],
    [1, 0, 6, 11, 5, 4, 2, 9, 10, 7, 8, 3],
]

# chi_bar_f of projective-Hadamard q, computed: it grows with q while beta = 3
PH_CHIBARF = {3: Fraction(3), 5: Fraction(25, 7), 7: Fraction(49, 13)}


@dataclass
class FamilyOutput:
    name: str
    params: dict
    instance: Instance
    graph: Graph | None = None
    matrix: list[list[int]] | None = None  # a Gram matrix that fits the graph
    expected: dict[str, Fraction] = field(default_factory=dict)
    symmetry: list[list[int]] = field(default_factory=list)
    matrix_field: int | None = None  # the prime field of matrix

    @property
    def levels(self) -> tuple[int, ...]:
        """The k of each b<k> in expected, ascending: the levels `report` solves."""
        return tuple(sorted(int(k[1:]) for k in self.expected if k[0] == "b" and k[1:].isdigit()))


# Every family's required parameters, in the registry's order.
FAMILY_PARAMS = {
    "cycle": ("n",), "complement-cycle": ("n",), "circulant": ("n", "k"),
    "cayley3": ("n",), "kneser-complement": ("n", "k"), "projective-hadamard": ("q",),
    "oddtown": ("m",), "aac": ("n",), "tri3": (), "petersen": (), "groetzsch": (),
    "chvatal": (),
}
FAMILY_NAMES = list(FAMILY_PARAMS)


def family(name: str, **params) -> FamilyOutput:
    if name not in FAMILY_PARAMS:
        raise ValueError(f"unknown family {name!r}")
    missing = [k for k in FAMILY_PARAMS[name] if k not in params]
    if missing:
        raise ValueError(f"family {name!r} needs parameter {', '.join(missing)}")
    unknown = [k for k in params if k not in FAMILY_PARAMS[name]]
    if unknown:
        raise ValueError(f"family {name!r} takes no parameter {', '.join(unknown)}")
    if name == "cycle":
        n = params["n"]
        g = cycle(n)
        exp = {"beta": Fraction(n, 2), "b2": Fraction(n, 2)}
        return FamilyOutput(name, params, from_graph(g), g, None, exp, [shift_perm(n)])
    if name == "complement-cycle":
        n = params["n"]
        g = complement(cycle(n))
        exp = dict.fromkeys(("beta", "b2", "chibarf"), Fraction(n, n // 2))
        return FamilyOutput(name, params, from_graph(g), g, None, exp, [shift_perm(n)])
    if name == "circulant":
        n, k = params["n"], params["k"]
        g = circulant(n, k)
        exp = dict.fromkeys(("beta", "b2", "chibarf"), Fraction(n, k + 1))
        return FamilyOutput(name, params, from_graph(g), g, None, exp, [shift_perm(n)])
    if name == "cayley3":
        n = params["n"]
        g = cayley_3regular(n)
        exp = dict.fromkeys(("beta", "b2", "chibarf"), Fraction(n, 2))
        return FamilyOutput(name, params, from_graph(g), g, None, exp, [shift_perm(n)])
    if name == "kneser-complement":
        n, k = params["n"], params["k"]
        g = kneser_complement(n, k)
        exp = {"chibarf": Fraction(n, k)}
        return FamilyOutput(name, params, from_graph(g), g, None, exp, [_kneser_shift_perm(n, k)])
    if name == "projective-hadamard":
        q = params["q"]
        g, gram = projective_hadamard(q)
        # at most 3 pairwise orthogonal points, and a Gram matrix of rank 3
        exp = dict.fromkeys(("alpha", "gram", "beta"), Fraction(3))
        if q in PH_CHIBARF:
            exp["chibarf"] = PH_CHIBARF[q]
        return FamilyOutput(name, params, from_graph(g), g, gram, exp, [], q)
    if name == "oddtown":
        m = params["m"]
        g, inc = oddtown_trianglefree(m)
        # intersection sizes mod 2: odd on the diagonal and exactly on edges
        gram = [[sum(a & b for a, b in zip(u, v)) % 2 for v in inc] for u in inc]
        # m/6 disjoint blocks, each with alpha 5, chibarf 8 and Gram rank 6
        exp = {"alpha": Fraction(5 * m // 6), "chibarf": Fraction(8 * m // 6), "gram": Fraction(m)}
        return FamilyOutput(name, params, from_graph(g), g, gram, exp, [], 2)
    if name == "aac":
        inst = aac_instance(params["n"])
        exp = dict.fromkeys(("b2", "rate2-obstruction"), Fraction(2) + Fraction(1, params["n"]))
        return FamilyOutput(name, params, inst, None, None, exp, [])
    if name == "tri3":
        exp = {"b2": Fraction(2), "b3": Fraction(3), "beta": Fraction(2)}
        return FamilyOutput(name, params, tri3(), None, None, exp, [])
    if name == "petersen":
        g = petersen()
        exp = {"alpha": Fraction(4), "beta": Fraction(5), "b2": Fraction(5), "chibarf": Fraction(5)}
        return FamilyOutput(name, params, from_graph(g), g, None, exp, PETERSEN_SYMMETRY)
    if name == "groetzsch":
        g = groetzsch()
        exp = {"alpha": Fraction(5), "beta": Fraction(11, 2), "b2": Fraction(11, 2)}
        return FamilyOutput(name, params, from_graph(g), g, None, exp, GROETZSCH_SYMMETRY)
    g = chvatal()  # the last name of FAMILY_PARAMS
    exp = {"alpha": Fraction(4), "beta": Fraction(6), "b2": Fraction(6)}
    return FamilyOutput(name, params, from_graph(g), g, None, exp, CHVATAL_SYMMETRY)
