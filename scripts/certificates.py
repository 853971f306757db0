"""Print the sha256 of the library's certified answers on four fixed
corpora, and check each against its recorded digest, to compare two
versions of the library.

    PYTHONPATH=src python3 scripts/certificates.py [--out DIR]

Each section's answers are dumped as JSON with sorted keys; equal digests
mean equal answers.  The sections, run in this order in one process:

- tau: `approx.tau` at seed 7 on 531 instances: random instances and random
  graphs (every third one with dyadic and non-dyadic rates), complete
  graphs K_4..K_16, whose one rate class takes the recursion cover from K_7
  on, weighted disjoint unions of two cliques, dense graphs with 12-16
  vertices like the benchmark's, 30 more small instances (the `mc-*`
  entries, kept under their names so that dumps of older versions compare
  key for key), and the complement of a perfect matching on 144 vertices,
  the one entry whose cover samples its dense leaves.  Each certificate is
  written with value, k_cap, mode, seed, fallback and, per class, s,
  vertices, k, cover_term, trivial_term, choice, term and the class's cover
  (its items as sorted receiver lists with their weights, in sorted order,
  and its total; null for a trivial class).
- decide2: `decide_beta_eq_2` on 615 instances: 300 random instances, every
  other one with some receivers repeated; 150 random graphs G(n, p), n from
  4 to 200; 120 complements of random bipartite graphs (rate 2 when the
  complement has an edge), n from 4 to 120; K_2..K_5; and 41 named-family
  instances at small parameters (the `family-*` entries).  It covers all
  three verdicts: rate 2 (169), "aac" (403) and "beta_below_2" (43).  Each
  certificate is written with is_two, reason, labeling, num_classes, bound
  and, for an "aac" verdict, the witness's n, vertices and edges.
- covers: the weak and strong fractional hyperclique covers (psi_f and
  chi_bar_f) on 393 instances: random instances with unwanted messages and
  repeated receivers (every fourth one with identical copies appended),
  directed unicast instances with permuted wants, random graphs, every third
  of these three kinds with non-dyadic rates; the named families; and
  complements of max-degree-2 graphs with 12-16 vertices, like the
  benchmark's dense graphs.  Each cover is written with its items (the
  sorted members and the weight of each) and its total.
- lp: the value, method, x and dual of every `lp.solve_min` call, in call
  order, made through the library's own callers (`hierarchy.solve_bk` and
  `combinatorial.fractional_cover`) on 142 entries: the hierarchy LP at each
  level of the families `paper-suite full` reports on, under their
  generators, and their psi_f and chi_bar_f cover LPs (one LP serves both on
  a unicast instance); projective-Hadamard q = 7's chi_bar_f cover LP, which
  certifies by the exact basis solve; b_2 of one circulant per class for
  n = 5..12 (103 classes: a connection set S of {1..n/2}, up to the
  multipliers coprime to n) under the shift and the reflection i -> -i,
  where circulant 12 (1,2,3,4) certifies by the exact basis solve; and b_2
  of the six 12-vertex classes whose LP under the shift alone certified by
  the exact basis solve when it had a variable per subset orbit (over
  closure classes they round).  This section takes most of the time.

One `section digest` line per section goes to stdout and a summary with the
section's time to stderr.  The exit status is 1, naming every section
whose digest differs from RECORDED, else 0.  --out DIR writes each
section's dump to DIR/<section>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import gcd

from icbounds import combinatorial, hierarchy
from icbounds.approx import tau
from icbounds.beta2 import decide_beta_eq_2
from icbounds.combinatorial import fractional_cover
from icbounds.families import complement, family, random_gnp, random_instance, shift_perm
from icbounds.hierarchy import solve_bk
from icbounds.instance import Graph, Instance, Receiver, from_graph

RECORDED = {
    "tau": "9bc212189cb388cf6208e2726384559b868f7a9f82b3f832d71fa3b13f640e28",
    "decide2": "b043989b92f5808bdf33ac76390fffa0e8e6f911bbff7ec3e30a4f8da4e0bb3e",
    "covers": "160d695c278e788b7d8c1ed617653509dfcbe696dc6916cdc6d4d06cf368e143",
    "lp": "b86d58087623d2dc3abb3e02eff0caf98ef13d9c7226bd18dbdbbc8f8d91d876",
}


def label(name: str, params: dict) -> str:
    return "-".join([name] + [f"{k}={v}" for k, v in params.items()])


def complete(n: int) -> Graph:
    return complement(Graph(n, frozenset()))


def weighted(inst: Instance, rng: random.Random, dens: tuple[int, ...]) -> Instance:
    rates = tuple(Fraction(1, rng.choice(dens)) for _ in range(inst.n))
    return Instance(inst.n, inst.receivers, rates)


def rational(q) -> str | None:
    return None if q is None else str(q)


# -- tau ---------------------------------------------------------------------


def two_cliques(a: int, b: int) -> Graph:
    return Graph.from_edge_list(
        a + b,
        [(u, v) for u in range(a) for v in range(u + 1, a)]
        + [(u, v) for u in range(a, a + b) for v in range(u + 1, a + b)],
    )


def tau_corpus() -> list[tuple[str, Instance]]:
    rng = random.Random(2010)
    dens = (1, 2, 3, 4, 5, 8)
    out: list[tuple[str, Instance]] = []
    for i in range(300):
        n = rng.randrange(4, 10)
        inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        out.append((f"random_instance-{i}", weighted(inst, rng, dens) if i % 3 == 0 else inst))
    for i in range(130):
        n = rng.randrange(4, 13)
        inst = from_graph(random_gnp(n, rng.random(), rng))
        out.append((f"gnp-{i}", weighted(inst, rng, dens) if i % 3 == 0 else inst))
    for n in range(4, 17):
        out.append((f"K{n}", from_graph(complete(n))))
    for i in range(37):
        a, b = rng.randrange(6, 10), rng.randrange(1, 10)
        inst = from_graph(two_cliques(a, b))
        # the first clique at rate 1, the second at rate 1/2 or 1/4
        rates = tuple(Fraction(1) if v < a else Fraction(1, rng.choice((2, 4)))
                      for v in range(a + b))
        out.append((f"two-cliques-{i}", Instance(a + b, inst.receivers, rates)))
    for i in range(20):
        n = rng.randrange(12, 17)
        out.append((f"dense-{i}", from_graph(random_gnp(n, 0.7 + 0.25 * rng.random(), rng))))
    for i in range(30):
        n = rng.randrange(4, 9)
        if i < 6:
            inst = from_graph(complete(n + 3))
        else:
            inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        out.append((f"mc-{i}", inst))
    matching = Graph.from_edge_list(144, [(v, v + 1) for v in range(0, 144, 2)])
    out.append(("matching-complement-144", from_graph(complement(matching))))
    return out


def tau_fields(cert) -> dict:
    def cover(c):
        if c is None:
            return None
        return {"items": sorted((sorted(s), str(w)) for s, w in c.items), "total": str(c.total)}

    return {
        "value": rational(cert.value), "k_cap": cert.k_cap, "mode": cert.mode,
        "seed": cert.seed, "fallback": cert.fallback,
        "classes": [
            {"s": c.s, "vertices": c.vertices, "k": c.k, "cover_term": rational(c.cover_term),
             "trivial_term": rational(c.trivial_term), "choice": c.choice,
             "term": rational(c.term), "cover": cover(c.cover)}
            for c in cert.classes
        ],
    }


def tau_section() -> tuple[dict, str]:
    dump = {name: tau_fields(tau(inst, seed=7)) for name, inst in tau_corpus()}
    classes = [c for cert in dump.values() for c in cert["classes"]]
    return dump, (f"certificates {len(dump)}, classes {len(classes)}, "
                  f"cover-winning {sum(c['choice'] == 'cover' for c in classes)}")


# -- decide2 -----------------------------------------------------------------

DECIDE2_FAMILIES = [
    ("cycle", {"n": n}) for n in range(4, 16)
] + [
    ("complement-cycle", {"n": n}) for n in range(4, 16)
] + [
    ("circulant", {"n": 9, "k": 2}), ("circulant", {"n": 13, "k": 2}),
    ("cayley3", {"n": 8}), ("cayley3", {"n": 12}),
    ("kneser-complement", {"n": 5, "k": 2}), ("projective-hadamard", {"q": 3}),
    ("oddtown", {"m": 6}), ("tri3", {}), ("petersen", {}), ("groetzsch", {}),
    ("chvatal", {}),
] + [
    ("aac", {"n": n}) for n in range(1, 7)
]


def repeated(inst: Instance, rng: random.Random) -> Instance:
    """inst with some receivers repeated, each copy put at a random place."""
    recs = list(inst.receivers)
    for r in rng.sample(inst.receivers, rng.randint(1, inst.m)):
        recs.insert(rng.randrange(len(recs) + 1), r)
    return Instance(inst.n, tuple(recs))


def bipartite_complement(n: int, p: float, rng: random.Random) -> Graph:
    side = [rng.randrange(2) for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if side[u] != side[v] and rng.random() < p]
    return complement(Graph.from_edge_list(n, edges))


def decide2_corpus() -> list[tuple[str, Instance]]:
    rng = random.Random(2010)
    out: list[tuple[str, Instance]] = []
    for i in range(300):
        n = rng.randrange(3, 13)
        inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        out.append((f"random_instance-{i}", repeated(inst, rng) if i % 2 else inst))
    for i in range(150):
        n = rng.randrange(4, 201) if i % 5 == 0 else rng.randrange(4, 40)
        out.append((f"gnp-{i}", from_graph(random_gnp(n, rng.random(), rng))))
    for i in range(120):
        n = rng.randrange(4, 121) if i % 4 == 0 else rng.randrange(4, 30)
        out.append((f"bipartite-complement-{i}",
                    from_graph(bipartite_complement(n, rng.random(), rng))))
    for n in range(2, 6):
        out.append((f"K{n}", from_graph(complete(n))))
    for name, params in DECIDE2_FAMILIES:
        out.append((f"family-{label(name, params)}", family(name, **params).instance))
    return out


def decide2_fields(cert) -> dict:
    w = cert.aac
    return {
        "is_two": cert.is_two, "reason": cert.reason, "labeling": cert.labeling,
        "num_classes": cert.num_classes, "bound": rational(cert.bound),
        "witness": None if w is None else {"n": w.n, "vertices": w.vertices, "edges": w.edges},
    }


def decide2_section() -> tuple[dict, str]:
    dump = {name: decide2_fields(decide_beta_eq_2(inst)) for name, inst in decide2_corpus()}
    verdicts = Counter("rate 2" if c["is_two"] else c["reason"] for c in dump.values())
    return dump, f"certificates {len(dump)}, " + ", ".join(
        f"{k} {v}" for k, v in sorted(verdicts.items()))


# -- covers ------------------------------------------------------------------

COVER_FAMILIES = [
    ("cycle", {"n": n}) for n in range(4, 14)
] + [
    ("complement-cycle", {"n": n}) for n in range(5, 12)
] + [
    ("circulant", {"n": 7, "k": 2}), ("circulant", {"n": 8, "k": 2}),
    ("circulant", {"n": 13, "k": 2}), ("cayley3", {"n": 8}), ("cayley3", {"n": 10}),
    ("kneser-complement", {"n": 6, "k": 2}), ("projective-hadamard", {"q": 3}),
    ("projective-hadamard", {"q": 5}), ("oddtown", {"m": 6}), ("aac", {"n": 1}),
    ("aac", {"n": 2}), ("aac", {"n": 3}), ("tri3", {}), ("petersen", {}),
    ("groetzsch", {}), ("chvatal", {}),
]


def unicast(n: int, rng: random.Random) -> Instance:
    """One receiver per message, the wants a random permutation."""
    recs = []
    for w in rng.sample(range(n), n):
        rest = [v for v in range(n) if v != w]
        recs.append(Receiver(w, frozenset(rng.sample(rest, rng.randint(0, len(rest))))))
    return Instance(n, tuple(recs))


def max_degree_two(n: int, rng: random.Random) -> Graph:
    """Vertex-disjoint paths and cycles covering [n]."""
    verts = rng.sample(range(n), n)
    edges = []
    i = 0
    while i < n:
        piece = verts[i:i + min(rng.randint(3, 6), n - i)]
        edges += list(zip(piece, piece[1:]))
        if len(piece) >= 3 and rng.random() < 0.5:
            edges.append((piece[-1], piece[0]))
        i += len(piece)
    return Graph.from_edge_list(n, edges)


def covers_corpus() -> list[tuple[str, Instance]]:
    rng = random.Random(1004)
    dens = (1, 2, 3, 5)
    out: list[tuple[str, Instance]] = []
    for i in range(200):
        n = rng.randrange(2, 10)
        inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        if i % 4 == 0:  # identical copies of some receivers
            inst = Instance(n, inst.receivers + inst.receivers[: rng.randint(1, inst.m)])
        out.append((f"random_instance-{i}", weighted(inst, rng, dens) if i % 3 == 0 else inst))
    for i in range(60):
        inst = unicast(rng.randrange(2, 10), rng)
        out.append((f"unicast-{i}", weighted(inst, rng, dens) if i % 3 == 0 else inst))
    for i in range(80):
        inst = from_graph(random_gnp(rng.randrange(2, 13), rng.random(), rng))
        out.append((f"gnp-{i}", weighted(inst, rng, dens) if i % 3 == 0 else inst))
    for name, params in COVER_FAMILIES:
        out.append((label(name, params), family(name, **params).instance))
    for i in range(20):
        n = rng.randrange(12, 17)
        out.append((f"dense-{i}", from_graph(complement(max_degree_two(n, rng)))))
    return out


def cover_fields(cover) -> dict:
    return {"total": str(cover.total), "items": [[sorted(s), str(w)] for s, w in cover.items]}


def covers_section() -> tuple[dict, str]:
    dump = {name: {kind: cover_fields(fractional_cover(inst, kind)) for kind in ("weak", "strong")}
            for name, inst in covers_corpus()}
    items = sum(len(c["items"]) for covers in dump.values() for c in covers.values())
    return dump, f"instances {len(dump)}, cover items {items}"


# -- lp ----------------------------------------------------------------------

# the families `paper-suite full` reports on
SUITE = [
    ("cycle", {"n": 5}), ("cycle", {"n": 7}), ("cycle", {"n": 9}),
    ("complement-cycle", {"n": 5}), ("complement-cycle", {"n": 7}), ("tri3", {}),
    ("aac", {"n": 1}), ("aac", {"n": 2}), ("aac", {"n": 3}), ("circulant", {"n": 7, "k": 2}),
    ("cayley3", {"n": 8}), ("projective-hadamard", {"q": 3}), ("oddtown", {"m": 6}),
    ("petersen", {}), ("groetzsch", {}), ("chvatal", {}), ("projective-hadamard", {"q": 5}),
]

# the 12-vertex circulant classes whose b_2 LP under the shift alone failed
# to round when it had a variable per subset orbit; over closure classes
# they round
BASIS_C12 = [(1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 2, 6), (1, 3, 6), (2, 3, 4)]


def circulant_classes(n: int) -> list[tuple[int, ...]]:
    """One connection set per class: the least image of S under the
    multipliers coprime to n, each element read as min(s, n - s)."""
    half = n // 2
    classes = set()
    for r in range(1, half + 1):
        for s in combinations(range(1, half + 1), r):
            classes.add(min(tuple(sorted({min(a * v % n, n - a * v % n) for v in s}))
                            for a in range(1, n) if gcd(a, n) == 1))
    return sorted(classes)


def circulant_b2(n: int, s: tuple[int, ...], sym: list[list[int]]):
    edges = sorted({tuple(sorted((i, (i + v) % n))) for i in range(n) for v in s})
    return solve_bk(from_graph(Graph.from_edge_list(n, edges)), 2, sym)


def both_covers(inst: Instance):
    return [fractional_cover(inst, kind) for kind in ("weak", "strong")]


def lp_corpus():
    """(label, thunk) pairs; each thunk makes the solve_min calls of one entry."""
    out = []
    for name, params in SUITE:
        f = family(name, **params)
        key = label(name, params)
        out += [(f"{key}-b{k}", partial(solve_bk, f.instance, k, f.symmetry)) for k in f.levels]
        out.append((f"{key}-covers", partial(both_covers, f.instance)))
    ph7 = family("projective-hadamard", q=7).instance
    out.append(("projective-hadamard-q=7-strong", partial(fractional_cover, ph7, "strong")))
    for n in range(5, 13):
        sym = [shift_perm(n), [-i % n for i in range(n)]]
        out += [(f"circulant-{n}-{','.join(map(str, s))}-b2", partial(circulant_b2, n, s, sym))
                for s in circulant_classes(n)]
    out += [(f"circulant-12-{','.join(map(str, s))}-b2-shift",
             partial(circulant_b2, 12, s, [shift_perm(12)])) for s in BASIS_C12]
    return out


def lp_section() -> tuple[dict, str]:
    calls: list[dict] = []

    def recording(solve):
        def spy(p):
            opt = solve(p)
            calls.append({"value": str(opt.value), "method": opt.method,
                          "x": [str(v) for v in opt.x], "dual": [str(v) for v in opt.dual]})
            return opt
        return spy

    # the spies record this section's solves only
    saved = [(module, module.solve_min) for module in (hierarchy, combinatorial)]
    for module, solve in saved:
        module.solve_min = recording(solve)
    try:
        dump = {}
        for key, solve in lp_corpus():
            first = len(calls)
            solve()
            dump[key] = calls[first:]
    finally:
        for module, solve in saved:
            module.solve_min = solve
    methods = Counter(c["method"] for c in calls)
    return dump, f"entries {len(dump)}, solves {len(calls)} ({dict(sorted(methods.items()))})"


SECTIONS = {"tau": tau_section, "decide2": decide2_section, "covers": covers_section,
            "lp": lp_section}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", metavar="DIR", help="write each section's dump (JSON) here")
    args = ap.parse_args(argv)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    differ = []
    for name, section in SECTIONS.items():
        t0 = time.perf_counter()
        dump, summary = section()
        secs = time.perf_counter() - t0
        text = json.dumps(dump, sort_keys=True)
        if args.out:
            with open(os.path.join(args.out, f"{name}.json"), "w") as fh:
                fh.write(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"{name}: {summary}, time {secs:.2f} s", file=sys.stderr)
        print(name, digest, flush=True)
        if digest != RECORDED[name]:
            differ.append(name)
    if differ:
        print(f"differs from the recorded digest: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
