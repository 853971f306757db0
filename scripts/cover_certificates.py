"""Dump the weak and strong fractional hyperclique covers (psi_f and
chi_bar_f) on a fixed seeded corpus, to compare two versions of the library.

    PYTHONPATH=src python3 scripts/cover_certificates.py [--out dump.json]

The corpus has 393 instances: random instances with unwanted messages and
repeated receivers (non-unicast; every fourth one with identical copies
appended), directed unicast instances with permuted wants, random graphs,
every third of these three kinds with non-dyadic rates; the named families
of `icbounds.families`; and complements of max-degree-2 graphs with 12-16
vertices, like the benchmark's dense graphs.  Each cover is written with its
items (the sorted members and the weight of each) and its total.  The last
line printed is the sha256 of the dump, so equal digests mean equal covers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction

from icbounds.combinatorial import fractional_cover
from icbounds.families import complement, family, random_gnp, random_instance
from icbounds.instance import Graph, Instance, Receiver, from_graph

NAMED = [
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


def weighted(inst: Instance, rng: random.Random) -> Instance:
    rates = tuple(Fraction(1, rng.choice((1, 2, 3, 5))) for _ in range(inst.n))
    return Instance(inst.n, inst.receivers, rates)


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


def corpus() -> list[tuple[str, Instance]]:
    rng = random.Random(1004)
    out: list[tuple[str, Instance]] = []
    for i in range(200):
        n = rng.randrange(2, 10)
        inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        if i % 4 == 0:  # identical copies of some receivers
            inst = Instance(n, inst.receivers + inst.receivers[: rng.randint(1, inst.m)])
        out.append((f"random_instance-{i}", weighted(inst, rng) if i % 3 == 0 else inst))
    for i in range(60):
        inst = unicast(rng.randrange(2, 10), rng)
        out.append((f"unicast-{i}", weighted(inst, rng) if i % 3 == 0 else inst))
    for i in range(80):
        inst = from_graph(random_gnp(rng.randrange(2, 13), rng.random(), rng))
        out.append((f"gnp-{i}", weighted(inst, rng) if i % 3 == 0 else inst))
    for name, params in NAMED:
        label = "-".join([name] + [f"{k}={v}" for k, v in params.items()])
        out.append((label, family(name, **params).instance))
    for i in range(20):
        n = rng.randrange(12, 17)
        out.append((f"dense-{i}", from_graph(complement(max_degree_two(n, rng)))))
    return out


def fields(cover) -> dict:
    return {
        "total": str(cover.total),
        "items": [[sorted(s), str(w)] for s, w in cover.items],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the full dump (JSON) here")
    args = ap.parse_args(argv)
    dump = {}
    t0 = time.perf_counter()
    for name, inst in corpus():
        dump[name] = {kind: fields(fractional_cover(inst, kind)) for kind in ("weak", "strong")}
    secs = time.perf_counter() - t0
    text = json.dumps(dump, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    items = sum(len(c["items"]) for covers in dump.values() for c in covers.values())
    print(f"instances {len(dump)}, cover items {items}, cover time {secs:.2f} s",
          file=sys.stderr)
    print(hashlib.sha256(text.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
