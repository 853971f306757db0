"""Dump tau's certificates on a fixed seeded corpus, to compare two versions
of the library.

    PYTHONPATH=src python3 scripts/tau_certificates.py [--out dump.json]

The corpus has 531 instances: random instances and random graphs (every
third one with dyadic and non-dyadic rates), complete graphs K_4..K_16,
whose one rate class takes the recursion cover from K_7 on, weighted
disjoint unions of two cliques, dense graphs with 12-16 vertices like the
benchmark's, 30 more small instances (the `mc-*` entries, kept under
their names so that dumps of older versions compare key for key), and the
complement of a perfect matching on 144 vertices, the one entry whose
cover samples its dense leaves (about 2.5 s).  Each certificate is written
with value, k_cap, mode, seed, fallback and, per class, s, vertices, k,
cover_term, trivial_term, choice, term and the class's cover (its items as
sorted receiver lists with their weights, in sorted order, and its total;
null for a trivial class).  The last line printed is the sha256 of the
dump, so equal digests mean equal certificates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction

from icbounds.approx import tau
from icbounds.families import complement, random_gnp, random_instance
from icbounds.instance import Graph, Instance, from_graph


def complete(n: int) -> Graph:
    return Graph.from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def two_cliques(a: int, b: int) -> Graph:
    return Graph.from_edge_list(
        a + b,
        [(u, v) for u in range(a) for v in range(u + 1, a)]
        + [(u, v) for u in range(a, a + b) for v in range(u + 1, a + b)],
    )


def weighted(inst: Instance, rng: random.Random) -> Instance:
    rates = tuple(Fraction(1, rng.choice((1, 2, 3, 4, 5, 8))) for _ in range(inst.n))
    return Instance(inst.n, inst.receivers, rates)


def corpus() -> list[tuple[str, Instance]]:
    rng = random.Random(2010)
    out: list[tuple[str, Instance]] = []
    for i in range(300):
        n = rng.randrange(4, 10)
        inst = random_instance(n, rng.randrange(1, 2 * n + 1), rng)
        out.append((f"random_instance-{i}", weighted(inst, rng) if i % 3 == 0 else inst))
    for i in range(130):
        n = rng.randrange(4, 13)
        inst = from_graph(random_gnp(n, rng.random(), rng))
        out.append((f"gnp-{i}", weighted(inst, rng) if i % 3 == 0 else inst))
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


def cover_fields(cover) -> dict | None:
    if cover is None:
        return None
    items = sorted((sorted(s), str(w)) for s, w in cover.items)
    return {"items": items, "total": str(cover.total)}


def fields(cert) -> dict:
    r = lambda q: None if q is None else str(q)
    return {
        "value": r(cert.value), "k_cap": cert.k_cap, "mode": cert.mode,
        "seed": cert.seed, "fallback": cert.fallback,
        "classes": [
            {"s": c.s, "vertices": c.vertices, "k": c.k, "cover_term": r(c.cover_term),
             "trivial_term": r(c.trivial_term), "choice": c.choice, "term": r(c.term),
             "cover": cover_fields(c.cover)}
            for c in cert.classes
        ],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the full dump (JSON) here")
    args = ap.parse_args(argv)
    dump = {}
    t0 = time.perf_counter()
    for name, inst in corpus():
        dump[name] = fields(tau(inst, seed=7))
    secs = time.perf_counter() - t0
    text = json.dumps(dump, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    classes = [c for cert in dump.values() for c in cert["classes"]]
    print(f"certificates {len(dump)}, classes {len(classes)}, "
          f"cover-winning {sum(c['choice'] == 'cover' for c in classes)}, "
          f"tau time {secs:.2f} s", file=sys.stderr)
    print(hashlib.sha256(text.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
