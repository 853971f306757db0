"""Dump decide_beta_eq_2's certificates on a fixed seeded corpus, to compare
two versions of the library.

    PYTHONPATH=src python3 scripts/beta2_certificates.py [--out dump.json]

The corpus has 615 instances: 300 random instances, every other one with
some receivers repeated; 150 random graphs G(n, p), n from 4 to 200; 120
complements of random bipartite graphs (rate 2 when the complement has an
edge), n from 4 to 120; K_2..K_5; and 41 named-family instances at small
parameters (the `family-*` entries).  It covers all three verdicts: rate 2
(169), "aac" (403) and "beta_below_2" (43).  Each certificate is written
with is_two, reason, labeling, num_classes, bound and, for an "aac" verdict,
the witness's n, vertices and edges.  The last line printed is the sha256 of
the dump, so equal digests mean equal certificates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from collections import Counter

from icbounds.beta2 import decide_beta_eq_2
from icbounds.families import complement, family, random_gnp, random_instance
from icbounds.instance import Graph, Instance, from_graph

NAMED = [
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


def corpus() -> list[tuple[str, Instance]]:
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
        out.append((f"K{n}", from_graph(complement(Graph(n, frozenset())))))
    for name, params in NAMED:
        key = "-".join([name] + [f"{k}={v}" for k, v in params.items()])
        out.append((f"family-{key}", family(name, **params).instance))
    return out


def fields(cert) -> dict:
    w = cert.aac
    return {
        "is_two": cert.is_two, "reason": cert.reason, "labeling": cert.labeling,
        "num_classes": cert.num_classes,
        "bound": None if cert.bound is None else str(cert.bound),
        "witness": None if w is None else {"n": w.n, "vertices": w.vertices, "edges": w.edges},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the full dump (JSON) here")
    args = ap.parse_args(argv)
    dump = {}
    secs = 0.0
    for name, inst in corpus():
        t0 = time.perf_counter()
        cert = decide_beta_eq_2(inst)
        secs += time.perf_counter() - t0
        dump[name] = fields(cert)
    text = json.dumps(dump, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    verdicts = Counter("rate 2" if c["is_two"] else c["reason"] for c in dump.values())
    print(f"certificates {len(dump)}, " + ", ".join(f"{k} {v}" for k, v in sorted(verdicts.items()))
          + f", decide time {secs:.2f} s", file=sys.stderr)
    print(hashlib.sha256(text.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
