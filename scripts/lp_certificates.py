"""Dump the answer of every `lp.solve_min` call on a fixed corpus of the
library's own LPs, to compare two versions of the library.

    PYTHONPATH=src python3 scripts/lp_certificates.py [--out dump.json]

The corpus has three parts, solved through the library's own callers
(`hierarchy.solve_bk` and `combinatorial.fractional_cover`):
- the named families of `paper-suite full`: the hierarchy LP at each of the
  family's levels under its generators, and its psi_f and chi_bar_f cover
  LPs (one LP serves both on a unicast instance);
- projective-Hadamard q = 7's chi_bar_f cover LP, which certifies by the
  exact basis solve (about 2.5 s);
- b_2 of one circulant per class for n = 5..12 (103 classes: a connection
  set S of {1..n/2}, up to the multipliers coprime to n), under the shift
  and the reflection i -> -i (about 10 s, all rounded), and of the six
  12-vertex classes whose b_2 under the shift alone certifies by the exact
  basis solve (about 3 s).
Each call is written with its value, method, x and dual, in call order.
The last line printed is the sha256 of the dump, so equal digests mean
equal answers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from functools import partial
from itertools import combinations
from math import gcd

from icbounds import combinatorial, hierarchy
from icbounds.combinatorial import fractional_cover
from icbounds.families import family, shift_perm
from icbounds.hierarchy import solve_bk
from icbounds.instance import Graph, from_graph

# (name, params) of the families `paper-suite full` reports on
SUITE = [
    ("cycle", {"n": 5}), ("cycle", {"n": 7}), ("cycle", {"n": 9}),
    ("complement-cycle", {"n": 5}), ("complement-cycle", {"n": 7}), ("tri3", {}),
    ("aac", {"n": 1}), ("aac", {"n": 2}), ("aac", {"n": 3}), ("circulant", {"n": 7, "k": 2}),
    ("cayley3", {"n": 8}), ("projective-hadamard", {"q": 3}), ("oddtown", {"m": 6}),
    ("petersen", {}), ("groetzsch", {}), ("chvatal", {}), ("projective-hadamard", {"q": 5}),
]

# the 12-vertex circulant classes whose b_2 LP under the shift alone fails
# to round
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


def circulant(n: int, s: tuple[int, ...]) -> Graph:
    return Graph.from_edge_list(n, sorted({tuple(sorted((i, (i + v) % n))) for i in range(n) for v in s}))


def covers(inst):
    return [fractional_cover(inst, kind) for kind in ("weak", "strong")]


def circulant_b2(n: int, s: tuple[int, ...], sym: list[list[int]]):
    return solve_bk(from_graph(circulant(n, s)), 2, sym)


def corpus():
    """(label, thunk) pairs; each thunk makes the solve_min calls of one entry."""
    out = []
    for name, params in SUITE:
        label = "-".join([name] + [f"{k}={v}" for k, v in params.items()])
        f = family(name, **params)
        out += [(f"{label}-b{k}", partial(solve_bk, f.instance, k, f.symmetry)) for k in f.levels]
        out.append((f"{label}-covers", partial(covers, f.instance)))
    ph7 = family("projective-hadamard", q=7).instance
    out.append(("projective-hadamard-q=7-strong", partial(fractional_cover, ph7, "strong")))
    for n in range(5, 13):
        sym = [shift_perm(n), [-i % n for i in range(n)]]
        out += [(f"circulant-{n}-{','.join(map(str, s))}-b2", partial(circulant_b2, n, s, sym))
                for s in circulant_classes(n)]
    out += [(f"circulant-12-{','.join(map(str, s))}-b2-shift", partial(circulant_b2, 12, s, [shift_perm(12)]))
            for s in BASIS_C12]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the full dump (JSON) here")
    args = ap.parse_args(argv)
    calls: list[dict] = []

    def recording(solve):
        def spy(p):
            opt = solve(p)
            calls.append({"value": str(opt.value), "method": opt.method,
                          "x": [str(v) for v in opt.x], "dual": [str(v) for v in opt.dual]})
            return opt
        return spy

    for module in (hierarchy, combinatorial):
        module.solve_min = recording(module.solve_min)
    dump = {}
    t0 = time.perf_counter()
    for label, solve in corpus():
        first = len(calls)
        solve()
        dump[label] = calls[first:]
    secs = time.perf_counter() - t0
    text = json.dumps(dump, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    methods = Counter(c["method"] for c in calls)
    print(f"entries {len(dump)}, solves {len(calls)} ({dict(sorted(methods.items()))}), "
          f"solve time {secs:.2f} s", file=sys.stderr)
    print(hashlib.sha256(text.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
