"""Build projective-Hadamard q = 5's strong-cover code and check it, in one
process, timing each phase.

    PYTHONPATH=src python3 scripts/ph5_strong_cover.py

Phases: the graph, the fractional strong cover (one cover LP), the code
(`strong_cover_code`: the encoder and every receiver's decoder) and the
exhaustive check (`verify_code`).  It prints one line per phase with its
wall time, then the peak resident set size of the process, and exits 1 if
the check finds a failing vector.  Run it in a fresh process per
measurement: the peak RSS is the whole process's.
"""

from __future__ import annotations

import resource
import sys
import time

from icbounds.codes import strong_cover_code, verify_code
from icbounds.combinatorial import fractional_cover
from icbounds.families import projective_hadamard
from icbounds.instance import from_graph


def main() -> int:
    t = time.perf_counter()

    def phase(name: str, detail: str) -> None:
        nonlocal t
        now = time.perf_counter()
        print(f"{name:<7} {now - t:8.3f} s  {detail}")
        t = now

    inst = from_graph(projective_hadamard(5)[0])
    phase("graph", f"n = {inst.n}")
    cover = fractional_cover(inst, "strong")
    phase("cover", f"total {cover.total}, {len(cover.items)} sets")
    scheme = strong_cover_code(inst, cover)
    phase("code", f"rate {scheme.rate}, encoder {scheme.encoder.shape[0]} x {scheme.encoder.shape[1]}")
    rep = verify_code(inst, scheme, mode="exhaustive")
    phase("verify", "passed" if rep.passed else f"FAILED: {len(rep.failures)} failures")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
