"""Steadiness check: run each workload once per seed, one run at a time, and
print per end-to-end metric the median, the quartiles and their spread
((q3 - q1) / median) next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads approx-sweep --seeds 1-5 --sets 2

A spread counts as steady below a third of the bound.  With --sets 2 the
whole set is repeated and each later set's median is compared with the first
one's.  Raw results are saved under .bench_out/.  Exit code 1 if a run fails
or a spread or median drift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}:\n"
                           f"{res.stdout[-2000:]}{res.stderr[-2000:]}")
    return json.loads(res.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    results: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in seeds:
                t0 = time.perf_counter()
                out = run_once(workload, seed, args.seconds)
                runs.append(out["metrics"])
                print(f"{workload} set {k + 1} seed {seed}: {time.perf_counter() - t0:.1f} s wall",
                      file=sys.stderr)
            sets.append(runs)
        results[workload] = sets
        print(f"\n{workload}  ({len(seeds)} seeds x {args.sets} set(s), {args.seconds} s runs)")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for name, m in bounds.items():
            first = None
            for k, runs in enumerate(sets):
                med, q1, q3, sp = spread([r[name]["value"] for r in runs])
                verdict = "steady"
                if sp > m["bound"]:
                    verdict, ok = "SPREAD ABOVE BOUND", False
                elif sp > m["bound"] / 3:
                    verdict = "within bound, above a third"
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    verdict += f"; median {worse:+.1%} worse than set 1"
                    if worse > m["bound"]:
                        verdict, ok = verdict + " (ABOVE BOUND)", False
                label = name if k == 0 else f"  set {k + 1}"
                print(f"  {label:<18} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.3f} "
                      f"{m['bound']:6.2f}  {verdict}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady-{int(time.time())}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"\nraw results: {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
