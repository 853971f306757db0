"""icbounds benchmark: one client in a closed loop runs a seeded workload
against the public API, checks every certified answer against an independent
reference, and prints the metrics, last of all as one JSON line.

    python3 perfbench/run.py --workload hierarchy-b2 --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from `src/` next to this
directory, and inputs and span files go under `.bench_work/` and
`.bench_out/` there.  `--trace 0` reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` runs the same ops once untraced and once traced
and reports the per-layer metrics, the tracing overhead, and writes the
spans.  Times are corrected for the host's speed drift (see hostspeed.py);
the uncorrected wall times are printed next to them.  Exit code 0 when every
op was certified, 1 when any op failed, 2 on bad usage or a missing program.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH_JSON = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10  # samples that must lie above the reported tail latency
SETUP_REPEATS = 3  # set-ups per run: this process's and two in fresh interpreters


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="nominal length of the run; fixes its op count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb one reference value; the run must then fail")
    return ap.parse_args(argv)


def setup(name: str, seed: int, seconds: float, t_start: float):
    """Import the program, generate and serialize the inputs, and write one
    input file per op.  Returns (workloads module, ops, work dir, seconds
    since t_start corrected and uncorrected)."""
    with HostSpeed("python") as host:
        for var in THREAD_VARS:
            os.environ[var] = "1"
        os.environ.pop("ICBOUNDS_WORKERS", None)
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        if name not in workloads.WORKLOADS:
            raise SystemExit(f"error: unknown workload {name!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        ops = workloads.plan(name, seed, seconds)
        workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(ops):
            op.path = str(workdir / f"op{i:04d}.json")
            with open(op.path, "w") as fh:
                fh.write(op.text)
        t_end = perf_counter()
    return workloads, ops, workdir, (host.correct(t_start, t_end), t_end - t_start)


def print_setup_time(name: str, seed: int, seconds: float) -> None:
    """Set up, print the set-up time as JSON and remove the input files."""
    _, _, workdir, times = setup(name, seed, seconds, perf_counter())
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(times))


def cold_setup(name: str, seed: int, seconds: float) -> tuple[float, float]:
    """Time one more set-up in a fresh interpreter, so that its imports are
    cold, after this process's set-up has ended."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"run.print_setup_time({name!r}, {seed!r}, {seconds!r})")
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {res.stderr.strip()}")
    corrected, raw = json.loads(res.stdout.splitlines()[-1])
    return corrected, raw


def corrupt_reference(ops) -> None:
    """Make the first op that has a checked reference value expect a wrong one."""
    for op in ops:
        for key in ("b2", "rate", "field", "is_two"):
            if key in op.ref:
                v = op.ref[key]
                op.ref[key] = (not v) if isinstance(v, bool) else v + 2
                return
    raise SystemExit("no reference value to corrupt in this plan")


def run_pass(workload, ops, tracer):
    """Closed loop, one client: each op starts when the previous one and its
    check are done.  Only the op itself is timed.  Returns the (start, end)
    of every op, the failures, and the pass's host-speed samples."""
    spans, failures = [], []
    with HostSpeed(workload.calibration) as host:
        for i, op in enumerate(ops):
            t0 = perf_counter()
            try:
                out = tracer.op(i, op.kind, lambda: workload.run(tracer, op))
                t1 = perf_counter()
                errs = workload.check(op, out)
            except Exception as exc:  # a crashed or capped op is a failed op
                t1 = perf_counter()
                errs = [f"{type(exc).__name__}: {exc}"]
            spans.append((t0, t1))
            if errs:
                failures.append((i, op.kind, errs))
    return spans, failures, host


def tail(latencies):
    """(value, percentile, samples beyond): the highest order statistic with
    at least TAIL_BEYOND samples above it, or the maximum for short runs."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def timing(latencies, certified: int):
    """(throughput, p50, tail, tail percentile, samples beyond) of one pass."""
    t_val, t_pct, t_beyond = tail(latencies)
    return (certified / sum(latencies), statistics.median(latencies), t_val,
            t_pct, t_beyond)


def end_to_end(spans, failures, host, setup_s, setup_raw_s):
    n = len(spans)
    certified = n - len(failures)
    tput, p50, t_val, t_pct, t_beyond = timing([host.correct(*s) for s in spans], certified)
    raw_tput, raw_p50, raw_tail, _, _ = timing([b - a for a, b in spans], certified)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (tput, "1/s"),
        "latency_p50_ms": (1000 * p50, "ms"),
        "latency_tail_ms": (1000 * t_val, "ms"),
        "certified_ratio": (certified / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"{setup_raw_s:.4g} s uncorrected",
        "throughput_ops_s": f"{raw_tput:.4g} 1/s uncorrected",
        "latency_p50_ms": f"{1000 * raw_p50:.4g} ms uncorrected",
        "latency_tail_ms": f"{1000 * raw_tail:.4g} ms uncorrected; "
                           f"p{t_pct:.1f}: {t_beyond} of {n} samples beyond",
        "certified_ratio": f"error_rate = {len(failures) / n:.4g} ratio "
                           f"({len(failures)} of {n} ops failed)",
    }
    return metrics, notes


def per_layer(tracer, host, untraced_tput: float, traced_tput: float, traced_s: float):
    st = tracer.self_times(host.correct)
    c = tracer.counts

    def self_s(layer, *names):
        return sum(v for (lay, nm), v in st.items()
                   if lay == layer and (not names or nm in names))

    verify_s = self_s("codes", "verify_code")
    return {
        "instance.parse_ms": (1000 * self_s("instance"), "ms"),
        "hierarchy.build_s": (self_s("hierarchy"), "s"),
        "hierarchy.lp_vars": (c["hierarchy.lp_vars"], "count"),
        "hierarchy.lp_rows": (c["hierarchy.lp_rows"], "count"),
        "lp.solve_s": (self_s("lp"), "s"),
        "lp.calls": (c["lp.calls"], "count"),
        "lp.vars_x_rows": (c["lp.vars_x_rows"], "count"),
        "combinatorial.alpha_s": (self_s("combinatorial", "alpha_exact"), "s"),
        "combinatorial.cover_s": (self_s("combinatorial", "fractional_cover"), "s"),
        "combinatorial.cover_calls": (c["combinatorial.cover_calls"], "count"),
        "combinatorial.cover_sets": (c["combinatorial.cover_sets"], "count"),
        "combinatorial.minrk_s": (self_s("combinatorial", "minrk2"), "s"),
        "approx.greedy_s": (self_s("approx", "alpha_greedy"), "s"),
        "approx.tau_s": (self_s("approx", "tau"), "s"),
        "approx.exact_mode_ops": (c["approx.exact_mode_ops"], "count"),
        "approx.mc_mode_ops": (c["approx.mc_mode_ops"], "count"),
        "approx.tau_gap_sum": (c["approx.tau_gap_sum"], "rate"),
        "beta2.decide_s": (self_s("beta2"), "s"),
        "beta2.is_two": (c["beta2.is_two"], "count"),
        "beta2.aac": (c["beta2.aac"], "count"),
        "codes.build_s": (self_s("codes") - verify_s, "s"),
        "codes.verify_s": (verify_s, "s"),
        "codes.states_checked": (c["codes.states_checked"], "count"),
        "op.glue_s": (self_s("op"), "s"),
        "trace.overhead_pct": (100 * (untraced_tput / traced_tput - 1), "%"),
        "trace.bookkeeping_pct": (100 * host.factor() * tracer.bookkeeping_s() / traced_s, "%"),
    }


def layer_ratios(tracer, metrics) -> dict[str, str]:
    """Ratios of the per-layer counts, printed only: they are undefined on a
    workload that never calls their layer."""
    c = tracer.counts
    out = {}
    if c["approx.tau_over_psi_ops"]:
        out["approx.tau_over_psi"] = (f"{c['approx.tau_over_psi_sum'] / c['approx.tau_over_psi_ops']:.6g}"
                                      f" ratio (mean over {c['approx.tau_over_psi_ops']} ops)")
    if c["codes.verify_calls"]:
        out["codes.states_per_s"] = (f"{c['codes.states_checked'] / metrics['codes.verify_s'][0]:.6g}"
                                     " 1/s")
        out["codes.verified_ratio"] = (f"{c['codes.verified'] / c['codes.verify_calls']:.6g} ratio "
                                       f"({c['codes.verified']} of {c['codes.verify_calls']} codes)")
    return out


def layer_table(tracer, host, traced_s: float) -> list[str]:
    by_layer: dict[str, float] = {}
    for (layer, _), v in tracer.self_times(host.correct).items():
        by_layer[layer] = by_layer.get(layer, 0.0) + v
    lines = ["  per-layer self time (traced pass):"]
    for layer, v in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:<14} {v:10.4f} s  {100 * v / traced_s:5.1f}%")
    return lines


def declared_metrics(section: str) -> list[str]:
    with open(BENCH_JSON) as fh:
        return [m["name"] for m in json.load(fh)[section]]


def main(argv=None) -> int:
    t_start = perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "icbounds" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {ROOT / 'src' / 'icbounds'}", file=sys.stderr)
        return 2
    workloads, ops, workdir, setup_here = setup(args.workload, args.seed, args.seconds, t_start)
    try:
        # setup_s is an end-to-end metric, so a traced run times one set-up
        setups = [setup_here] + [cold_setup(args.workload, args.seed, args.seconds)
                                 for _ in range(0 if args.trace else SETUP_REPEATS - 1)]
        if args.corrupt_reference:
            corrupt_reference(ops)
        return measure(args, workloads, ops, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, ops, setups: list[tuple[float, float]]) -> int:
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {workload.name}  seed {args.seed}  ops {len(ops)}  "
          f"closed loop, 1 client, 1 BLAS thread")
    print(f"  why: {workload.why}")
    spans, failures, host = run_pass(workload, ops, NullTracer())
    attempted = len(ops)
    if args.trace:
        untraced_tput = (len(ops) - len(failures)) / sum(host.correct(*s) for s in spans)
        tracer = Tracer()
        traced_spans, traced_fail, host = run_pass(workload, ops, tracer)
        traced_s = sum(host.correct(*s) for s in traced_spans)
        traced_tput = (len(ops) - len(traced_fail)) / traced_s
        failures += traced_fail
        attempted += len(ops)
        metrics = per_layer(tracer, host, untraced_tput, traced_tput, traced_s)
        span_file = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(str(span_file))
        print("\n".join(layer_table(tracer, host, traced_s)))
        print(f"  tracing overhead: throughput {untraced_tput:.4f} ops/s untraced, "
              f"{traced_tput:.4f} ops/s traced ({metrics['trace.overhead_pct'][0]:+.2f}%); "
              f"recording the spans cost "
              f"{metrics['trace.bookkeeping_pct'][0]:.4f}% of the traced pass")
        print(f"  {len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
        for name, text in layer_ratios(tracer, metrics).items():
            print(f"  {name:<28} {text}")
        notes = {}
        section = "per_layer"
    else:
        metrics, notes = end_to_end(spans, failures, host,
                                    statistics.median(c for c, _ in setups),
                                    statistics.median(r for _, r in setups))
        notes["setup_s"] += (f"; median of {len(setups)} set-ups: "
                             + ", ".join(f"{c:.4g}" for c, _ in setups) + " s")
        section = "end_to_end"
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {value:14.6g} {unit}{note}")
    for i, kind, errs in failures:
        print(f"  FAILED op {i} ({kind}): {'; '.join(errs)}")
    declared = declared_metrics(section)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
