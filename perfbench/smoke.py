"""Smoke tests of the benchmark itself, at tiny sizes (about a second of ops
per run).  Run from the repository root:

    python3 perfbench/smoke.py

They check that every declared metric is printed with its unit, that a wrong
reference value makes the run fail, that the traced run writes its spans and
states its overhead, that inputs depend only on the seed, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hierarchy-b2", "approx-sweep", "code-verify")
TINY = "0.5"  # nominal seconds: only the cheapest templates of each catalogue


def bench_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run(*extra: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--seconds", TINY, *extra]
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = res.stdout.splitlines()
    return res.returncode, lines, res.stderr


class EndToEnd(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        declared = {m["name"]: m["unit"] for m in bench_json()["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines, err = run("--workload", workload, "--seed", "3", "--trace", "0")
                self.assertEqual(rc, 0, err)
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, declared)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                text = "\n".join(lines[:-1])
                for name, unit in declared.items():
                    self.assertRegex(text, rf"{name}\s+\S+ {unit}")
                self.assertRegex(text, r"error_rate = 0 ratio")
                self.assertRegex(text, r"latency_tail_ms .*p[\d.]+: \d+ of \d+ samples beyond")
                self.assertRegex(text, r"latency_p50_ms .*ms uncorrected")
                self.assertRegex(text, r"setup_s .*median of 3 set-ups: [\d.]+, ")

    def test_wrong_reference_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines, _ = run("--workload", workload, "--seed", "3",
                                   "--corrupt-reference")
                self.assertNotEqual(rc, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["certified_ratio"]["value"], 1)
                self.assertRegex("\n".join(lines), r"error_rate = 0\.\d+ ratio")
                self.assertIn("FAILED op", "\n".join(lines))


class Traced(unittest.TestCase):
    def test_per_layer_metrics_and_spans(self):
        declared = {m["name"]: m["unit"] for m in bench_json()["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines, err = run("--workload", workload, "--seed", "4", "--trace", "1")
                self.assertEqual(rc, 0, err)
                result = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, declared)
                text = "\n".join(lines)
                self.assertIn("tracing overhead", text)
                self.assertIn("per-layer self time", text)
                # ratios of an idle layer are left out rather than printed as 0
                self.assertEqual("codes.verified_ratio" in text, workload == "code-verify")
                self.assertEqual("approx.tau_over_psi" in text, workload == "approx-sweep")
                spans = ROOT / ".bench_out" / f"spans-{workload}-seed4.jsonl"
                records = [json.loads(x) for x in spans.read_text().splitlines()]
                self.assertIn("counts", records[-1])
                layers = {r["layer"] for r in records[:-1]}
                self.assertIn("instance", layers)
                self.assertIn("op", layers)


class Inputs(unittest.TestCase):
    def test_seed_determines_inputs(self):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import workloads

        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = [op.text for op in workloads.plan(workload, 7, 2)]
                b = [op.text for op in workloads.plan(workload, 7, 2)]
                c = [op.text for op in workloads.plan(workload, 8, 2)]
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_op_count_depends_only_on_seconds(self):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import workloads

        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                counts = {len(workloads.plan(workload, s, 20)) for s in range(1, 6)}
                self.assertEqual(len(counts), 1)


class HostSpeedCorrection(unittest.TestCase):
    def test_samples_are_removed_and_times_add_up(self):
        sys.path[:0] = [str(HERE)]
        from hostspeed import HostSpeed

        with HostSpeed("python") as host:
            t0 = perf_counter()
            while perf_counter() - t0 < 1.0:  # one long op, never yielding
                pass
            t1 = perf_counter()
        inside = [k for k, (a, b) in enumerate(zip(host.starts, host.ends)) if t0 <= a and b <= t1]
        self.assertGreaterEqual(len(inside), 3)
        own = t1 - t0 - sum(host.ends[k] - host.starts[k] for k in inside)
        got = host.correct(t0, t1)
        self.assertGreaterEqual(got, own * min(host.speed) * (1 - 1e-9))
        self.assertLessEqual(got, own * max(host.speed) * (1 + 1e-9))
        # a parent's time is the sum of its parts, so self times are never negative
        k = inside[1]
        mid = (host.ends[k] + host.starts[k + 1]) / 2
        self.assertAlmostEqual(host.correct(t0, mid) + host.correct(mid, t1), got)
        # between two samples the clock runs at the mean of their speeds
        self.assertAlmostEqual(host.correct(mid, mid + 1e-4),
                               1e-4 * (host.speed[k] + host.speed[k + 1]) / 2)
        self.assertEqual(host.correct(host.starts[k], host.ends[k]), 0.0)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_the_program(self):
        bare = ROOT / ".bench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            rc, lines, err = run("--workload", "hierarchy-b2", "--seed", "1",
                                 cwd=bare, script=bare / HERE.name / "run.py")
            self.assertNotEqual(rc, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))
            self.assertIn("no program", err)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
