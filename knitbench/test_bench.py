#!/usr/bin/env python3
"""The benchmark's own tests: tiny runs of every workload through run.py.

    python3 knitbench/test_bench.py

Run it from the repository root. The first test builds the benchmark (see
run.py). Checks that every metric BENCHMARK.json declares is printed with its
unit, untraced and traced; that every host time is scaled by the same
yardstick factor; that the traced run writes its trace file and the
tracing overhead; that the correctness gate fails a run whose reference counter
is perturbed; and that run.py fails without printing a result when the Knit
sources are not next to it.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SCRATCH = ROOT / ".bench_build" / "knitbench" / "test"
RESULTS = ROOT / ".bench_build" / "knitbench" / "results"
# The end-to-end host-time metrics the yardstick scales; serve_pps is a rate.
HOST_TIMES = ["setup_s", "serve_pps", "build_ms", "rebuild_ms", "swap_pause_ms",
              "swap_pause_p90_ms"]


def run_bench(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "knitbench" / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "2", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def check_declared(self, done, declared):
        self.assertEqual(done.returncode, 0, done.stderr)
        result = result_of(done)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
        table = done.stdout.splitlines()[:-1]
        for metric in declared:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))
            self.assertTrue(any(line.split()[:1] == [metric["name"]] and
                                line.split()[-1] == metric["unit"] for line in table),
                            "%s is not in the printed table" % metric["name"])

    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run_bench(workload, 0)
                self.check_declared(done, SPEC["end_to_end"])
                self.assertIn("nproc", done.stdout.splitlines()[0])
                self.check_scaled(workload)

    def check_scaled(self, workload):
        """Every host time is its raw.<name> scaled by one yardstick factor."""
        record = json.loads((RESULTS / ("%s-seed7-trace0.json" % workload)).read_text())
        metrics = {name: metric["value"] for name, metric in record["metrics"].items()}
        self.assertGreater(metrics["host.yardstick_ms"], 0)
        scaled = sorted(name[len("raw."):] for name in metrics if name.startswith("raw."))
        self.assertEqual(scaled, sorted(HOST_TIMES))
        slowdown = metrics["serve_pps"] / metrics["raw.serve_pps"]
        for name in HOST_TIMES:
            expected = slowdown if name == "serve_pps" else 1 / slowdown
            self.assertAlmostEqual(metrics[name] / metrics["raw." + name] / expected, 1,
                                   places=9, msg=name)

    def test_traced_run_prints_every_per_layer_metric_and_writes_the_trace(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                trace = ROOT / ".bench_build" / "knitbench" / "traces" / (
                    "%s-seed7.json" % workload)
                trace.unlink(missing_ok=True)
                done = run_bench(workload, 1)
                self.check_declared(done, SPEC["per_layer"])
                self.assertIn("bench.trace_overhead_pct", result_of(done)["metrics"])
                events = json.loads(trace.read_text())["traceEvents"]
                spans = [event for event in events if event["ph"] == "X"]
                self.assertTrue(spans)
                self.assertTrue(all(event["args"]["workload"] == workload for event in spans))

    def test_a_perturbed_reference_counter_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run_bench(workload, 0, "--perturb-reference")
                self.assertNotEqual(done.returncode, 0)
                result = result_of(done)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn("in0", done.stdout)

    def test_without_the_sources_it_fails_and_prints_no_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "knitbench", bare / "knitbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_bench(WORKLOADS[0], 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
