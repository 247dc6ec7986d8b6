#!/usr/bin/env python3
"""The repository benchmark: builds knitbench from source and runs one workload.

    python3 knitbench/run.py --workload fleet|build|hotswap --seed N \
        --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds a
Release tree under .bench_build/knitbench (about a minute on 4 cores).

The last stdout line is one JSON object with exactly the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end_to_end
metrics BENCHMARK.json declares; with --trace 1 they are its per_layer
metrics, a Chrome trace of every span goes to
.bench_build/knitbench/traces/<workload>-seed<N>.json, and the tracing
overhead is printed. Every run also writes its full record (host facts, seed,
commit, every measured metric) to .bench_build/knitbench/results/.

Exits 1 when an output check fails or a declared metric is missing, 2 when
the benchmark cannot be built (for example when src/ is not next to it).
Extra arguments (--tiny, --perturb-reference) go to the knitbench binary;
the benchmark's own tests use them.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "knitbench"
BUILD_DIR = ROOT / ".bench_build" / "knitbench"
BINARY = BUILD_DIR / "knitbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code):
    print("knitbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the Knit sources (src/) are not next to the benchmark", 2)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "knitbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step %s failed: %s" % (step[:2], error), 2)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step %s failed" % (step[:2],), 2)


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return None


def source_digest():
    """sha256 over the measured sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for base in ("src", "knitbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fleet", "build", "hotswap"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    if args.trace:
        trace_file = BUILD_DIR / "traces" / ("%s-seed%d.json" % (args.workload, args.seed))
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        command += ["--trace-file", str(trace_file)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("knitbench did not finish within %d s" % RUN_TIMEOUT_S, 1)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("knitbench exited with code %d" % done.returncode, 1)
    record = json.loads(lines[-1])
    record["commit"] = commit()
    record["source_digest"] = source_digest()

    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    host = record["host"]
    print("knitbench %s seed %d: nproc %s, %s build, %s, commit %s" % (
        args.workload, args.seed, host["nproc"], host["build_type"], host["compiler"],
        record["commit"] or "none (source digest %s)" % record["source_digest"][:16]))
    for error in record["errors"]:
        print("  check failed: " + error)
    measured = record["metrics"]
    for metric_name in sorted(measured):
        metric = measured[metric_name]
        print("  %-36s %14.6g %s" % (metric_name, metric["value"], metric["unit"]))
    print("  error_rate %.6g (%d failed of %d attempted)" % (
        measured["error_rate"]["value"], record["failed"], record["attempted"]))

    correct = bool(record["correct"])
    metrics = {}
    for metric in declared:
        got = measured.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            print("knitbench: declared metric %s (%s) was not measured" % (
                metric["name"], metric["unit"]), file=sys.stderr)
            correct = False
            continue
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
