#!/usr/bin/env python3
"""End-to-end benchmark of the Scorpion engine.

Run from the repository root:

    python3 perfbench/run.py --workload dt_synth3d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (its own CMake project over ../src) into
.bench_build/perfbench on first use, then runs one workload in a fresh
benchmark process, so peak RSS and set-up time belong to that workload alone.
The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1 (spans are then written to
.bench_build/perfbench/spans/). The metric names must match BENCHMARK.json.
Exits non-zero, without a result line, when the build or the benchmark fails;
exits 1 after the result line when any answer was wrong.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("dt_synth3d", "mc_expense", "live_sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    # Concurrent runs in one checkout share the build tree: serialize.
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as err:
                log(f"build step failed: {err}")
                return False
            if done.returncode != 0:
                log(f"build step failed ({done.returncode}): {' '.join(step)}")
                return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None, []
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, lines
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        return None, lines
    return result, lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 2

    if args.selftest:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              check=False).returncode

    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        # subprocess.run kills and reaps the benchmark if it overruns.
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S}s")
        return 2

    result, other_lines = parse_result(done.stdout)
    if result is None or done.returncode not in (0, 1):
        log(done.stdout)
        log(f"benchmark failed ({done.returncode}) without a result")
        return 2
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        log(f"metrics {sorted(result['metrics'])} do not match "
            f"BENCHMARK.json {sorted(want)}")
        return 2
    for line in other_lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
