#!/usr/bin/env python3
"""Builds the FeMux benchmark driver from source and runs one workload.

Usage, from the repository root:
    python3 perfbench/run.py --workload fleet_stream|femux|daemon_tick \\
        --seed N --seconds S --trace 0|1

The driver is configured and built with CMake in $CARGO_TARGET_DIR (default
.bench_build) under the current directory; an up-to-date build costs about a
second. Build output goes to stderr. Standard output carries the driver's
provenance and detail lines and, last, the result object. The result is
checked against BENCHMARK.json (when present) before it is printed: its
metric names must be exactly the end_to_end names (--trace 0) or per_layer
names (--trace 1). Exits non-zero, printing no result, when the build, the
run or that check fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "femux_perfbench",
             "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "femux_perfbench")


def expected_metrics(trace):
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            raise ValueError("metrics differ from BENCHMARK.json: %s"
                             % sorted(set(got.items()) ^ set(expected.items())))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace,
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print("perfbench: driver exited with %d" % run.returncode, file=sys.stderr)
        return run.returncode or 1
    try:
        check_result(lines[-1], args.trace == "1")
    except (ValueError, KeyError, TypeError) as error:
        print("perfbench: bad result: %s" % error, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
