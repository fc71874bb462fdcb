#!/usr/bin/env python3
"""Builds and runs the DART benchmark for one workload and seed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay-dart --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the library
sources under src/ plus the benchmark program) in $CARGO_TARGET_DIR, or in
.bench_build when that is unset; later runs only rebuild what changed.
The program's output is passed through, and its last line is checked
against BENCHMARK.json: with --trace 0 it must carry exactly the
end-to-end metrics, with --trace 1 exactly the per-layer metrics, each with
its declared unit. DART_* environment knobs other than DART_THREADS are
removed so that they cannot change the workloads.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    """Limit for one run: set-up, warm-up and measurement of `seconds`."""
    return 3 * seconds + 110


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds incrementally; returns the binary path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(cmake_dir, "dart_perfbench")


def check_result(line, bench, trace):
    """Returns an error message when the result line breaks the contract."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if want != got:
        return f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}"
    if not trace:
        # A gated metric compares medians as shares, so it must be a finite
        # number that is never 0.
        for name, metric in result["metrics"].items():
            value = metric.get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
                return f"end-to-end metric {name} is {value}, not a positive number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in 1..3600")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.cpp")):
        fail("DART sources (src/) not found next to perfbench/")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    work_dir = os.path.join(build_dir, "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DART_") or k == "DART_THREADS"}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--records", os.path.join(ROOT, "perfbench", "records.tsv"),
           "--work-dir", work_dir]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], bench, args.trace == "1") if proc.returncode == 0 else None
    if error:
        print("\n".join(lines[:-1]))
        fail(error)
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
