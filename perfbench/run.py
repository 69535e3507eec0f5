#!/usr/bin/env python3
"""Repository benchmark: builds strr_perfbench from source, runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload citywide --seed 1 --seconds 6 --trace 0

The first run in a checkout configures and builds the benchmark (CMake, from
perfbench/CMakeLists.txt over ../src) and generates the full-scale dataset
once; later runs reuse both. Everything is written under the build directory
($CARGO_TARGET_DIR, default .bench_build). The last line of standard output
is the JSON result object printed by the benchmark binary.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("citywide", "rush_hour", "live_rush")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 780


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def run_logged(cmd, log_path, timeout):
    """Runs cmd with output appended to log_path; True on success."""
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        try:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return done.returncode == 0


def tail(path, lines=30):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def ensure_binary(out):
    """Configures and builds strr_perfbench; returns its path or None."""
    cmake_dir = os.path.join(out, "perfbench")
    log = os.path.join(out, "perfbench-build.log")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", cmake_dir,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                          log, BUILD_TIMEOUT_S):
            print(tail(log), file=sys.stderr)
            return None
    if not run_logged(["cmake", "--build", cmake_dir, "-j", jobs,
                       "--target", "strr_perfbench"], log, BUILD_TIMEOUT_S):
        print(tail(log), file=sys.stderr)
        return None
    return os.path.join(cmake_dir, "strr_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core",
                                       "reachability_engine.h")):
        return fail(f"strr sources not found under {ROOT}/src")

    out = build_dir()
    binary = ensure_binary(out)
    if binary is None:
        return fail("build failed (log: perfbench-build.log in the build dir)")

    data = os.path.join(out, "perfbench-data")
    prepare_log = os.path.join(out, "perfbench-prepare.log")
    if not run_logged([binary, "prepare", "--data", data], prepare_log,
                      BUILD_TIMEOUT_S):
        print(tail(prepare_log), file=sys.stderr)
        return fail("dataset generation failed")

    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--data", data,
           "--work", os.path.join(out, "perfbench-work", args.workload)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out, "perfbench-spans", f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
