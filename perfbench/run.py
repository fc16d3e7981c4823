#!/usr/bin/env python3
"""End-to-end benchmark of the POLaR runtime.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload kv_hot|kv_large|spec_mini \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from src/) into .bench_build/
with CMake, then runs one workload single-threaded on the stored backend.
Workload inputs derive from --seed. Every line but the last is a readable
report; the last line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
ledger of a separate traced run with --trace 1. The exit code is non-zero
when the build fails, an argument is bad, or any correctness check fails
(response parity with Direct, SPEC checksums, server accounting, runtime
violation reports, the stored-backend dispatch self-check).

--corrupt-reference perturbs the Direct reference values, so that a correct
program must fail the parity gate; perfbench/test_perfbench.py uses it as
a negative control. Traced runs also write their spans to
.bench_build/spans/.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "RelWithDebInfo"  # the library's default build type
WORKLOADS = ("kv_hot", "kv_large", "spec_mini")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; exits non-zero on error."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runtime.h")):
        sys.exit("perfbench: library sources (src/) not found under " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt-reference", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.csv" % (args.workload, args.seed))]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
