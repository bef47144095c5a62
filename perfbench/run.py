#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

The `gnnbench` binary is compiled from ``src/`` plus ``perfbench/src/`` into
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``); span
files of traced runs land in ``.bench_build/perfbench-out``. The last line of
standard output is the binary's JSON result. Build output goes to standard
error, so it never mixes with the result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_sweep", "functional_infer", "serve_hetero", "serve_sampled")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        step = subprocess.run(configure, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if step.returncode != 0:
            sys.stderr.write(step.stdout)
            fail("cmake configure failed")
    step = subprocess.run(["cmake", "--build", build_dir, "--target", "gnnbench", "-j", jobs],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if step.returncode != 0:
        sys.stderr.write(step.stdout)
        fail("build failed")
    binary = os.path.join(build_dir, "gnnbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(root, target_dir)
    binary = build(root, os.path.join(target_dir, "perfbench"))
    out_dir = os.path.join(target_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        run = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"gnnbench exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
