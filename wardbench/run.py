#!/usr/bin/env python3
"""Builds the ward benchmark from source and runs one workload.

Run from the repository root:

    python3 wardbench/run.py --workload ward_steady --seed 1 --seconds 10 --trace 0
    python3 wardbench/run.py --seed 1              # all three workloads in turn
    python3 wardbench/run.py --self-check

The build goes to $CARGO_TARGET_DIR (default .bench_build), outputs (trace
spans, recordings) to .bench_out. Build logs go to stderr, so the last line
of stdout is the result JSON.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ward_steady", "admission_population", "gateway_replay")


def build(build_dir):
    """Configures (once) and builds the wardbench target; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "wardbench", "-j2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-check", action="store_true",
                        help="run a miniature of every workload through every check")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("wardbench: build failed", file=sys.stderr)
        return 1
    binary = [os.path.join(build_dir, "wardbench"), "--out-dir", ".bench_out"]
    if args.self_check:
        return subprocess.run(binary + ["--self-check"]).returncode
    rc = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        run = subprocess.run(binary + ["--workload", workload, "--seed", str(args.seed),
                                       "--seconds", str(args.seconds), "--trace", args.trace])
        rc = rc or run.returncode
    return rc


if __name__ == "__main__":
    sys.exit(main())
