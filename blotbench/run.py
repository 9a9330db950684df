#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 blotbench/run.py --workload paper-mix --seed 1 --seconds 10 --trace 0

The first call configures and compiles blotbench/ (which compiles the
repository's libraries from src/) into .bench_build/blotbench in Release
mode; later calls only re-check the build. The benchmark binary then runs
one workload and prints, as the last line of stdout, one JSON object with
the keys correct, attempted, failed and metrics. Build output goes to
stderr. The exit code is the binary's: 0 on success, non-zero on an
oracle mismatch, a usage error, or a failed build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "blotbench")
BUILD_JOBS = "4"


def build():
    """Configures and compiles the benchmark; returns the binary's path."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "blotbench", "-j",
         BUILD_JOBS],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("blotbench: build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "blotbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-mix", "hotspot", "ingest-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies record and op counts (smoke test)")
    parser.add_argument("--corrupt-expected", type=int, choices=[0, 1],
                        default=0,
                        help="perturb one oracle count; the run must fail")
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale),
               "--corrupt-expected", str(args.corrupt_expected)]
    if args.trace:
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
