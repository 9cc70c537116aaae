#!/usr/bin/env python3
"""Build the sharing benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 sharebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 sharebench/run.py --smoke

The benchmark and the ads libraries are built with CMake from
sharebench/CMakeLists.txt into .bench_build/sharebench (configured once,
then brought up to date on every call; build output goes to stderr). The
benchmark's standard output is passed through: its last line is the JSON
result. A traced run (--trace 1) writes its spans to
.bench_build/sharebench/spans-<workload>-<seed>.jsonl.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sharebench")
BINARY = os.path.join(BUILD, "sharebench")


def build():
    """Configure (first time) and build; exit non-zero when either fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("sharebench: no ads sources next to the benchmark (src/ is missing)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "sharebench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("sharebench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    build()
    if args.smoke:
        cmd = [BINARY, "--smoke"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(
                BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
