#!/usr/bin/env python3
"""Steadiness check for the sharing benchmark.

    python3 sharebench/steady.py [--runs 10] [--first-seed 101]
                                 [--heldout-seed 9001] [--workloads a,b]
                                 [--tag NAME] [--compare OTHER.json]

Runs every workload --runs times through run.py, each run on its own seed
(first-seed, first-seed + 1, ...), alternating the workload order from round
to round. For each end-to-end metric it prints the median, the quartiles and
the spread (Q3 - Q1 over the median, quartiles from statistics.quantiles with
n=4) against the metric's bound in BENCHMARK.json, and the share of failed
operations. It then runs each workload once on a held-out seed and prints
where each metric lands against the set's median. With --compare it also
prints how far each median moved from an earlier set. Raw results are saved
to .bench_build/sharebench/steady-<tag>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "sharebench")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steady: %s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description="Steadiness check for the sharing benchmark")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--heldout-seed", type=int, default=9001)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--tag", default="set")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, args.first_seed + i, seconds)
            results[w].append(r)
            print("round %d %s: correct=%s attempted=%d failed=%d" % (
                i, w, r["correct"], r["attempted"], r["failed"]), flush=True)
    heldout = {w: run_once(w, args.heldout_seed, seconds) for w in workloads}

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "steady-%s.json" % args.tag)
    with open(path, "w") as f:
        json.dump({"results": results, "heldout": heldout}, f)
    other = {}
    if args.compare:
        with open(args.compare) as f:
            other = json.load(f)["results"]

    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n== %s (%d runs; failed share %s; all correct: %s)" % (
            w, len(runs), shares, all(r["correct"] for r in runs)))
        print("%-24s %12s %12s %12s %8s %6s %10s %10s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "heldout", "moved"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, sp = spread(values)
            held = heldout[w]["metrics"][name]["value"]
            moved = ""
            if w in other:
                prev = statistics.median(r["metrics"][name]["value"] for r in other[w])
                moved = "%+.3f" % ((med - prev) / prev) if prev else "n/a"
            flag = "" if name == "setup_s" or sp <= bound / 3 else "  <-- over bound/3"
            print("%-24s %12.5g %12.5g %12.5g %8.4f %6.2f %+10.3f %10s%s" % (
                name, q1, med, q3, sp, bound, (held - med) / med if med else 0.0,
                moved, flag))
    print("\nraw results: %s" % path)


if __name__ == "__main__":
    main()
