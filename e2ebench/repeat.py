#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and prints each metric's
median and spread, the way the bounds in BENCHMARK.json were set.

    python3 e2ebench/repeat.py --workload ingest_frames --seeds 11-20 \
        [--seconds 30] [--trace 0]

Run from the repository root. The spread is the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median. Each end-to-end metric's spread over one set of seeds must stay
within its BENCHMARK.json bound, except setup_s's; the medians of two
sets, setup_s's too, must not differ by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="11-20")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values, shares = {}, set()
    for seed in seeds(args.seeds):
        run = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace], capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print("seed %d: exit %d %s" % (seed, run.returncode,
                                            run.stderr.strip()[-300:]))
            continue
        result = json.loads(lines[-1])
        print("seed %d: correct %s attempted %d failed %d" % (
            seed, result["correct"], result["attempted"], result["failed"]))
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and median:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / median
        print("%-42s median %-12.6g spread %.3f  (n=%d)" % (
            name, median, spread, len(vals)))
    print("failed shares:", sorted(shares))


if __name__ == "__main__":
    main()
