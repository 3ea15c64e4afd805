#!/usr/bin/env python3
"""Run one workload repeatedly and print each end-to-end metric's spread.

Usage (from the repository root):

    python3 perfbench/steady.py --workload dvs-stream-exit --runs 10 [--first-seed 1]
                                [--seconds N]

Each run uses the next seed. For every metric the table shows the
median, the first and third quartiles, the quartile spread as a share of
the median, and the metric's bound from BENCHMARK.json. A spread above a
third of the bound marks the row with '!'. Runs go through
perfbench/run.py, one at a time, with --trace 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    failed_shares = []
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-2000:])
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        failed_shares.append(result["failed"] / result["attempted"])
        print("seed %d: correct=%s attempted=%d failed=%d  %s" %
              (seed, result["correct"], result["attempted"], result["failed"],
               " ".join("%.5g" % m["value"] for m in result["metrics"].values())))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("\n%-36s %8s %14s %14s %14s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        flag = "!" if spread > bound / 3 else ""
        print("%-36s %8s %14.6g %14.6g %14.6g %8.4f %6.2f %s" %
              (name, units[name], med, q1, q3, spread, bound, flag))
    print("\nfailed share per run: %s" % sorted(set(failed_shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
