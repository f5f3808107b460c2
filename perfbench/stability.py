#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for the bounds it declares.

    python3 perfbench/stability.py --runs 10 [--workload NAME ...] [--first-seed N]

Runs each workload --runs times through run.py, each run with its own seed,
and prints for every end-to-end metric of BENCHMARK.json the median of the
runs and the quartile spread (Q3 - Q1) / median, with Q1 and Q3 as
Python's statistics.quantiles(values, n=4) gives them, and the spread as
a share of the metric's declared bound.  A metric whose spread is not below
its bound is marked WIDE.  Exits non-zero when a run fails or a metric is
WIDE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartile_spread(values):
    """(Q3 - Q1) / median of `values` (at least two of them)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    ok = True
    for workload in args.workload or names:
        values = {}
        for run in range(args.runs):
            seed = args.first_seed + run
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed",
                                    str(seed), "--seconds",
                                    str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit "
                      f"{proc.returncode})", flush=True)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                flush=True)
        for metric in bench["end_to_end"]:
            series = values.get(metric["name"], [])
            if len(series) < 2:
                continue
            spread = quartile_spread(series)
            wide = spread >= metric["bound"]
            ok = ok and not wide
            print(f"  {workload:14} {metric['name']:12} median "
                  f"{statistics.median(series):12.5g} {metric['unit']:5} "
                  f"spread {spread:6.3f} bound {metric['bound']:.2f} "
                  f"({spread / metric['bound']:4.0%} of it)"
                  + ("  WIDE" if wide else ""), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
