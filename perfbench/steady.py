#!/usr/bin/env python3
"""Steadiness check: run each workload several times and report spreads.

    python3 perfbench/steady.py [--runs N] [--first-seed S] [--seconds T]
                                [--workloads a,b,...]

Run from the root of the repository. Each run gets its own seed (S, S+1,
...) and reports the end-to-end metrics (`--trace 0`). Every run's
pass-drift lines are echoed as they finish. Per workload
and metric the table shows the median, the quartiles (Python's
statistics.quantiles, n=4), the quartile distance as a share of the
median, and the fastest-to-slowest ratio (max/min). The bounds in
BENCHMARK.json are set from this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ALL = ["batch_heuristics", "stream_lsched", "train_resume", "serve_failover"]


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    for line in lines[:-1]:
        print(f"  [{workload} seed {seed}] {line}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  [{workload} seed {seed}] INCORRECT OUTPUT")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    # run_seconds in BENCHMARK.json, the run length the bounds came from.
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--workloads", default=",".join(ALL))
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        results = [run(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        failed = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs, failed share {failed}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min':>8}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            ratio = max(values) / min(values) if min(values) > 0 else float("nan")
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {ratio:8.4f}"
                  f"  {first['unit']}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
