"""Steadiness check: run one workload N times and show each metric's spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 101]

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...) and
lasts ``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(values,
n=4)``), min and max, and the inter-quartile spread as a share of the
median beside the metric's bound.  Before each run it also times a fixed
pure-Python calibration loop, so machine drift (the loop's own spread) can
be told apart from a change in the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python workload (dict and int churn)."""
    t = time.perf_counter()
    table = {}
    acc = 0
    for i in range(400_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    calib, results, failed = [], [], []
    for i in range(args.runs):
        calib.append(calibration_loop())
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.first_seed + i),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True)
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        if not result["correct"]:
            print(f"run {i}: outputs incorrect", file=sys.stderr)
        results.append(result["metrics"])
        failed.append(result["failed"] / result["attempted"])
        print(f"run {i + 1}/{args.runs} seed {args.first_seed + i} done",
              file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.runs} runs of {seconds} s; "
          f"failed share {sorted(set(failed))}")
    print(f"{'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}"
          f"{'max':>12}{'iqr/med':>9}{'bound':>7}")
    rows = [("calibration_s", calib, None)] + [
        (name, [r[name]["value"] for r in results], bounds.get(name))
        for name in results[0]
    ]
    for name, values, bound in rows:
        q1, med, q3 = spread(values)
        share = (q3 - q1) / med
        print(f"{name:<24}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{min(values):>12.5g}"
              f"{max(values):>12.5g}{share:>9.3f}"
              f"{'' if bound is None else format(bound, '.2f'):>7}")
    print("per run, in run order:")
    for name, values, _ in rows:
        print(f"{name:<24}" + " ".join(f"{v:.4g}" for v in values))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
