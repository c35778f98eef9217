#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/stability.py --workload corpus-analyze --seeds 10

Runs the benchmark once per seed (1 .. N) for BENCHMARK.json's
``run_seconds``, one run at a time, and prints for each end-to-end metric of
BENCHMARK.json the median of the runs and the distance between their first
and third quartiles as a share of the median, next to a third of the
metric's bound.  Exits with 1 if a run is incorrect or a spread is not
below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    runs = []
    for seed in range(1, args.seeds + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    print(f"{'metric':24s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    ok = all(r["correct"] for r in runs)
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  WIDE"
        ok = ok and not flag
        print(f"{m['name']:24s} {med:12.4f} {spread:8.4f} {m['bound'] / 3:8.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
