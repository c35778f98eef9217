#!/usr/bin/env python3
"""Benchmark the bounded interleaving oracle on the corpus.

    python benchmarks/bench_oracle.py [--repeat 1]

Explores every corpus program at the default bounds (``ExploreBounds()``)
and prints, per program, the explored states, the schedules (explored
states without a successor), the distinct reachable per-thread projections
(``len(reachable)``, what the differential check reads), the best wall time
of ``--repeat`` explorations and the explored states per second, then the
totals.  A program whose exploration stopped at a bound is marked with the
bounds it hit.  Parsing and CFG construction are not timed.
"""

import argparse
import glob
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from concurrel.frontend import parse_program  # noqa: E402
from concurrel.frontend.cfg import build_cfg  # noqa: E402
from concurrel.oracle import explore  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()

    print(f"{'program':<16} {'states':>8} {'schedules':>10} {'reachable':>10} "
          f"{'seconds':>8} {'states/s':>9}")
    totals = [0, 0, 0, 0.0]
    for path in sorted(glob.glob(os.path.join(ROOT, "corpus", "*.conc"))):
        with open(path, encoding="utf-8") as f:
            program = parse_program(f.read(), path)
        cfgs = build_cfg(program)
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            ex = explore(program, cfgs=cfgs)
            best = min(best, time.perf_counter() - t0)
        row = (ex.states, ex.schedules, len(ex.reachable), best)
        totals = [a + b for a, b in zip(totals, row)]
        cut = f"  truncated by {', '.join(sorted(ex.truncated_by))}" if ex.truncated else ""
        print(f"{os.path.basename(path)[:-5]:<16} {row[0]:>8} {row[1]:>10} {row[2]:>10} "
              f"{best:>8.3f} {row[0] / best:>9.0f}{cut}")
    states, schedules, reachable, secs = totals
    print(f"{'total':<16} {states:>8} {schedules:>10} {reachable:>10} "
          f"{secs:>8.3f} {states / secs:>9.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
