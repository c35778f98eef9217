#!/usr/bin/env python3
"""Time the analysis of generated programs as the number of threads grows.

    python benchmarks/bench_threads.py [--seed 1] [--repeat 1] [--with-64]

Analyzes ``gen.generate(seed, 0, Shape(workers=W, mutexes=4,
globals_per_mutex=3))`` (``perfbench/gen.py``) for W = 2, 4, 8, 16 and 32
worker threads, and also 64 with ``--with-64`` (the clusters preset takes
tens of seconds there), under each preset.  Prints, per W and preset, the
solver evaluations and the best wall time of ``--repeat`` analyses.
Parsing is not timed.  ``perfbench/gen.py`` is imported read-only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
from concurrel.analysis import preset  # noqa: E402
from concurrel.analysis.driver import run_analysis  # noqa: E402
from concurrel.domains import KERNEL  # noqa: E402
from concurrel.frontend.parser import parse_program  # noqa: E402

WORKERS = (2, 4, 8, 16, 32)
PRESETS = ("octagon", "tids", "clusters")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=1, help="analyses per cell; the best is kept")
    ap.add_argument("--with-64", action="store_true", help="also run 64 workers")
    args = ap.parse_args(argv)

    workers = WORKERS + ((64,) if args.with_64 else ())
    print(f"kernel={KERNEL}, seed {args.seed}, 4 mutexes x 3 globals, best of {args.repeat}")
    print(f"{'workers':>7}  " + "  ".join(f"{p + ' evals':>16}  {p + ' s':>12}" for p in PRESETS))
    for w in workers:
        g = gen.generate(args.seed, 0, gen.Shape(workers=w, mutexes=4, globals_per_mutex=3))
        program = parse_program(g.source, g.name)
        cells = []
        for p in PRESETS:
            best = float("inf")
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                result = run_analysis(program, preset(p))
                best = min(best, time.perf_counter() - t0)
            cells.append(f"{result.solver.stats.evaluations:>16}  {best:>12.3f}")
        print(f"{w:>7}  " + "  ".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
