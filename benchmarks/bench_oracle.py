#!/usr/bin/env python3
"""Benchmark the bounded interleaving oracle on the corpus.

    python benchmarks/bench_oracle.py [--repeat 1] [--scaled K]

Explores every corpus program at the default bounds (``ExploreBounds()``),
and with ``--scaled K`` also the 4 generated programs of each generator
seed 0..K-1 (``perfbench/gen.py``, named ``scaled_s<seed>_p<n>``).  It
prints, per program, the explored states, the schedules (explored states
without a successor), the distinct reachable per-thread projections
(``len(reachable)``, what the differential check reads), the best wall time
of ``--repeat`` explorations and the explored states per second, then the
totals (with ``--scaled``, first those of the corpus and of the generated
programs apart).  A program whose exploration stopped at a bound is marked
with the bounds it hit.  Parsing and CFG construction are not timed.
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


def _programs(scaled: int):
    """(group, name, program) for the corpus, then the generated programs."""
    for path in sorted(glob.glob(os.path.join(ROOT, "corpus", "*.conc"))):
        with open(path, encoding="utf-8") as f:
            yield "corpus", os.path.basename(path)[:-5], parse_program(f.read(), path)
    if scaled:
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        import gen
        for seed in range(scaled):
            for g in gen.generate_set(seed):
                yield "scaled", g.name, parse_program(g.source, g.name)


def _line(name: str, row) -> str:
    states, schedules, reachable, secs = row
    return (f"{name:<16} {states:>8} {schedules:>10} {reachable:>10} "
            f"{secs:>8.3f} {states / secs:>9.0f}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--scaled", type=int, default=0, metavar="K",
                    help="also explore the generated programs of seeds 0..K-1")
    args = ap.parse_args()

    print(f"{'program':<16} {'states':>8} {'schedules':>10} {'reachable':>10} "
          f"{'seconds':>8} {'states/s':>9}")
    totals: dict[str, list] = {}
    for group, name, program in _programs(args.scaled):
        cfgs = build_cfg(program)
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            ex = explore(program, cfgs=cfgs)
            best = min(best, time.perf_counter() - t0)
        row = (ex.states, ex.schedules, len(ex.reachable), best)
        totals[group] = [a + b for a, b in zip(totals.get(group, [0, 0, 0, 0.0]), row)]
        cut = f"  truncated by {', '.join(sorted(ex.truncated_by))}" if ex.truncated else ""
        print(_line(name, row) + cut)
    if len(totals) > 1:
        for group, row in totals.items():
            print(_line(f"total {group}", row))
    print(_line("total", [sum(col) for col in zip(*totals.values())]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
