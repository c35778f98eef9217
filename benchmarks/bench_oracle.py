#!/usr/bin/env python3
"""Benchmark the bounded interleaving oracle on the corpus.

    python benchmarks/bench_oracle.py [--repeat 1] [--scaled K] [--check] [--deep]

Explores every corpus program at the default bounds (``ExploreBounds()``),
or with ``--deep`` at ``DEEP_BOUNDS`` (havoc values -1..2, 600,000 states),
and with ``--scaled K`` also the 4 generated programs of each generator
seed 0..K-1 (``perfbench/gen.py``, named ``scaled_s<seed>_p<n>``).  It
prints, per program, the explored states (``Exploration.states``: the
states with each thread's local steps collapsed, plus the members of every
segment), the segments (the distinct segment origins), the schedules (the
distinct final interleaved states, where no thread can move; a finished
thread in them, as in every state, keeps only its id and status, and a
returned one its return value and digests until it is joined), the distinct
reachable per-thread projections (``len(reachable)``, what the differential
check reads), the best wall time of ``--repeat`` explorations and the
explored states per second (the exploration's time includes building the
groups of reachable states that the differential check reads), then the totals (with ``--scaled``, first those of the corpus and of the generated
programs apart).  A program whose exploration stopped at a bound is marked
with the bounds it hit.  Parsing and CFG construction are not timed.

With ``--check`` it also analyzes each program under the presets that the
``oracle-validate`` benchmark workload checks (interval, octagon, tids and
clusters) and adds two columns: the time of the analyses (``run_analysis``
plus ``check_asserts``) and that of ``check_soundness`` against the
exploration, each summed over the presets (each preset the best of
``--repeat`` runs).  One line then shows a program's exploration, analyses
and check side by side.  The program is lowered before the exploration,
and the exploration and every analysis share that lowering.
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
from concurrel.oracle import DEEP_BOUNDS, ExploreBounds, explore  # noqa: E402

CHECK_PRESETS = ("interval", "octagon", "tids", "clusters")


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


def _time_checks(program, ex, repeat: int) -> tuple[float, float]:
    """Seconds of the analyses (``run_analysis`` and ``check_asserts``) and
    of ``check_soundness``, each summed over ``CHECK_PRESETS``."""
    from concurrel.analysis import check_asserts, preset, run_analysis
    from concurrel.differential import check_soundness

    analyses = checks = 0.0
    for name in CHECK_PRESETS:
        best_analysis = best_check = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            result = run_analysis(program, preset(name))
            verdicts = check_asserts(result)
            t1 = time.perf_counter()
            check_soundness(result, ex, verdicts)
            t2 = time.perf_counter()
            best_analysis, best_check = min(best_analysis, t1 - t0), min(best_check, t2 - t1)
        analyses += best_analysis
        checks += best_check
    return analyses, checks


def _line(name: str, row) -> str:
    states, segments, schedules, reachable, secs, *check = row
    return (f"{name:<16} {states:>8} {segments:>8} {schedules:>10} {reachable:>10} "
            f"{secs:>8.3f} {states / secs:>9.0f}"
            + "".join(f" {c:>{w}.3f}" for c, w in zip(check, (10, 8))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--scaled", type=int, default=0, metavar="K",
                    help="also explore the generated programs of seeds 0..K-1")
    ap.add_argument("--check", action="store_true",
                    help="also time the analyses and check_soundness under the "
                         "oracle-validate presets")
    ap.add_argument("--deep", action="store_true",
                    help="explore at DEEP_BOUNDS instead of ExploreBounds()")
    args = ap.parse_args()
    bounds = DEEP_BOUNDS if args.deep else ExploreBounds()

    print(f"{'program':<16} {'states':>8} {'segments':>8} {'schedules':>10} {'reachable':>10} "
          f"{'seconds':>8} {'states/s':>9}"
          + (f" {'analyses s':>10} {'check s':>8}" if args.check else ""))
    totals: dict[str, list] = {}
    for group, name, program in _programs(args.scaled):
        cfgs = build_cfg(program)
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            ex = explore(program, bounds, cfgs)
            ex.groups  # built at the first check; timed with the exploration
            best = min(best, time.perf_counter() - t0)
        row = [ex.states, ex.segments, ex.schedules, len(ex.reachable), best]
        if args.check:
            row += _time_checks(program, ex, args.repeat)
        totals[group] = [a + b for a, b in zip(totals.get(group, [0] * len(row)), row)]
        cut = f"  truncated by {', '.join(sorted(ex.truncated_by))}" if ex.truncated else ""
        print(_line(name, row) + cut)
    if len(totals) > 1:
        for group, row in totals.items():
            print(_line(f"total {group}", row))
    print(_line("total", [sum(col) for col in zip(*totals.values())]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
