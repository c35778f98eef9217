#!/usr/bin/env python3
"""Count the Python calls one constraint evaluation makes.

    PYTHONPATH=src python benchmarks/profile_calls.py --workload scaled --seed 1 [--json]

Runs one round of a benchmark workload: ``scaled`` is the programs of
``gen.generate_set(seed)`` under the presets of ``SCALED_CONFIGS``, and
``corpus`` the corpus programs under ``CORPUS_CONFIGS`` (the seed is
unused there).  The programs are parsed first; then each analysis runs with
``cProfile`` switched on only inside ``Solver.solve``.  Prints the solver
evaluations of the round and the function calls per evaluation that
``cProfile`` sees, in all and by the source file of the called function
(``<string>`` is code that ``dataclasses`` generates, such as the
``__init__`` of a key).  A call of a built-in function or method
(``len``, ``dict.get``, ``set.add``) counts for the file that makes it;
calls of types (``set()``, ``frozenset(x)``) and of C callables that are
not built-in functions (``functools.partial``, ``operator.attrgetter``)
are not seen.

The counts are exact and do not depend on the host, but they differ across
interpreter versions, so the output names the Python version.
``perfbench/workloads.py`` is imported read-only, as ``check_dumps.py``
does.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
from concurrel.analysis import driver, preset  # noqa: E402
from concurrel.frontend.parser import parse_program  # noqa: E402
from concurrel.solver import Solver  # noqa: E402
from workloads import CORPUS_CONFIGS, SCALED_CONFIGS, load_corpus  # noqa: E402


def round_inputs(workload: str, seed: int) -> list:
    """(program, config) of each analysis of one round, parsed."""
    if workload == "corpus":
        sources = load_corpus(ROOT)
        programs = [parse_program(sources[p], p) for p in sorted(sources)]
        return [(prog, cfg) for prog in programs for cfg in CORPUS_CONFIGS.values()]
    programs = [parse_program(g.source, g.name) for g in gen.generate_set(seed % gen.SEEDS)]
    return [(prog, preset(cfg)) for prog in programs for cfg in SCALED_CONFIGS]


def count_calls(inputs: list) -> tuple[int, dict[str, int]]:
    """The solver evaluations of ``inputs`` and the Python calls made inside
    ``Solver.solve``, by source file."""
    profile = cProfile.Profile()
    solve = Solver.solve

    def profiled(self):
        profile.enable()
        try:
            return solve(self)
        finally:
            profile.disable()

    evaluations = 0
    Solver.solve = profiled
    try:
        for program, config in inputs:
            evaluations += driver.run_analysis(program, config).solver.stats.evaluations
    finally:
        Solver.solve = solve
    by_file: dict[str, int] = {}
    stats = pstats.Stats(profile).stats
    for (filename, _line, _name), (_cc, calls, _tt, _ct, callers) in stats.items():
        if filename == "~":  # a built-in: by the file of each caller
            counts = [(caller, n) for (caller, _l, _f), (_c, n, *_r) in callers.items()]
        else:
            counts = [(filename, calls)]
        for f, n in counts:
            f = os.path.basename(f)
            by_file[f] = by_file.get(f, 0) + n
    return evaluations, by_file


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("corpus", "scaled"), default="scaled")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)

    inputs = round_inputs(args.workload, args.seed)
    evaluations, by_file = count_calls(inputs)
    total = sum(by_file.values())
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "analyses": len(inputs),
        "evaluations": evaluations,
        "calls": total,
        "calls_per_evaluation": round(total / evaluations, 1),
        "by_file": {f: round(n / evaluations, 1)
                    for f, n in sorted(by_file.items(), key=lambda kv: (-kv[1], kv[0]))},
    }
    if args.json:
        print(json.dumps(out, indent=2))
        return 0
    print(f"{args.workload} round, seed {args.seed}, Python {out['python']}: "
          f"{len(inputs)} analyses, {evaluations} evaluations, "
          f"{out['calls_per_evaluation']} calls per evaluation inside Solver.solve")
    for f, per in out["by_file"].items():
        print(f"  {per:8.1f}  {f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
