#!/usr/bin/env python3
"""Count the Python calls one constraint evaluation makes.

    PYTHONPATH=src python benchmarks/profile_calls.py --workload scaled --seed 1 \
        [--top N] [--max-calls X] [--json]

Runs one round of a benchmark workload: ``scaled`` is the programs of
``gen.generate_set(seed)`` under the presets of ``SCALED_CONFIGS``, and
``corpus`` the corpus programs under ``CORPUS_CONFIGS`` (the seed is
unused there).  The programs are parsed first; then each analysis runs with
``cProfile`` switched on only inside ``Solver.solve``.  Prints the solver
evaluations of the round and the function calls per evaluation that
``cProfile`` sees, in all and by the source file of the called function
(``<string>`` is code that ``collections.namedtuple`` and ``dataclasses``
generate, such as the ``__new__`` of a key or the ``__init__`` of an
``Edge``).  A call of a built-in function or method (``len``,
``dict.get``, ``set.add``) counts for the file that makes it; calls of
types (``set()``, ``frozenset(x)``) and of C callables that are not
built-in functions (``functools.partial``, ``operator.attrgetter``) are not
seen.  ``--top N`` also prints the N functions called most, each with its
calls per evaluation and its self time (under ``cProfile``, so only the
proportions mean anything).  ``--max-calls X`` exits 1 when the calls per
evaluation exceed X.

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
import re
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


def count_calls(inputs: list) -> tuple[int, dict[str, int], list[tuple[str, int, float]]]:
    """The solver evaluations of ``inputs``, the Python calls made inside
    ``Solver.solve`` by source file, and (function, calls, self seconds)
    of each function called, most calls first."""
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
    functions: dict[str, list] = {}  # name: [calls, self seconds]
    stats = pstats.Stats(profile).stats
    for (filename, line, name), (_cc, calls, tt, _ct, callers) in stats.items():
        if filename == "~":  # a built-in: by the file of each caller
            counts = [(caller, n) for (caller, _l, _f), (_c, n, *_r) in callers.items()]
            name = re.sub(r" at 0x[0-9a-f]+", "", name)  # the same text in every run
        else:
            counts = [(filename, calls)]
            name = f"{os.path.basename(filename)}:{line}({name})"
        fn = functions.setdefault(name, [0, 0.0])
        fn[0] += calls
        fn[1] += tt
        for f, n in counts:
            f = os.path.basename(f)
            by_file[f] = by_file.get(f, 0) + n
    return evaluations, by_file, sorted(((name, n, tt) for name, (n, tt) in functions.items()),
                                        key=lambda fn: (-fn[1], fn[0]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("corpus", "scaled"), default="scaled")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--top", type=int, default=0, metavar="N",
                    help="also print the N functions called most")
    ap.add_argument("--max-calls", type=float, metavar="X",
                    help="exit 1 when the calls per evaluation exceed X")
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)

    inputs = round_inputs(args.workload, args.seed)
    evaluations, by_file, functions = count_calls(inputs)
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
    if args.top:
        out["top"] = [{"function": name, "calls_per_evaluation": round(calls / evaluations, 2),
                       "self_ms": round(tt * 1e3, 1)}
                      for name, calls, tt in functions[:args.top]]
    over = args.max_calls is not None and out["calls_per_evaluation"] > args.max_calls
    if args.json:
        print(json.dumps(out, indent=2))
        return 1 if over else 0
    print(f"{args.workload} round, seed {args.seed}, Python {out['python']}: "
          f"{len(inputs)} analyses, {evaluations} evaluations, "
          f"{out['calls_per_evaluation']} calls per evaluation inside Solver.solve")
    for f, per in out["by_file"].items():
        print(f"  {per:8.1f}  {f}")
    if args.top:
        print(f"the {args.top} functions called most: calls per evaluation, self ms")
        for fn in out["top"]:
            print(f"  {fn['calls_per_evaluation']:8.2f}  {fn['self_ms']:8.1f}  {fn['function']}")
    if over:
        print(f"{out['calls_per_evaluation']} calls per evaluation exceed --max-calls "
              f"{args.max_calls:g}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main())
