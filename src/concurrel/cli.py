"""Command-line front door.

    concurrel run FILE [--preset ...] [flags]     analyze one source file
    concurrel compare FILE --presets a,b[,c...]   compare configurations

Exit codes of ``run``: 0 all asserts proven, 1 some unknown, or with
``--oracle`` an exploration truncated at its bounds without a witness (the
report names the bounds that cut it off), 2 bad
input (usage, an unreadable or non-UTF-8 file, a parse or validation error,
conflicting flags, an exhausted step budget), reported with a diagnostic,
3 the oracle found a soundness bug (a violated PROVEN assert or a reachable
state outside the abstraction).  ``compare`` exits 0, or 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import NoReturn

from .analysis import (
    AnalysisConfig, AnalysisResult, ClusterConfig, ConfigError, PRESETS, check_asserts,
    derive_lock_invariants, dump_solution, run_analysis,
)
from .analysis.config import DOMAINS, MODES, PROTECTIONS
from .analysis.driver import ProgramError
from .differential import check_soundness
from .frontend import ParseError, parse_program
from .oracle import ExploreBounds, explore
from .solver import BudgetExceeded


def _fail(message: str) -> NoReturn:
    """Bad input: print a diagnostic and exit with code 2."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _config_from_args(args) -> AnalysisConfig:
    if args.preset:
        cfg = PRESETS[args.preset]
    else:
        cfg = AnalysisConfig()
    kw = {}
    if args.domain:
        kw["domain"] = args.domain
    if args.mode:
        kw["mode"] = args.mode
    if args.clusters:
        mode = {"monolithic": "monolithic", "le-k": "le_k", "all": "all"}[args.clusters]
        kw["clusters"] = ClusterConfig(mode, args.cluster_size)
    elif args.cluster_size != 2:
        kw["clusters"] = ClusterConfig(cfg.clusters.mode, args.cluster_size)
    if args.lock_once:
        kw["lock_once"] = True
    if args.exclude_ancestor_writes:
        kw["exclude_ancestor_writes"] = True
    if args.protections:
        kw["protections"] = args.protections
    try:
        return replace(cfg, **kw)
    except ConfigError as e:
        _fail(f"concurrel: {e}")


def _load_and_analyze(path: str, configs: list[AnalysisConfig]) -> list[AnalysisResult]:
    """Parse the source file and analyze it under each configuration; bad
    input of any kind ends the command through ``_fail``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        _fail(f"concurrel: {e}")
    except UnicodeDecodeError as e:
        _fail(f"concurrel: {path}: not valid UTF-8 ({e})")
    try:
        program = parse_program(text, path)
    except ParseError as e:
        _fail(str(e))
    try:
        return [run_analysis(program, config) for config in configs]
    except ProgramError as e:
        _fail("\n".join(str(d) for d in e.diagnostics))
    except (BudgetExceeded, ConfigError) as e:
        _fail(f"concurrel: {e}")


def _run(args) -> int:
    (result,) = _load_and_analyze(args.file, [_config_from_args(args)])
    program = result.program
    for d in result.diagnostics:
        print(d, file=sys.stderr)
    verdicts = check_asserts(result)
    invariants = derive_lock_invariants(result) if args.dump_invariants else []

    exit_code = 0 if all(v.verdict == "PROVEN" for v in verdicts) else 1
    oracle = None  # the oracle facts, which both formats report
    if args.oracle:
        bounds = ExploreBounds()
        ex = explore(program, bounds, cfgs=result.cfgs)
        report = check_soundness(result, ex, verdicts)
        if not report.ok:
            exit_code = 3
        elif not report.clean:  # an incomplete check must not pass as a clean one
            exit_code = 1
        oracle = {
            "checked_states": report.checked_states, "witnesses": report.witnesses,
            "proven_violated": report.proven_violated, "digest_misses": report.digest_misses,
            "truncated": report.truncated, "truncated_by": sorted(ex.truncated_by),
            "states": ex.states, "segments": ex.segments, "reachable": len(ex.reachable),
            "schedules": ex.schedules,
        }

    if args.format == "json":
        doc = {
            "asserts": [
                {"file": program.filename, "line": v.line, "verdict": v.verdict}
                for v in verdicts
            ],
            "invariants": [
                {"point": iv.point, "mutex": iv.mutex, "invariant": iv.invariant}
                for iv in invariants
            ],
            "stats": result.stats(),
        }
        if oracle is not None:
            doc["oracle"] = oracle
        if args.dump_solution:
            doc["solution"] = dump_solution(result)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for v in verdicts:
            print(f"{program.filename}:{v.line}:{v.col}: assert({v.cond}): {v.verdict}")
        for iv in invariants:
            print(f"invariant at {iv.point} lock({iv.mutex}): {iv.invariant}")
        print(" ".join(f"{k}={v}" for k, v in result.stats().items()))
        if oracle is not None:
            print(f"oracle: checked {oracle['checked_states']} states, "
                  f"{len(oracle['witnesses'])} witnesses, "
                  f"{len(oracle['proven_violated'])} proven-violated, "
                  f"{len(oracle['digest_misses'])} digest misses")
            line = (f"oracle: exploration {'truncated' if oracle['truncated'] else 'complete'} "
                    f"after {oracle['states']} states in {oracle['segments']} segments, "
                    f"{oracle['reachable']} reachable rows and {oracle['schedules']} final states")
            if oracle["truncated"]:
                cut = ", ".join(f"{b}={getattr(bounds, b)}" for b in oracle["truncated_by"])
                line += f" by {cut}; the check is incomplete"
            print(line)
            for w in oracle["witnesses"] + oracle["proven_violated"] + oracle["digest_misses"]:
                print(f"  {w}", file=sys.stderr)
        if args.dump_solution:
            sys.stdout.write(dump_solution(result))
    return exit_code


def _compare(args) -> int:
    names = args.presets.split(",")
    if len(names) < 2:
        _fail("concurrel: compare needs at least two presets")
    for i, name in enumerate(names):
        if name not in PRESETS:
            _fail(f"concurrel: unknown preset {name!r}")
        if name in names[:i]:
            _fail(f"concurrel: duplicate preset {name!r}")
    if len({PRESETS[name].domain for name in names}) > 1:
        _fail("concurrel: compare requires a common domain")
    results = dict(zip(names, _load_and_analyze(args.file, [PRESETS[n] for n in names])))
    base_name = names[0]
    base = results[base_name]
    points = [p for cfg in base.cfgs.values() for p in cfg.points]
    rows = []
    for other_name in names[1:]:
        other = results[other_name]
        counts = {"equal": 0, "more-precise": 0, "less-precise": 0, "incomparable": 0}
        detail = []
        for p in points:
            v1 = base.point_value(p)
            v2 = other.point_value(p)
            le = base.dom.leq(v2, v1)
            ge = base.dom.leq(v1, v2)
            rel = ("equal" if le and ge else "more-precise" if le
                   else "less-precise" if ge else "incomparable")
            counts[rel] += 1
            detail.append((str(p), rel))
        rows.append((other_name, counts, detail))

    verdict_matrix = {
        name: [v.verdict for v in check_asserts(results[name])] for name in names
    }
    if args.format == "json":
        print(json.dumps({
            "base": base_name,
            "points": {name: counts for name, counts, _ in rows},
            "asserts": verdict_matrix,
        }, indent=2, sort_keys=True))
    else:
        for name, counts, detail in rows:
            print(f"{name} vs {base_name}: " + ", ".join(
                f"{k}={v}" for k, v in sorted(counts.items())))
            if args.verbose:
                for pt, rel in detail:
                    print(f"  {pt}: {rel}")
        for name in names:
            print(f"asserts[{name}]: {' '.join(verdict_matrix[name])}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="concurrel", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="analyze a source file")
    runp.add_argument("file")
    runp.add_argument("--preset", choices=sorted(PRESETS))
    runp.add_argument("--domain", choices=DOMAINS)
    runp.add_argument("--mode", choices=MODES)
    runp.add_argument("--clusters", choices=["monolithic", "le-k", "all"])
    runp.add_argument("--cluster-size", type=int, default=2, metavar="K")
    runp.add_argument("--lock-once", action="store_true")
    runp.add_argument("--exclude-ancestor-writes", action="store_true")
    runp.add_argument("--protections", choices=PROTECTIONS)
    runp.add_argument("--oracle", action="store_true")
    runp.add_argument("--dump-invariants", action="store_true")
    runp.add_argument("--dump-solution", action="store_true")
    runp.add_argument("--format", choices=["text", "json"], default="text")

    cmpp = sub.add_parser("compare", help="compare configurations")
    cmpp.add_argument("file")
    cmpp.add_argument("--presets", required=True, help="comma-separated preset names")
    cmpp.add_argument("--format", choices=["text", "json"], default="text")
    cmpp.add_argument("--verbose", action="store_true")

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        raise SystemExit(2 if e.code not in (0, None) else 0)
    if getattr(args, "cluster_size", 1) < 1:
        _fail("concurrel: --cluster-size must be >= 1")
    return _run(args) if args.cmd == "run" else _compare(args)


if __name__ == "__main__":
    raise SystemExit(main())
