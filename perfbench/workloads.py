"""The three workloads: what one round runs, what is timed, what is checked.

A workload is a list of units in a fixed order; one pass over the list is a
round.  The seed only generates the scaled-analyze programs: a fixed order
keeps the memory high-water mark of a run independent of the seed.
``run_unit`` is the timed path.  ``check_unit`` runs once per unit outside
the timed path: it compares verdicts and ``dump_solution`` digests with the
recorded reference and checks the analysis against the bounded oracle.

The analyzer is always called through module attributes
(``driver.run_analysis``, not an imported name), so that the spans that
``spans.Tracer`` installs see every call.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import concurrel.analysis.driver as driver
import concurrel.analysis.reporting as reporting
import concurrel.differential as differential
import concurrel.frontend.parser as parser
import concurrel.oracle as oracle
from concurrel.analysis import preset
from concurrel.frontend import validate

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

CORPUS_CONFIGS = {
    "interval": preset("interval"),
    "octagon": preset("octagon"),
    "tids": preset("tids"),
    "clusters": preset("clusters"),
    "tids-eqconst": preset("tids", domain="eqconst"),
}
ORACLE_CONFIGS = ("interval", "octagon", "tids", "clusters")
SCALED_CONFIGS = ("octagon", "tids", "clusters")

# Oracle bounds of the soundness spot checks that corpus-analyze and
# scaled-analyze run outside their timed path.  Capped well below the
# default 300,000 states so that the checks of a run cost about a second
# and little memory; a capped exploration is reported as truncated, never
# as clean.  oracle-validate explores at the default bounds.
SPOT_BOUNDS = oracle.ExploreBounds(max_total_states=5_000)


@dataclass
class Tally:
    """Counts of one run; the correctness counts must all stay 0."""

    attempted: int = 0
    failed: int = 0
    verdict_mismatches: int = 0
    dump_mismatches: int = 0
    witnesses: int = 0
    proven_violated: int = 0
    planted_false_proven: int = 0
    digest_misses: int = 0
    check_errors: int = 0
    dump_hash_dependent: int = 0  # checked dumps whose text depends on the hash seed
    label_errors: int = 0  # planted labels the oracle contradicts
    asserts_proven: int = 0
    oracle_checked_states: int = 0
    oracle_truncated: int = 0
    problems: list[str] = field(default_factory=list)
    oracle_rows: list[dict] = field(default_factory=list)

    @property
    def unsound(self) -> int:
        return self.witnesses + self.proven_violated + self.planted_false_proven

    @property
    def correct(self) -> bool:
        return not (self.verdict_mismatches or self.dump_mismatches or self.unsound
                    or self.check_errors or self.label_errors)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


@dataclass
class Sample:
    """What the timed path of one unit produced."""

    seconds: float  # whole timed path of the unit
    analysis_ms: list[float]  # one entry per analysis
    validations: int  # analyses, or program × preset validations
    outputs: list  # (config name, program, result, verdicts) per analysis
    explorations: list = field(default_factory=list)  # (program name, Exploration)
    reports: list = field(default_factory=list)  # (config name, SoundnessReport)


def dump_digest(result) -> str:
    return hashlib.sha256(reporting.dump_solution(result).encode()).hexdigest()


def _read_tsv(name: str) -> list[list[str]]:
    with open(os.path.join(REFERENCE, name), encoding="utf-8") as f:
        return [ln.rstrip("\n").split("\t") for ln in f if ln.strip() and not ln.startswith("#")]


def load_verdicts() -> dict[tuple[str, str], list[tuple[int, str]]]:
    out: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for prog, cfg, line, verdict in _read_tsv("verdicts.tsv"):
        out.setdefault((prog, cfg), []).append((int(line), verdict))
    return out


def load_dumps() -> dict[tuple[str, str, str, str], frozenset[str]]:
    """Recorded dump digests; a key with several digests has a dump text
    that depends on the string-hash seed (see record.py)."""
    return {(w, s, p, c): frozenset(h.split(",")) for w, s, p, c, h in _read_tsv("dumps.tsv")}


def load_corpus(root: str) -> dict[str, str]:
    """Sources of the recorded corpus programs; fails if one has changed."""
    out = {}
    for prog, digest in _read_tsv("corpus.tsv"):
        path = os.path.join(root, "corpus", prog + ".conc")
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            raise RuntimeError(f"{path} differs from the recorded reference; "
                               "re-record with perfbench/record.py")
        out[prog] = text
    return out


def analyze(text: str, filename: str, config):
    """The timed path of ``concurrel run``: parse, analyze, check asserts."""
    program = parser.parse_program(text, filename)
    result = driver.run_analysis(program, config)
    return program, result, reporting.check_asserts(result)


def add_counters(counters: dict, result=None, ex=None) -> None:
    """Add the per-layer counts that an analysis or an exploration carries."""
    items = []
    if result is not None:
        s = result.solver
        items += [
            ("solver.evaluations", s.stats.evaluations),
            ("solver.widenings", s.stats.widened),
            ("solver.constraints", len(s.constraints)),
            ("analysis.unknowns", len(s.values)),
            ("frontend.cfg_points", sum(len(c.points) for c in result.cfgs.values())),
        ]
    if ex is not None:
        items += [
            ("oracle.states", ex.states),
            ("oracle.schedules", ex.schedules),
            ("oracle.reachable", len(ex.reachable)),
        ]
    for key, value in items:
        counters[key] = counters.get(key, 0) + value


class Workload:
    name = ""
    unit_size = 1  # analyses and explorations in one unit
    why = ""

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.explorations: dict[str, object] = {}  # spot-check exploration cache

    def setup(self) -> None:
        raise NotImplementedError

    def units(self) -> list:
        raise NotImplementedError

    def run_unit(self, unit, clock) -> Sample:
        raise NotImplementedError

    def check_unit(self, unit, sample: Sample, tally: Tally, counters: dict) -> None:
        raise NotImplementedError

    # -- shared checks --

    def dump_key(self, prog: str, cfg: str) -> tuple[str, str, str, str]:
        return ("corpus", "-", prog, cfg)

    def _check_dump(self, prog: str, cfg: str, result, tally: Tally) -> None:
        want = self.dumps.get(self.dump_key(prog, cfg))
        if want is None:
            tally.dump_mismatches += 1
            tally.problem(f"no recorded dump_solution digest for {prog} under {cfg}")
            return
        tally.dump_hash_dependent += len(want) > 1
        if dump_digest(result) not in want:
            tally.dump_mismatches += 1
            tally.problem(f"dump_solution of {prog} under {cfg} differs from the reference")

    def _check_reference_verdicts(self, prog: str, cfg: str, verdicts, tally: Tally) -> None:
        got = [(v.line, v.verdict) for v in verdicts]
        want = self.verdicts.get((prog, cfg), [])  # no rows: no asserts
        bad = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
        if bad:
            tally.verdict_mismatches += bad
            tally.problem(f"{prog} under {cfg}: verdicts {got} != reference {want}")

    def _tally_report(self, prog: str, cfg: str, report, tally: Tally) -> None:
        tally.witnesses += len(report.witnesses)
        tally.proven_violated += len(report.proven_violated)
        tally.digest_misses += len(report.digest_misses)
        tally.oracle_checked_states += report.checked_states
        for w in (report.witnesses + report.proven_violated)[:2]:
            tally.problem(f"{prog} under {cfg}: {w}")

    def _spot_check(self, prog, cfg, program, result, verdicts, tally, counters) -> None:
        """Differential check against a capped exploration, shared by the
        configurations of the program (a round runs them in a row)."""
        ex = self.explorations.get(prog)
        if ex is None:
            ex = oracle.explore(program, SPOT_BOUNDS, cfgs=result.cfgs)
            self.explorations = {prog: ex}
            tally.oracle_truncated += int(ex.truncated)
            add_counters(counters, ex=ex)
        report = differential.check_soundness(result, ex, verdicts)
        self._tally_report(prog, cfg, report, tally)


class CorpusAnalyze(Workload):
    name = "corpus-analyze"
    why = "the concurrel run path on the 14 worked examples under 5 configurations"

    def setup(self) -> None:
        self.sources = load_corpus(self.root)
        self.verdicts = load_verdicts()
        self.dumps = load_dumps()
        first = sorted(self.sources)[0]
        analyze(self.sources[first], first, CORPUS_CONFIGS["octagon"])

    def units(self) -> list:
        return [(p, c) for p in sorted(self.sources) for c in CORPUS_CONFIGS]

    def run_unit(self, unit, clock) -> Sample:
        prog, cfg = unit
        t0 = clock()
        program, result, verdicts = analyze(self.sources[prog], prog, CORPUS_CONFIGS[cfg])
        dt = clock() - t0
        return Sample(dt, [dt * 1000.0], 1, [(cfg, program, result, verdicts)])

    def check_unit(self, unit, sample, tally, counters) -> None:
        prog, cfg = unit
        (_, program, result, verdicts), = sample.outputs
        tally.asserts_proven += sum(v.verdict == "PROVEN" for v in verdicts)
        self._check_reference_verdicts(prog, cfg, verdicts, tally)
        self._check_dump(prog, cfg, result, tally)
        self._spot_check(prog, cfg, program, result, verdicts, tally, counters)


class ScaledAnalyze(Workload):
    name = "scaled-analyze"
    why = "seeded generated programs with 15-21 int variables, where the octagon closure dominates"

    def setup(self) -> None:
        self.programs = {g.name: g for g in gen.generate_set(self.seed % gen.SEEDS)}
        for g in self.programs.values():
            program = parser.parse_program(g.source, g.name)
            diags = validate(program)
            if diags:
                raise RuntimeError(f"generated program {g.name} fails validate(): {diags[0]}")
        self.dumps = load_dumps()
        first = min(self.programs)
        analyze(self.programs[first].source, first, preset("octagon"))

    def units(self) -> list:
        return [(p, c) for p in sorted(self.programs) for c in SCALED_CONFIGS]

    def dump_key(self, prog: str, cfg: str) -> tuple[str, str, str, str]:
        return ("scaled", str(self.seed % gen.SEEDS), prog, cfg)

    def run_unit(self, unit, clock) -> Sample:
        prog, cfg = unit
        t0 = clock()
        program, result, verdicts = analyze(self.programs[prog].source, prog, preset(cfg))
        dt = clock() - t0
        return Sample(dt, [dt * 1000.0], 1, [(cfg, program, result, verdicts)])

    def check_unit(self, unit, sample, tally, counters) -> None:
        prog, cfg = unit
        (_, program, result, verdicts), = sample.outputs
        labels = {a.line: a.label for a in self.programs[prog].asserts}
        tally.asserts_proven += sum(v.verdict == "PROVEN" for v in verdicts)
        if sorted(v.line for v in verdicts) != sorted(labels):
            tally.verdict_mismatches += 1
            tally.problem(f"{prog}: assert lines differ from the planted ones")
        for v in verdicts:
            if v.verdict == "PROVEN" and labels.get(v.line) is False:
                tally.planted_false_proven += 1
                tally.verdict_mismatches += 1
                tally.problem(f"{prog} under {cfg}: planted-false assert at line "
                              f"{v.line} reported PROVEN")
        self._check_dump(prog, cfg, result, tally)
        new = prog not in self.explorations
        self._spot_check(prog, cfg, program, result, verdicts, tally, counters)
        if new:
            self._check_labels(prog, verdicts, self.explorations[prog], labels, tally)

    def _check_labels(self, prog, verdicts, ex, labels, tally) -> None:
        """The oracle must violate every planted-false assert (when it
        explored everything) and no planted-true one."""
        for v in verdicts:
            violated = v.aid in ex.violations
            if labels[v.line]:
                wrong = violated
            else:
                wrong = not violated and not ex.truncated
            if not wrong:
                continue
            tally.label_errors += 1
            tally.problem(f"{prog}: the oracle contradicts the planted label of line {v.line}")


class OracleValidate(Workload):
    name = "oracle-validate"
    unit_size = 1 + len(ORACLE_CONFIGS)
    why = "bounded oracle exploration plus differential soundness checks of the corpus"

    def setup(self) -> None:
        self.sources = load_corpus(self.root)
        self.verdicts = load_verdicts()
        self.dumps = load_dumps()
        first = sorted(self.sources)[0]
        program = parser.parse_program(self.sources[first], first)
        ex = oracle.explore(program)
        _, result, verdicts = analyze(self.sources[first], first, CORPUS_CONFIGS["octagon"])
        differential.check_soundness(result, ex, verdicts)

    def units(self) -> list:
        return sorted(self.sources)

    def run_unit(self, prog, clock) -> Sample:
        t0 = clock()
        program = parser.parse_program(self.sources[prog], prog)
        ex = oracle.explore(program)
        sample = Sample(0.0, [], 0, [], [(prog, ex)])
        for cfg in ORACLE_CONFIGS:
            t1 = clock()
            result = driver.run_analysis(program, CORPUS_CONFIGS[cfg])
            verdicts = reporting.check_asserts(result)
            sample.analysis_ms.append((clock() - t1) * 1000.0)
            sample.reports.append((cfg, differential.check_soundness(result, ex, verdicts)))
            sample.outputs.append((cfg, program, result, verdicts))
            sample.validations += 1
        sample.seconds = clock() - t0
        return sample

    def check_unit(self, prog, sample, tally, counters) -> None:
        (_, ex), = sample.explorations
        tally.oracle_truncated += int(ex.truncated)
        for (cfg, program, result, verdicts), (_, report) in zip(sample.outputs, sample.reports):
            tally.asserts_proven += sum(v.verdict == "PROVEN" for v in verdicts)
            self._check_reference_verdicts(prog, cfg, verdicts, tally)
            self._check_dump(prog, cfg, result, tally)
            self._tally_report(prog, cfg, report, tally)
        if not all(report.ok for _, report in sample.reports):
            check = "UNSOUND"
        elif ex.truncated:
            check = "partial (truncated)"  # never reported as clean
        else:
            check = "clean"
        tally.oracle_rows.append({
            "program": prog, "states": ex.states, "schedules": ex.schedules,
            "reachable": len(ex.reachable), "truncated": ex.truncated, "check": check,
        })


WORKLOADS = {w.name: w for w in (CorpusAnalyze, ScaledAnalyze, OracleValidate)}
