"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gen
import hostclock
import run
import workloads
from concurrel.frontend import parse_program, validate
from concurrel.oracle import explore
from spans import Tracer, roots, self_times

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_same_seed_gives_identical_sources():
    a = gen.generate_set(7)
    b = gen.generate_set(7)
    assert [g.source.encode() for g in a] == [g.source.encode() for g in b]
    assert [g.source for g in a] != [g.source for g in gen.generate_set(8)]


@pytest.mark.parametrize("seed", range(5))
def test_generated_programs_pass_validate(seed):
    for g in gen.generate_set(seed):
        assert validate(parse_program(g.source, g.name)) == []


def test_planted_labels_agree_with_a_complete_exploration():
    g = gen.generate(3, 0, gen.Shape(workers=2, mutexes=1, globals_per_mutex=2))
    program = parse_program(g.source, g.name)
    ex = explore(program)
    assert not ex.truncated
    from concurrel.frontend import assert_sites, build_cfg

    line_of = {s.aid: s.pos.line for s in assert_sites(build_cfg(program))}
    violated = {line_of[aid] for aid in ex.violations}
    assert violated == {a.line for a in g.asserts if not a.label}


def test_trace_self_times_are_nonnegative_and_sum_to_the_root():
    tracer = Tracer()
    text = open(os.path.join(ROOT, "corpus", "joins.conc")).read()
    tracer.install()
    try:
        for cfg in ("octagon", "tids-eqconst"):
            with tracer.span("item"):
                workloads.analyze(text, "joins", workloads.CORPUS_CONFIGS[cfg])
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert {"frontend.parse", "solver.solve", "domains.closure", "domains.eq.join"} <= set(names)
    own = self_times(a["parent"], a["start"], a["end"])
    assert (own >= -1e-12).all()
    root = roots(a["parent"])
    for r in np.flatnonzero(a["parent"] == -1):
        assert own[root == r].sum() == pytest.approx(a["end"][r] - a["start"][r], rel=1e-9, abs=1e-12)
    # uninstall restored the analyzer's own callables
    import concurrel.analysis.driver as driver
    from concurrel.solver import Solver

    assert not hasattr(driver.run_analysis, "__wrapped__")
    assert not hasattr(Solver.solve, "__wrapped__")


def test_percentile_is_the_harrell_davis_estimate():
    hdquantiles = pytest.importorskip("scipy.stats.mstats").hdquantiles
    values = list(np.random.default_rng(5).lognormal(size=96))
    for q in (50, 90):
        want = float(hdquantiles(values, prob=[q / 100.0])[0])
        assert run.percentile(values, q) == pytest.approx(want, rel=1e-6)


def test_host_clock_leaves_out_kernels_and_pauses_and_stops_its_timer():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        clock()
        k0, t0 = clock.kernel_total, time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        clock()
        elapsed = time.perf_counter() - t0
        assert clock.kernels > 2 * hostclock.WINDOW  # the timer ran kernels
        assert clock.wall + clock.kernel_total - k0 == pytest.approx(elapsed, abs=0.01)
        assert clock.normalised > 0
        wall, normalised = clock.wall, clock.normalised
        clock.pause()
        time.sleep(0.05)
        assert clock() == normalised and clock.wall == wall
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def _check_one(wl, unit):
    tally = workloads.Tally()
    sample = wl.run_unit(unit, __import__("time").perf_counter)
    wl.check_unit(unit, sample, tally, {})
    return tally


def test_a_wrong_reference_verdict_fails_the_check():
    wl = workloads.CorpusAnalyze(ROOT, 0)
    wl.setup()
    unit = ("four_asserts", "octagon")
    assert _check_one(wl, unit).correct
    rows = wl.verdicts[unit]
    wl.verdicts[unit] = [(line, "UNKNOWN" if v == "PROVEN" else "PROVEN") for line, v in rows[:1]] + rows[1:]
    tally = _check_one(wl, unit)
    assert tally.verdict_mismatches == 1 and not tally.correct


def test_a_wrong_planted_label_fails_the_check():
    wl = workloads.ScaledAnalyze(ROOT, 0)
    wl.setup()
    prog = min(wl.programs)
    g = wl.programs[prog]
    flipped = [gen.Planted(a.line, not a.label) for a in g.asserts]
    wl.programs[prog] = gen.Generated(g.name, g.source, tuple(flipped))
    tally = _check_one(wl, (prog, "octagon"))
    assert tally.planted_false_proven > 0 and tally.label_errors > 0 and not tally.correct


def test_every_seed_has_recorded_scaled_dumps():
    dumps = workloads.load_dumps()
    for seed in (0, gen.SEEDS - 1, gen.SEEDS + 7, 10**6):
        wl = workloads.ScaledAnalyze(ROOT, seed)
        programs = gen.generate_set(seed % gen.SEEDS)
        for g in programs:
            for cfg in workloads.SCALED_CONFIGS:
                assert wl.dump_key(g.name, cfg) in dumps


def _checkout(tmp_path, with_program: bool):
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if with_program:
        for d in ("src", "corpus"):
            shutil.copytree(os.path.join(ROOT, d), root / d,
                            ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run(root, workload="corpus-analyze"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def test_a_wrong_verdict_row_makes_the_run_incorrect(tmp_path):
    root = _checkout(tmp_path, with_program=True)
    ref = root / "perfbench" / "reference" / "verdicts.tsv"
    lines = ref.read_text().splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if ln.startswith("four_asserts\toctagon"))
    lines[i] = lines[i].replace("PROVEN", "UNKNOWN")
    ref.write_text("".join(lines))
    proc = _run(root)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    root = _checkout(tmp_path, with_program=False)
    proc = _run(root)
    assert proc.returncode != 0
    assert proc.stdout == ""
