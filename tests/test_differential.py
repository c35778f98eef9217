"""Soundness differential and mutation sensitivity of the harness.

Every report is also compared with ``reference_check_soundness``, the
per-tuple check that the batched ``check_soundness`` replaces: the two must
agree on every field, witness texts and their order included."""

import dataclasses

import pytest

from concurrel.analysis import check_asserts, preset, run_analysis
from concurrel.analysis.base_system import BaseAnalysis
from concurrel.analysis.improved_system import ImprovedSystem
from concurrel.differential import check_soundness
from concurrel.frontend import build_cfg, cfg_dump, parse_program
from concurrel.oracle import DEEP_BOUNDS, explore
from conftest import unlock_publishing_nothing
from soundness_reference import reference_check_soundness, reference_published_values

CONFIGS = {
    "interval": preset("interval"),
    "octagon": preset("octagon"),
    "tids": preset("tids"),
    "clusters": preset("clusters"),
    "tids+eqconst": preset("tids", domain="eqconst"),
    "octagon+lock-once": preset("octagon", lock_once=True),
}


def checked(res, exploration, verdicts=None, max_witnesses=10):
    """``check_soundness``, asserted equal to the reference's report."""
    report = check_soundness(res, exploration, verdicts, max_witnesses)
    assert report == reference_check_soundness(res, exploration, verdicts, max_witnesses)
    return report


@pytest.mark.parametrize("config", ("interval", "octagon", "tids", "clusters"))
def test_published_values_equal_the_per_global_fold(config, programs):
    """The published values of all globals, built in one pass, are those of
    the fold over every solver value for one global at a time."""
    for name, p in programs.items():
        res = run_analysis(p, CONFIGS[config])
        for g in p.globals:
            new, old = res.published_values(g), reference_published_values(res, g)
            assert res.dom.render(new) == res.dom.render(old), (name, g)
            assert res.dom.leq(new, old) and res.dom.leq(old, new), (name, g)


@pytest.mark.parametrize("config", CONFIGS)
def test_corpus_soundness(config, programs, explorations):
    for name, p in programs.items():
        res = run_analysis(p, CONFIGS[config])
        verdicts = check_asserts(res)
        report = checked(res, explorations[name], verdicts)
        assert report.ok, (name, config, report.witnesses[:3], report.proven_violated[:1])
        assert report.digest_misses == [], (name, config, report.digest_misses[:3])


def test_corpus_soundness_at_deep_bounds(programs):
    """At ``DEEP_BOUNDS`` every corpus program but tid_loop, which creates
    threads without end, explores completely, and the presets that the
    oracle-validate benchmark checks are sound on each."""
    for name, p in programs.items():
        ex = explore(p, DEEP_BOUNDS)
        assert ex.truncated_by == ({"max_threads"} if name == "tid_loop" else set()), name
        for config in ("interval", "octagon", "tids", "clusters"):
            res = run_analysis(p, CONFIGS[config])
            report = check_soundness(res, ex, check_asserts(res))
            assert report.ok, (name, config, report.witnesses[:3], report.proven_violated[:1])
            assert report.digest_misses == [], (name, config, report.digest_misses[:3])


def test_lock_once_digest_replay(programs, explorations):
    """Every lock-once digest the oracle replays is instantiated (Eq. 3)."""
    for name in ("lockonce", "lockonce_strict", "four_asserts", "example8"):
        res = run_analysis(programs[name], preset("octagon", lock_once=True))
        report = checked(res, explorations[name], check_asserts(res))
        assert report.ok and report.digest_misses == [], (name, report.digest_misses[:3])


def test_truncated_report_is_not_clean(programs, explorations):
    """``ok`` speaks of the explored states; ``clean`` also needs the
    exploration to be complete."""
    for name, truncated in (("tid_loop", True), ("joins", False)):
        res = run_analysis(programs[name], preset("tids"))
        report = checked(res, explorations[name], check_asserts(res))
        assert report.ok and report.truncated is truncated, name
        assert report.clean is not truncated, name


NONLINEAR = """
global g;
mutex a;
protect g with a;
thread main {
  t = create(t1);
  y = ?; z = 3; x = 0;
  x = y * z;
  if (y * z <= 6) {
    lock(a); g = x; unlock(a);
  } else {
    x = 2;
  }
  w = join(t);
  lock(a); v = g; assert(v <= 6); unlock(a);
}
thread t1 {
  lock(a); u = g; g = u * u; unlock(a);
  return 0;
}
"""


@pytest.mark.parametrize("config", CONFIGS)
def test_nonlinear_arithmetic_is_sound(config):
    """Products of variables have no linear form: their assignments forget
    the target and a guard over one refines nothing, and every reachable
    state stays inside the abstraction."""
    program = parse_program(NONLINEAR)
    res = run_analysis(program, CONFIGS[config])
    verdicts = check_asserts(res)
    assert [v.verdict for v in verdicts] == ["UNKNOWN"]
    report = checked(res, explore(program), verdicts)
    assert report.clean and report.checked_states > 0, report.witnesses[:3]


# ``return g`` and ``g = h`` read a bare global into a temporary, which
# lowering wraps in the global's atomicity mutex like any other read
BARE_GLOBALS = """
global g, h;
thread t { x = ?; h = x; return g; }
thread main { a = create(t); g = h; y = join(a); assert(y <= 2); }
"""

BARE_GLOBALS_CFG = """\
template main start=main.0
  main.0 --[a = create(t)]--> main.1
  main.1 --[lock(m_h)]--> main.2
  main.2 --[$t1 = h]--> main.3
  main.3 --[unlock(m_h)]--> main.4
  main.4 --[lock(m_g)]--> main.5
  main.5 --[g = $t1]--> main.6
  main.6 --[unlock(m_g)]--> main.7
  main.7 --[y = join(a)]--> main.8
  main.8 --[assert#0(y <= 2)]--> main.9
template t start=t.0
  t.0 --[x = ?]--> t.1
  t.1 --[lock(m_h)]--> t.2
  t.2 --[h = x]--> t.3
  t.3 --[unlock(m_h)]--> t.4
  t.4 --[lock(m_g)]--> t.5
  t.5 --[$t0 = g]--> t.6
  t.6 --[unlock(m_g)]--> t.7
  t.7 --[return $t0]--> t.8
"""


@pytest.mark.parametrize("config", ("interval", "octagon", "tids", "clusters"))
def test_bare_global_reads_are_sound(config):
    program = parse_program(BARE_GLOBALS)
    assert cfg_dump(build_cfg(program)) == BARE_GLOBALS_CFG
    res = run_analysis(program, CONFIGS[config])
    report = checked(res, explore(program), check_asserts(res))
    assert report.clean and report.checked_states == 36, report.witnesses[:3]


# asserts over sums and differences of globals, whose reads lowering hoists
# out of the expression, and assignments of non-linear sub-expressions
GLOBAL_ARITHMETIC = """
global g, h; mutex a; protect g with a; protect h with a;
thread main {
  x = create(t1);
  z = ?; y = z * z + 1; w = (z * z) * 2 - 1;
  assert(y >= 1); assert(w >= 0 - 1);
  lock(a); g = z; t = z + 1; h = t; assert(h - g == 1); assert(g + h <= 2 * h); unlock(a);
}
thread t1 { lock(a); g = 5; h = 6; assert(h - g == 1); unlock(a); }
"""


@pytest.mark.parametrize("config, expected", [
    ("interval", ["UNKNOWN"] * 4 + ["PROVEN"]),
    ("octagon", ["UNKNOWN"] * 2 + ["PROVEN"] * 3),
    ("tids", ["UNKNOWN"] * 2 + ["PROVEN"] * 3),
    ("clusters", ["UNKNOWN"] * 2 + ["PROVEN"] * 3),
])
def test_arithmetic_over_globals_in_asserts(config, expected):
    """A non-linear right-hand side forgets its target, so its asserts stay
    UNKNOWN; the relational domains prove the asserts over two globals
    protected by one mutex, which intervals cannot."""
    program = parse_program(GLOBAL_ARITHMETIC)
    exploration = explore(program)
    assert not exploration.truncated_by
    res = run_analysis(program, CONFIGS[config])
    verdicts = check_asserts(res)
    assert [v.verdict for v in verdicts] == expected
    report = checked(res, exploration, verdicts)
    assert report.clean and report.checked_states > 0, report.witnesses[:3]


# -- mutation sensitivity: each broken right-hand side must produce a witness --

def test_mutation_dropped_unlock_side_effect(monkeypatch, programs, explorations):
    monkeypatch.setattr(BaseAnalysis, "_unlock_rhs",
                        unlock_publishing_nothing(BaseAnalysis._unlock_rhs))
    res = run_analysis(programs["fig_ex0"], preset("octagon"))
    report = checked(res, explorations["fig_ex0"], check_asserts(res))
    assert not report.ok and report.witnesses


def test_mutation_witnesses_capped_in_walk_order(monkeypatch, programs, explorations):
    """With unlocks publishing nothing, most programs have more failing tuples
    than ``max_witnesses``.  The reference fixes which of them the cap keeps
    (the first of the sorted walk) and that the "no unknown" witnesses of
    four_asserts and the published-value ones are not capped."""
    monkeypatch.setattr(BaseAnalysis, "_unlock_rhs",
                        unlock_publishing_nothing(BaseAnalysis._unlock_rhs))
    capped = 0
    for name, p in programs.items():
        res = run_analysis(p, preset("octagon"))
        full = checked(res, explorations[name], max_witnesses=100)
        report = checked(res, explorations[name])
        capped += len(full.witnesses) > len(report.witnesses)
    assert capped >= 5


def test_digest_misses_in_walk_order(programs, explorations):
    """A result read as lock-once while its unknowns carry the plain digest:
    every replayed lock-once set is missing, reported once per point."""
    res = run_analysis(programs["lockonce"], preset("octagon"))
    res = dataclasses.replace(res, config=preset("octagon", lock_once=True))
    report = checked(res, explorations["lockonce"])
    assert report.ok and len(report.digest_misses) > 1


def test_values_beyond_64_bits():
    """Six doublings per iteration take x past 2**63 before the per-point loop
    bound cuts the exploration; the check compares such values exactly."""
    program = parse_program("""
        thread main {
          x = 1;
          while (x > 0) {
            x = x + x; x = x + x; x = x + x;
            x = x + x; x = x + x; x = x + x;
          }
        }""")
    exploration = explore(program)
    assert max(rs.locals[exploration.lvars.index("x")] for rs in exploration.reachable) > 2**63
    for config in ("octagon", "tids+eqconst"):
        assert checked(run_analysis(program, CONFIGS[config]), exploration).ok, config


BEYOND_2_53 = {
    "constant-plus-one": "thread main { x = 9007199254740993; y = x + 1;"
                         " assert(y != 9007199254740994); }",
    "doubled-plus-one": "thread main { x = 4503599627370496; y = x + x; z = y + 1;"
                        " assert(z != 9007199254740993); }",
    "constant-bound": "thread main { x = 9007199254740993; assert(x <= 9007199254740992); }",
}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", BEYOND_2_53)
def test_constants_beyond_2_53_are_sound(name, config):
    """float64 holds integers exactly only up to 2**53: rounded constants and
    sums would prove asserts that every run violates, and a rounded check
    would pass a store outside the relation.  Each assert stays UNKNOWN and
    the check is clean."""
    program = parse_program(BEYOND_2_53[name])
    exploration = explore(program)
    assert 0 in exploration.violations
    res = run_analysis(program, CONFIGS[config])
    verdicts = check_asserts(res)
    assert [v.verdict for v in verdicts] == ["UNKNOWN"]
    report = checked(res, exploration, verdicts)
    assert report.clean and report.checked_states > 0, report.witnesses[:3]


def test_mutation_missing_init_side_effects(monkeypatch, programs, explorations):
    orig = BaseAnalysis.init

    def mutated(self):
        _values, start = orig(self)
        return {}, start  # no initial values at mutex unknowns

    monkeypatch.setattr(BaseAnalysis, "init", mutated)
    res = run_analysis(programs["lockonce"], preset("octagon"))
    report = checked(res, explorations["lockonce"], check_asserts(res))
    assert not report.ok and report.witnesses


def test_mutation_acc_always_true(monkeypatch, programs, explorations):
    monkeypatch.setattr(ImprovedSystem, "admission", lambda self, edge, ego, cand: None)
    res = run_analysis(programs["joins"], preset("tids"))
    report = checked(res, explorations["joins"], check_asserts(res))
    assert not report.ok and report.witnesses


def test_flagged_and_custom_configs_sound(programs, explorations):
    from concurrel.analysis import AnalysisConfig, ClusterConfig
    from conftest import FixedClusters

    cases = [
        ("ancestor", preset("tids", exclude_ancestor_writes=True)),
        ("one_element", preset("clusters", clusters=FixedClusters(
            "monolithic", families=(("a", (frozenset({"g", "h"}), frozenset({"h"}))),)))),
        ("intro_cluster", AnalysisConfig(domain="eqconst", mode="clusters",
                                         clusters=ClusterConfig("all"))),
        ("example8", AnalysisConfig(domain="interval", mode="base")),
    ]
    for name, cfg in cases:
        res = run_analysis(programs[name], cfg)
        report = checked(res, explorations[name], check_asserts(res))
        assert report.ok, (name, report.witnesses[:3], report.proven_violated[:1])
        assert report.digest_misses == [], (name, report.digest_misses[:3])


def test_witness_order_does_not_follow_the_hash_seed():
    """With every candidate accounted for (``admission`` always None), tids
    on joins fails at tuples of one thread with equal locals; their
    witnesses come in the same order, and the cap
    keeps the same ones, whatever the string-hash seed (3 orders of the
    full list in seeds 0-3 when ties were left in set order)."""
    import os
    import subprocess
    import sys

    from conftest import corpus_path

    code = (
        "import sys; from concurrel.frontend import parse_program;"
        "from concurrel.analysis import check_asserts, preset, run_analysis;"
        "from concurrel.analysis.improved_system import ImprovedSystem;"
        "from concurrel.differential import check_soundness;"
        "from concurrel.oracle import explore;"
        "ImprovedSystem.admission = lambda self, edge, ego, cand: None;"
        "p = parse_program(open(sys.argv[1]).read());"
        "res = run_analysis(p, preset('tids')); ex = explore(p);"
        "reports = [check_soundness(res, ex, check_asserts(res), n) for n in (10, 100)];"
        "print(repr([(r.witnesses, r.digest_misses) for r in reports]))"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    texts = [
        subprocess.run([sys.executable, "-c", code, corpus_path("joins")],
                       env={**env, "PYTHONHASHSEED": seed}, capture_output=True,
                       text=True, check=True).stdout
        for seed in ("0", "1", "2", "3")
    ]
    (capped, _), (full, _) = eval(texts[0])
    assert len(capped) < len(full)
    assert texts[1:] == texts[:1] * 3


def test_proven_assert_that_the_oracle_violates_is_reported():
    """An assert reported PROVEN that some explored schedule violates is a
    soundness bug: the report names it with that schedule and is not ok."""
    from test_oracle import _SMALL_PROGRAMS

    source, bounds, _ = _SMALL_PROGRAMS["loop_assert"]
    program = parse_program(source)
    exploration = explore(program, bounds)
    res = run_analysis(program, preset("octagon"))
    (verdict,) = check_asserts(res)
    assert verdict.verdict == "UNKNOWN" and 0 in exploration.violations
    report = checked(res, exploration, [dataclasses.replace(verdict, verdict="PROVEN")])
    schedule = "\n  ".join(exploration.violations[0])
    assert report.proven_violated == [
        f"assert #0 ({verdict.cond}) PROVEN but violated:\n  {schedule}"]
    assert "main: assert#0(x < 1) @ main.8" in schedule
    assert report.witnesses == [] and not report.ok
