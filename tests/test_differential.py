"""Soundness differential and mutation sensitivity of the harness."""

import pytest

from concurrel.analysis import check_asserts, preset, run_analysis
from concurrel.analysis.base_system import BaseAnalysis
from concurrel.analysis.improved_system import ImprovedSystem
from concurrel.differential import check_soundness
from concurrel.frontend.ast import Unlock

CONFIGS = ["octagon", "tids", "clusters"]


@pytest.mark.parametrize("config", CONFIGS)
def test_corpus_soundness(config, programs, explorations):
    for name, p in programs.items():
        res = run_analysis(p, preset(config))
        verdicts = check_asserts(res)
        report = check_soundness(res, explorations[name], verdicts)
        assert report.ok, (name, config, report.witnesses[:3], report.proven_violated[:1])
        assert report.digest_misses == [], (name, config, report.digest_misses[:3])


def test_lock_once_digest_replay(programs, explorations):
    """Every lock-once digest the oracle replays is instantiated (Eq. 3)."""
    for name in ("lockonce", "lockonce_strict", "four_asserts", "example8"):
        res = run_analysis(programs[name], preset("octagon", lock_once=True))
        report = check_soundness(res, explorations[name], check_asserts(res))
        assert report.ok and report.digest_misses == [], (name, report.digest_misses[:3])


def test_truncated_report_is_not_clean(programs, explorations):
    """``ok`` speaks of the explored states; ``clean`` also needs the
    exploration to be complete."""
    for name, truncated in (("tid_loop", True), ("joins", False)):
        res = run_analysis(programs[name], preset("tids"))
        report = check_soundness(res, explorations[name], check_asserts(res))
        assert report.ok and report.truncated is truncated, name
        assert report.clean is not truncated, name


# -- mutation sensitivity: each broken right-hand side must produce a witness --

def test_mutation_dropped_unlock_side_effect(monkeypatch, programs, explorations):
    orig = BaseAnalysis.transfer

    def mutated(self, edge, lockset, r, env):
        effects, v = orig(self, edge, lockset, r, env)
        if isinstance(edge.action, Unlock):
            effects = []  # publish nothing: other threads read stale values
        return effects, v

    monkeypatch.setattr(BaseAnalysis, "transfer", mutated)
    res = run_analysis(programs["fig_ex0"], preset("octagon"))
    report = check_soundness(res, explorations["fig_ex0"], check_asserts(res))
    assert not report.ok and report.witnesses


def test_mutation_missing_init_side_effects(monkeypatch, programs, explorations):
    orig = BaseAnalysis.init

    def mutated(self):
        _effects, start = orig(self)
        return [], start  # no initial values at mutex unknowns

    monkeypatch.setattr(BaseAnalysis, "init", mutated)
    res = run_analysis(programs["lockonce"], preset("octagon"))
    report = check_soundness(res, explorations["lockonce"], check_asserts(res))
    assert not report.ok and report.witnesses


def test_mutation_acc_always_true(monkeypatch, programs, explorations):
    monkeypatch.setattr(ImprovedSystem, "acc", lambda self, ego, state, cand: True)
    res = run_analysis(programs["joins"], preset("tids"))
    report = check_soundness(res, explorations["joins"], check_asserts(res))
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
        report = check_soundness(res, explorations[name], check_asserts(res))
        assert report.ok, (name, report.witnesses[:3], report.proven_violated[:1])
        assert report.digest_misses == [], (name, report.digest_misses[:3])
