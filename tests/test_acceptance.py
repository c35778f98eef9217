"""Acceptance criteria, one test per criterion, one pass/fail line each.

Criterion 3 checks that the lock-once digest excludes pre-locking values
(the initializers) at a lock, and that the exclusion is needed for a proof.
It makes three checks:

* ``lockonce_strict.conc`` (assert h < g): octagon plus lock-once proves the
  assert, octagon alone does not.  The initial (0, 0) violates h < g, so
  this is where the digest decides the verdict.
* ``lockonce.conc`` (assert h <= g): octagons prove the assert with and
  without the digest.  The three values ever published for (g, h) under
  mutex a are (0,0), (10,9) and (12,11); all satisfy h - g <= 0, and an
  octagon join (pointwise max of closed DBMs) keeps every octagonal
  constraint its arguments share, so h <= g survives at t2's lock(a)
  either way.  Intervals cannot express h <= g and leave the assert
  UNKNOWN with and without the digest.
* ``lockonce.conc``, at the point after t2's lock(a): with lock-once the
  bounds are g in [10,12], h in [9,11], exactly the hull of what the
  oracle reaches there; without it the initializer reaches, giving
  g in [0,12], h in [0,11].  Octagon and interval agree on these bounds.
"""

from random import Random

import pytest

from concurrel.analysis import (
    AnalysisConfig, ClusterConfig, MutexKey, PointKey, RetKey, check_asserts,
    preset, run_analysis,
)
from concurrel.analysis.base_system import BaseAnalysis
from concurrel.analysis.improved_system import ImprovedState, ImprovedSystem
from concurrel.differential import check_soundness
from concurrel.domains import IntAbs
from concurrel.frontend.ast import Lock
from concurrel.oracle import ExploreBounds, explore

from conftest import FixedClusters, unlock_publishing_nothing
from domain_utils import (
    decompose, eq, eval_cmp, eval_expr, gamma, make_domain, random_relation, recompose,
)


def verdicts(program, config) -> list[str]:
    res = run_analysis(program, config)
    return [v.verdict for v in check_asserts(res)]


def report(n: int, ok: bool, what: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {what}")
    assert ok, what


def test_criterion_1_example1(programs):
    p = programs["intro_cluster"]
    clusters = verdicts(p, preset("clusters"))
    tids = verdicts(p, preset("tids"))  # monolithic 𝒬_a = {{g,h,i}}
    ok = clusters == ["PROVEN", "PROVEN"] and tids == ["PROVEN", "UNKNOWN"]
    report(1, ok, f"Example 1: clusters={clusters}, tids(monolithic)={tids}")


def test_criterion_2_four_asserts(programs):
    got = verdicts(programs["four_asserts"], preset("octagon"))
    report(2, got == ["PROVEN"] * 4, f"§4 example under preset octagon: {got}")


def test_criterion_3_lock_once(programs):
    p, strict = programs["lockonce"], programs["lockonce_strict"]
    # where the digest decides the verdict: the initial (0,0) violates h<g
    strict_with = verdicts(strict, preset("octagon", lock_once=True))
    strict_without = verdicts(strict, preset("octagon"))

    # h<=g holds for every published (g,h) — (0,0), (10,9), (12,11) — and
    # the octagon join keeps every octagonal constraint its arguments share,
    # so octagons prove it with or without the digest; intervals cannot
    # express h<=g and prove it in neither case.
    oct_with = run_analysis(p, preset("octagon", lock_once=True))
    oct_without = run_analysis(p, preset("octagon"))
    itv_with = run_analysis(p, preset("interval", lock_once=True))
    itv_without = run_analysis(p, preset("interval"))
    got = {name: [v.verdict for v in check_asserts(res)] for name, res in (
        ("octagon+digest", oct_with), ("octagon", oct_without),
        ("interval+digest", itv_with), ("interval", itv_without))}

    # where the digest is observable on lockonce.conc: the relation after
    # t2's lock(a) excludes the initializer exactly when the digest is on
    pt = next(e for e in oct_with.cfgs["t2"].edges
              if isinstance(e.action, Lock) and e.action.mutex == "a").dst

    def bounds(res):
        r = res.point_value(pt)
        return res.dom.unlift_var(r, "g"), res.dom.unlift_var(r, "h")

    with_bounds = [bounds(r) for r in (oct_with, itv_with)]
    without_bounds = [bounds(r) for r in (oct_without, itv_without)]
    # the digest bounds are exactly the hull of what the oracle reaches there
    ex = explore(p, ExploreBounds())
    gi, hi = ex.gvars.index("g"), ex.gvars.index("h")
    seen = {(rs.globals[gi], rs.globals[hi]) for rs in ex.reachable if rs.point == pt}

    ok = (strict_with == ["PROVEN"] and strict_without == ["UNKNOWN"]
          and got["octagon+digest"] == got["octagon"] == ["PROVEN"]
          and got["interval+digest"] == got["interval"] == ["UNKNOWN"]
          and not ex.truncated and seen == {(10, 9), (12, 11)}
          and with_bounds == [(IntAbs(10, 12), IntAbs(9, 11))] * 2
          and without_bounds == [(IntAbs(0, 12), IntAbs(0, 11))] * 2)
    report(3, ok, (
        f"lock-once: h<g octagon+digest={strict_with} (expected PROVEN), "
        f"octagon alone={strict_without} (expected UNKNOWN); h<=g verdicts {got} "
        f"(octagon PROVEN and interval UNKNOWN either way); (g,h) after t2 "
        f"lock(a) [octagon, interval]: digest={with_bounds} (expected "
        f"[10,12]x[9,11], the hull of the oracle's {sorted(seen)}), "
        f"no digest={without_bounds} (expected [0,12]x[0,11], initializer reaches)"
    ))


def test_criterion_4_example8(programs):
    p = programs["example8"]
    tids = verdicts(p, preset("tids"))
    octagon = verdicts(p, preset("octagon"))
    ok = tids == ["PROVEN"] * 3 and octagon[0] == "UNKNOWN" and octagon[2] == "UNKNOWN"
    report(4, ok, f"§7 Example 8: tids={tids}, octagon={octagon}")


def test_criterion_5_joins(programs):
    got = verdicts(programs["joins"], preset("tids"))
    report(5, got == ["PROVEN", "PROVEN"], f"Appendix F example under tids: {got}")


def test_criterion_6_one_element_clusters(programs):
    p = programs["one_element"]
    gh = frozenset({"g", "h"})
    just_pair = preset("clusters", clusters=FixedClusters(
        "monolithic", families=(("a", (gh,)),)))
    with_h = preset("clusters", clusters=FixedClusters(
        "monolithic", families=(("a", (gh, frozenset({"h"}))),)))
    v1 = verdicts(p, just_pair)
    v2 = verdicts(p, with_h)
    ok = v1 == ["PROVEN", "UNKNOWN", "PROVEN"] and v2[1] == "PROVEN"
    report(6, ok, f"Appendix G: Q_a={{{{g,h}}}} -> {v1}; adding {{h}} -> {v2}")


def test_criterion_7_ancestor_writes(programs):
    p = programs["ancestor"]
    with_flag = verdicts(p, preset("tids", exclude_ancestor_writes=True))
    without = verdicts(p, preset("tids"))
    # the t1 assertion is the second in source order
    ok = with_flag[1] == "PROVEN" and without[1] == "UNKNOWN"
    report(7, ok, f"Appendix E: with flag {with_flag}, without {without}")


def _state_projected_equal(dom, small, full) -> bool:
    if isinstance(small, ImprovedState):
        return (small.j == full.j and small.w == full.w and eq(dom, small.r, full.r)
                and all(eq(dom, small.l[k], full.l[k]) for k in small.l))
    return eq(dom, small, full)


def test_criterion_8_theorem5(programs):
    mismatches = []
    for name, p in sorted(programs.items()):
        for domain in ("eqconst", "octagon"):
            le2 = run_analysis(p, AnalysisConfig(
                domain=domain, mode="clusters", clusters=ClusterConfig("le_k", 2)))
            full = run_analysis(p, AnalysisConfig(
                domain=domain, mode="clusters", clusters=ClusterConfig("all")))
            v1 = [v.verdict for v in check_asserts(le2)]
            v2 = [v.verdict for v in check_asserts(full)]
            if v1 != v2:
                mismatches.append((name, domain, "verdicts", v1, v2))
                continue
            dom = le2.dom
            keys1 = set(le2.solver.values)
            for k in keys1:
                if isinstance(k, MutexKey) and len(k.cluster) > 2:
                    continue
                if k not in full.solver.values:
                    mismatches.append((name, domain, "missing", k))
                    continue
                if not _state_projected_equal(dom, le2.solver.values[k],
                                              full.solver.values[k]):
                    mismatches.append((name, domain, "value", k))
            # every size-≤2 unknown of the full system exists in the ≤2 system
            for k in full.solver.values:
                if isinstance(k, MutexKey) and len(k.cluster) <= 2 and k not in keys1:
                    mismatches.append((name, domain, "extra", k))
    report(8, mismatches == [], f"Theorem 5 equivalence, discrepancies: {mismatches[:5]}")


def test_criterion_9_soundness_differential(programs, explorations, monkeypatch):
    bad = []
    for name, p in sorted(programs.items()):
        for cfg in ("octagon", "tids", "clusters"):
            res = run_analysis(p, preset(cfg))
            rep = check_soundness(res, explorations[name], check_asserts(res))
            if not rep.ok or rep.digest_misses:
                bad.append((name, cfg, rep.witnesses[:2], rep.proven_violated[:1],
                            rep.digest_misses[:2]))

    # harness sensitivity: three broken right-hand sides must produce witnesses
    sensitivity = []
    orig_init = BaseAnalysis.init

    def drop_init(self):
        return {}, orig_init(self)[1]

    mutations = [
        ("drop-unlock-effects", BaseAnalysis, "_unlock_rhs",
         unlock_publishing_nothing(BaseAnalysis._unlock_rhs), "fig_ex0", "octagon"),
        ("drop-init-effects", BaseAnalysis, "init", drop_init, "lockonce", "octagon"),
        ("all-accounted-for", ImprovedSystem, "admission",
         lambda self, edge, ego, cand: None, "joins", "tids"),
    ]
    for label, cls, attr, fn, prog, cfg in mutations:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cls, attr, fn)
            res = run_analysis(programs[prog], preset(cfg))
            rep = check_soundness(res, explorations[prog], check_asserts(res))
        if rep.ok:
            sensitivity.append(label)

    ok = not bad and not sensitivity
    report(9, ok, f"zero witnesses over corpus×configs (bad={bad[:2]}), "
                  f"mutations all detected (undetected={sensitivity})")


def test_criterion_10_domain_property_suites():
    rng = Random(2024)
    failures = []

    # 2-decomposability round trip: 500 random relations per domain
    for numeric in ("octagon", "eqconst"):
        dom = make_domain(numeric, ("v", "w", "x", "y", "z"))
        for i in range(500):
            r = random_relation(dom, rng)
            d = decompose(dom, r, 2)
            if not eq(dom, recompose(dom, d), r):
                failures.append((numeric, "recompose", i))
            r2 = random_relation(dom, rng)
            dj = decompose(dom, dom.join(r, r2), 2)
            d2 = decompose(dom, r2, 2)
            if not all(eq(dom, dj[q], dom.join(d[q], d2[q])) for q in dj):
                failures.append((numeric, "join-distribution", i))

    # lattice laws on 1000 random triples across the domains
    for numeric, count in (("octagon", 400), ("eqconst", 400), ("interval", 200)):
        dom = make_domain(numeric, ("x", "y", "z"))
        for i in range(count):
            a, b, c = (random_relation(dom, rng) for _ in range(3))
            j, m = dom.join(a, b), dom.meet(a, b)
            laws = (
                dom.leq(a, j) and dom.leq(b, j) and dom.leq(m, a) and dom.leq(m, b)
                and eq(dom, dom.join(a, dom.meet(a, b)), a)
                and eq(dom, dom.meet(a, dom.join(a, b)), a)
                and dom.leq(dom.meet(dom.meet(a, b), c), dom.meet(a, dom.meet(b, c)))
            )
            if not laws:
                failures.append((numeric, "lattice", i))

    # Eq. 1 restriction laws on 500 random (r, Y, x)
    for i in range(500):
        numeric = ("octagon", "eqconst", "interval")[i % 3]
        dom = make_domain(numeric, ("x", "y", "z"))
        r = random_relation(dom, rng)
        names = dom.universe.int_vars
        y = {v for v in names if rng.random() < 0.5}
        x = rng.choice(names)
        rr = dom.restrict(r, y)
        if dom.is_bot(r):
            continue
        want = dom.unlift_var(r, x) if x in y else IntAbs.top()
        if dom.unlift_var(rr, x) != want:
            failures.append((numeric, "eq1", i))
        if not eq(dom, dom.restrict(rr, y), rr):
            failures.append((numeric, "idempotence", i))

    # octagon transfer soundness vs enumeration on 200 random cases
    from concurrel.frontend.ast import BinOp, Cmp, IntLit, Var

    dom = make_domain("octagon", ("x", "y", "z"))
    names = dom.universe.int_vars
    for i in range(200):
        r = random_relation(dom, rng)
        g = gamma(dom, r, names)
        x = rng.choice(names)
        e = rng.choice([
            IntLit(rng.randint(0, 4)),
            Var(rng.choice(names)),
            BinOp("+", Var(rng.choice(names)), IntLit(rng.randint(-1, 2))),
            BinOp("-", IntLit(rng.randint(0, 3)), Var(rng.choice(names))),
        ])
        cond = Cmp(rng.choice(["<=", "<", "==", "!=", ">", ">="]),
                   Var(rng.choice(names)), Var(rng.choice(names)))
        assigned = dom.assign_expr(r, x, e)
        guarded = dom.guard(r, cond)
        for vals in g:
            store = dict(zip(names, vals))
            store2 = dict(store)
            store2[x] = eval_expr(e, store)
            if not dom.contains(assigned, store2):
                failures.append(("octagon", "assign", i))
                break
            if eval_cmp(cond, store) and not dom.contains(guarded, store):
                failures.append(("octagon", "guard", i))
                break

    report(10, failures == [], f"domain property suites, failures: {failures[:5]}")
