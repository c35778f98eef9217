"""Unit tests for the right-hand sides, protections, and system invariants."""

import pytest

from concurrel.analysis import (
    BaseAnalysis, ClusterConfig, ConfigError, MutexKey, PointKey, RetKey, check_asserts,
    dump_solution, infer_protections, preset, run_analysis,
)
from concurrel.analysis.driver import build_universe
from concurrel.analysis.protections import compute_protections, protected_by
from concurrel.analysis.improved_system import ImprovedState, ImprovedSystem
from concurrel.digests import DigestSpec, LocksetDigest, MAIN_TID, TidDigestSpec, tid_new
from concurrel.domains import IntAbs, RelDomain
from concurrel.frontend import build_cfg, parse_program, validate
from concurrel.frontend.ast import (
    Cmp, Create, Havoc, IntLit, Join, Lock, ReadGlobal, Return, Unlock, Var, WriteGlobal,
)
from concurrel.frontend.cfg import Edge, Point
from concurrel.solver import Constraint, Solver, View

from conftest import load, with_spec
from domain_utils import eq


def _system_args(src: str, cluster_mode: str):
    """The program, CFGs, octagon domain, declared protections, clusters
    and locals of ``src``: the arguments both constraint systems take."""
    p = parse_program(src)
    cfgs = build_cfg(p)
    protections = compute_protections(p, cfgs, "declared")
    mutexes = sorted(set(p.mutexes) | {p.protecting_mutex(g) for g in p.globals})
    cc = ClusterConfig(cluster_mode)
    clusters = {a: cc.clusters_for(a, protected_by(protections, a)) for a in mutexes}
    universe = build_universe(cfgs, p)
    dom = RelDomain(universe, "octagon")
    locals_ = tuple(v for v in universe.all_vars if v not in p.globals and v != "ret")
    return (p, cfgs, dom, protections, clusters, locals_), dom


def make_base(src: str, cluster_mode="monolithic"):
    """The base system of ``src`` under the trivial digest, and its domain."""
    args, dom = _system_args(src, cluster_mode)
    return BaseAnalysis(*args, DigestSpec()), dom


def make_improved(src: str, clustered=False, exclude_ancestor_writes=False):
    """The thread-id system of ``src``, under ``clusters`` (clusters of at
    most 2 globals) when ``clustered`` and under ``tids`` otherwise, and its
    domain."""
    args, dom = _system_args(src, "le_k" if clustered else "monolithic")
    return ImprovedSystem(*args, clustered=clustered,
                          exclude_ancestor_writes=exclude_ancestor_writes), dom


SRC = """
global g, h;
mutex a;
protect g with a; protect h with a;
thread main { x = create(t1); lock(a); unlock(a); }
thread t1 { x = 1; }
"""


def test_base_init_effects():
    base, dom = make_base(SRC)
    eff, start = base.init()
    zero_gh = dom.guard(dom.guard(dom.top(), Cmp("==", Var("g"), IntLit(0))),
                        Cmp("==", Var("h"), IntLit(0)))
    assert eq(dom, eff[("a", frozenset({"g", "h"}))], zero_gh)
    assert eq(dom, eff[("m_g", frozenset({"g"}))],
                  dom.guard(dom.top(), Cmp("==", Var("g"), IntLit(0))))
    assert dom.unlift_tid(start, "self") == frozenset({MAIN_TID})


def test_base_init_empty_cluster_is_top():
    src = "mutex a;\nthread main { lock(a); unlock(a); }"
    base, dom = make_base(src)
    eff, _ = base.init()
    assert eq(dom, eff[("a", frozenset())], dom.top())


def _edge(base, template, act_type):
    for e in base.cfgs[template].edges:
        if isinstance(e.action, act_type):
            return e
    raise LookupError(act_type)


D = DigestSpec().init()  # the trivial digest: every step keeps it


def _effects(system, edge, lockset, r, published=(), digest=D):
    """The effects of the right-hand side for ``edge`` from the point
    unknown (edge.src, lockset, digest) holding ``r``, on a solver
    assignment that also holds the ``published`` (key, value) pairs."""
    solver = Solver(system)
    src = PointKey(edge.src, lockset, digest)
    for key, v in [(src, r), *published]:
        solver.values[key] = v
        if (ns := system.namespace(key)) is not None:
            solver.by_namespace.setdefault(ns, []).append(key)
    factory = {Lock: system._lock_rhs, Unlock: system._unlock_rhs, Create: system._create_rhs,
               Return: system._return_rhs}.get(type(edge.action), system._plain_rhs)
    return Constraint("effects", factory(edge, src), src).rhs(View(solver))


def test_cluster_config_rejects_an_unknown_mode():
    with pytest.raises(ConfigError, match="unknown cluster mode 'bogus'"):
        ClusterConfig("bogus")


def test_cluster_config_rejects_a_size_below_one():
    for k in (0, -1):
        with pytest.raises(ConfigError, match="cluster size must be >= 1"):
            ClusterConfig("le_k", k)


@pytest.mark.parametrize("field, names", [
    ("domain", "DOMAINS"), ("mode", "MODES"), ("protections", "PROTECTIONS")])
def test_analysis_config_accepts_exactly_its_named_values(field, names):
    """A named field takes each value of its constant (the CLI's choices)
    and refuses any other when the configuration is built, before an
    analysis starts."""
    from concurrel.analysis import AnalysisConfig, config

    for name in getattr(config, names):
        assert getattr(AnalysisConfig(**{field: name}), field) == name
    with pytest.raises(ConfigError, match=f"unknown {field} 'bogus'"):
        AnalysisConfig(**{field: "bogus"})


def test_base_lock_meets_stored_values():
    base, dom = make_base(SRC)
    q = frozenset({"g", "h"})
    stored = dom.guard(dom.top(), Cmp("==", Var("g"), Var("h")))
    lock_edge = _edge(base, "main", Lock)
    target = PointKey(lock_edge.dst, frozenset({"a"}), D)
    fx = _effects(base, lock_edge, frozenset(), dom.top(), [(MutexKey("a", q, D), stored)])
    assert list(fx) == [target]
    assert eq(dom, fx[target], stored)
    # stored Top leaves the state unchanged
    r0 = dom.assign_expr(dom.top(), "x", IntLit(3))
    fx = _effects(base, lock_edge, frozenset(), r0, [(MutexKey("a", q, D), dom.top())])
    assert eq(dom, fx[target], r0)


def test_base_unlock_publishes_and_restricts():
    base, dom = make_base(SRC)
    unlock_edge = _edge(base, "main", Unlock)
    r = dom.guard(dom.top(), Cmp("==", Var("g"), Var("h")))
    r = dom.guard(r, Cmp("==", Var("x"), Var("g")))
    fx = _effects(base, unlock_edge, frozenset({"a"}), r)
    key = MutexKey("a", frozenset({"g", "h"}), D)
    succ = PointKey(unlock_edge.dst, frozenset(), D)
    assert list(fx) == [key, succ]  # the side-effect comes before the successor
    assert eq(dom, fx[key], dom.restrict(r, {"g", "h"}))
    # locally, only x survives; g and h are forgotten
    v = fx[succ]
    assert dom.unlift_var(v, "x") == IntAbs.top()
    assert dom.contains(v, {"x": 5, "g": 0, "h": 1})


def test_base_unlock_keeps_globals_still_protected():
    src = """
    global g;
    mutex a, b;
    protect g with a, b;
    thread main { lock(a); lock(b); unlock(b); unlock(a); }
    """
    base, dom = make_base(src)
    unlock_b = next(e for e in base.cfgs["main"].edges
                    if isinstance(e.action, Unlock) and e.action.mutex == "b")
    r = dom.guard(dom.top(), Cmp("==", Var("g"), IntLit(7)))
    fx = _effects(base, unlock_b, frozenset({"a", "b"}), r)
    v = fx[PointKey(unlock_b.dst, frozenset({"a"}), D)]
    assert dom.unlift_var(v, "g") == IntAbs.const(7)  # a still protects g


def test_base_read_write_havoc():
    base, dom = make_base(SRC)
    cfg = base.cfgs["t1"]
    r = dom.guard(dom.top(), Cmp("==", Var("g"), Var("h")))
    read = Edge(cfg.start, ReadGlobal("x", "g"), Point("t1", 99))
    (v,) = _effects(base, read, frozenset({"m_g"}), r).values()
    assert dom.is_bot(dom.guard(v, Cmp("!=", Var("x"), Var("h"))))  # x=g=h
    hav = Edge(cfg.start, Havoc("x"), Point("t1", 99))
    (v2,) = _effects(base, hav, frozenset(), v).values()
    assert dom.unlift_var(v2, "x") == IntAbs.top()
    assert dom.contains(v2, {"x": 9, "g": 1, "h": 1})


def test_havoc_forgets_both_slots_of_a_thread_id_local():
    """``t = create(w); t = ?;``: ``t`` is an int variable that also holds
    a thread id, and the havoc forgets both of its slots."""
    from concurrel.domains import TID_TOP

    base, dom = make_base("thread main { t = create(w); t = ?; } thread w { t = 1; }")
    assert "t" in dom.universe.index and "t" in dom.universe.tid_vars
    create_edge, havoc_edge = _edge(base, "main", Create), _edge(base, "main", Havoc)
    r = dom.assign_value(dom.top(), "self", frozenset({MAIN_TID}))
    created = _effects(base, create_edge, frozenset(), r)[PointKey(create_edge.dst, frozenset(), D)]
    assert dom.unlift_tid(created, "t") is not TID_TOP
    for v in (created, dom.assign_expr(created, "t", IntLit(3))):
        (after,) = _effects(base, havoc_edge, frozenset(), v).values()
        assert dom.unlift_tid(after, "t") is TID_TOP
        assert dom.unlift_var(after, "t") == IntAbs.top()


def test_base_create_child_state():
    base, dom = make_base(SRC)
    create_edge = _edge(base, "main", Create)
    r = dom.assign_value(dom.top(), "self", frozenset({MAIN_TID}))
    r = dom.guard(r, Cmp("==", Var("x"), IntLit(2)))
    r = dom.guard(r, Cmp("==", Var("g"), IntLit(5)))
    fx = _effects(base, create_edge, frozenset(), r)
    start = PointKey(Point("t1", 0), frozenset(), D)
    succ = PointKey(create_edge.dst, frozenset(), D)
    assert list(fx) == [start, succ]
    child, v = fx[start], fx[succ]
    # globals are dropped from the child start state, locals are passed
    assert dom.unlift_var(child, "g") == IntAbs.top()
    assert dom.unlift_var(child, "x") == IntAbs.const(2)
    from concurrel.digests import AbstractTid, CreateEdge

    expected = AbstractTid((CreateEdge(create_edge.src, "t1"),), frozenset())
    assert dom.unlift_tid(child, "self") == frozenset({expected})
    assert dom.unlift_tid(v, "x") == frozenset({expected})


def test_base_strictness():
    """No constraint whose source is ⊥ yields effects, although each yields
    some from ⊤ (the mutex of the lock has a published value)."""
    system, dom = make_base(SRC)
    solver = Solver(system)
    published = MutexKey("a", frozenset({"g", "h"}), D)
    solver.values[published] = dom.top()
    solver.by_namespace[system.namespace(published)] = [published]
    n = 0
    for p in system.cfgs["main"].points:
        for lockset in (frozenset(), frozenset({"a", "m_g"})):
            src = PointKey(p, lockset, D)
            for c in system.constraints_for(src):
                solver.values[src] = dom.bot()
                assert c.rhs(View(solver)) == {}, c.describe()
                solver.values[src] = dom.top()
                assert c.rhs(View(solver)), c.describe()
                n += 1
    assert n == 4  # create and lock(a) from {}, create and unlock(a) from {a, m_g}


# The thread-id system's edge constraints: what its states add to the base
# system's relation steps.

TSRC = """
global g, h, k;
mutex a, b;
protect g with a; protect h with a, b; protect k with b;
thread main { x = create(t1); lock(a); lock(b); unlock(b); unlock(a); }
thread t1 { y = 1; return y; }
"""

T = TidDigestSpec().init()  # main's digest


def _state(system, r, w=(), j=()):
    """A thread-id state over ``r``, with the initial L and the given W and J."""
    return ImprovedState(frozenset(j), system.init()[0], frozenset(w), r)


def test_improved_write_adds_its_global_to_w():
    system, dom = make_improved(TSRC)
    s = _state(system, dom.assign_expr(dom.top(), "x", IntLit(4)), w={"h"})
    after = Point("main", 99)
    (v,) = _effects(system, Edge(Point("main", 2), WriteGlobal("g", "x"), after),
                    frozenset({"a"}), s, digest=T).values()
    assert v.w == {"g", "h"} and v.j is s.j and v.l is s.l
    assert dom.unlift_var(v.r, "g") == IntAbs.const(4)
    # a read leaves W as it is
    (v,) = _effects(system, Edge(Point("main", 2), ReadGlobal("x", "g"), after),
                    frozenset({"a"}), s, digest=T).values()
    assert v.w == s.w


def _unlock_a(clustered, w):
    """The effects of unlock(a) from lockset {a}, with W = ``w``, g = 5 and
    h = 6, and the source state."""
    system, dom = make_improved(TSRC, clustered)
    r = dom.guard(dom.guard(dom.top(), Cmp("==", Var("g"), IntLit(5))),
                  Cmp("==", Var("h"), IntLit(6)))
    s = _state(system, r, w=w)
    edge = next(e for e in system.cfgs["main"].edges if e.action == Unlock("a"))
    return system, dom, s, edge, _effects(system, edge, frozenset({"a"}), s, digest=T)


def test_improved_unlock_publishes_the_clusters_that_meet_w():
    """Under ``clusters`` an unlock publishes the clusters that meet W;
    under ``tids`` it publishes every cluster iff 𝒢[a] ∩ W ≠ ∅."""
    gh = frozenset({"g", "h"})
    cases = [
        (True, {"g"}, [frozenset({"g"}), gh]),
        (True, {"h", "k"}, [frozenset({"h"}), gh]),
        (True, {"k"}, []),
        (False, {"g"}, [gh]),
        (False, {"h"}, [gh]),
        (False, {"k"}, []),
        (False, (), []),
    ]
    for clustered, w, want in cases:
        system, dom, s, edge, fx = _unlock_a(clustered, w)
        succ = PointKey(edge.dst, frozenset(), T)
        # side-effects first, keyed with the digest key of the successor's digest
        assert list(fx) == [MutexKey("a", q, system.dkey(T)) for q in want] + [succ], \
            (clustered, w)
        for q in want:
            assert fx[MutexKey("a", q, system.dkey(T))] is dom.restrict(s.r, q)


def test_improved_unlock_replaces_the_published_l_entries():
    """A published cluster's L entry becomes the published value (not its
    join with the old entry); every other entry is kept."""
    system, dom, s, edge, fx = _unlock_a(True, {"g"})
    after = fx[PointKey(edge.dst, frozenset(), T)]
    for (a, q), old in s.l.items():
        if a == "a" and "g" in q:
            assert after.l[a, q] is dom.restrict(s.r, q)
            assert dom.unlift_var(after.l[a, q], "g") == IntAbs.const(5)
        else:
            assert after.l[a, q] is old
    assert after.j is s.j


def test_improved_unlock_keeps_in_w_what_another_held_mutex_protects():
    system, dom = make_improved(TSRC)
    s = _state(system, dom.top(), w={"g", "h", "k"})
    unlock_b = next(e for e in system.cfgs["main"].edges if e.action == Unlock("b"))
    fx = _effects(system, unlock_b, frozenset({"a", "b"}), s, digest=T)
    # a still protects g and h; only b protects k
    assert fx[PointKey(unlock_b.dst, frozenset({"a"}), T)].w == {"g", "h"}
    _, _, _, edge, fx = _unlock_a(False, {"g", "h", "k"})
    assert fx[PointKey(edge.dst, frozenset(), T)].w == frozenset()


def test_improved_create_child_state():
    """The child starts with its parent's J and L, W = ∅ and its own id;
    the parent keeps its state and holds the child's id."""
    system, dom = make_improved(TSRC)
    create_edge = _edge(system, "main", Create)
    r = dom.assign_value(dom.top(), "self", frozenset({MAIN_TID}))
    r = dom.guard(dom.guard(r, Cmp("==", Var("y"), IntLit(2))), Cmp("==", Var("g"), IntLit(5)))
    s = _state(system, r, w={"g"}, j={MAIN_TID})
    fx = _effects(system, create_edge, frozenset(), s, digest=T)
    start = Point("t1", 0)
    child_digest = tid_new(create_edge.src, start, T)
    child_key = PointKey(start, frozenset(), child_digest)
    succ = PointKey(create_edge.dst, frozenset(), system.spec.unary(create_edge.src,
                                                                   create_edge.action, T))
    assert list(fx) == [child_key, succ]
    child, parent = fx[child_key], fx[succ]
    assert child.j is s.j and child.l is s.l and child.w == frozenset()
    assert dom.unlift_tid(child.r, "self") == frozenset({child_digest[0]})
    assert dom.unlift_var(child.r, "y") == IntAbs.const(2)
    assert dom.unlift_var(child.r, "g") == IntAbs.top()  # globals are dropped
    assert parent.j is s.j and parent.l is s.l and parent.w == s.w
    assert dom.unlift_tid(parent.r, "x") == frozenset({child_digest[0]})


def test_improved_return_keyed_by_the_digest_key():
    """A return is keyed RetKey(dkey(d1)): the thread id alone, or the whole
    digest under --exclude-ancestor-writes; its value relates ``ret`` alone
    and has W = ∅, and the successor keeps the state."""
    for exclude, key in ((False, T[0]), (True, T)):
        system, dom = make_improved(TSRC, exclude_ancestor_writes=exclude)
        ret_edge = _edge(system, "t1", Return)
        r = dom.guard(dom.top(), Cmp("==", Var("y"), IntLit(1)))
        s = _state(system, dom.guard(r, Cmp("==", Var("g"), IntLit(3))), w={"g"})
        fx = _effects(system, ret_edge, frozenset(), s, digest=T)
        succ = PointKey(ret_edge.dst, frozenset(), T)
        assert list(fx) == [RetKey(key), succ]
        v = fx[RetKey(key)]
        assert v.w == frozenset() and v.j is s.j and v.l is s.l
        assert v.r is dom.restrict(v.r, {"ret"})
        assert dom.unlift_var(v.r, "ret") == IntAbs.const(1)
        assert fx[succ] is s


def test_infer_protections_sec4_example(programs):
    p = programs["four_asserts"]
    prot = infer_protections(p, build_cfg(p))
    assert prot["g"] == frozenset({"a", "b", "m_g"})
    assert prot["h"] == frozenset({"a", "b", "m_h"})


def test_infer_protections_no_lock():
    p = parse_program("global g;\nthread main { g = 1; }")
    prot = infer_protections(p, build_cfg(p))
    assert prot["g"] == frozenset({"m_g"})


def test_infer_protections_ignores_dead_write(programs, explorations):
    p = programs["synth_infer"]
    prot = infer_protections(p, build_cfg(p))
    assert prot["g"] == frozenset({"a", "m_g"})  # the write after return is dead
    assert prot["h"] == frozenset({"a", "b", "m_h"})
    # the oracle confirms the dead write never executes: g is never 99
    assert 99 not in explorations["synth_infer"].global_values["g"]


def test_infer_protections_stops_at_unlock_of_free_mutex():
    """The lockset walk, like the analysis and the oracle, does not go past
    an unlock of a free mutex, so main's write behind it does not shrink
    𝓜[g]; with {a, m_g} the octagon analysis proves t1's assert."""
    from concurrel.differential import check_soundness
    from concurrel.oracle import ExploreBounds, explore

    p = parse_program("global g; mutex a; thread main { x = create(t1); unlock(a); g = 1; } "
                      "thread t1 { lock(a); g = 2; y = g; assert(y == 2); unlock(a); }")
    assert infer_protections(p, build_cfg(p))["g"] == frozenset({"a", "m_g"})
    assert any("unlock of un-held mutex 'a'" in d.message for d in validate(p))
    ex = explore(p, ExploreBounds())
    for pname in ("octagon", "tids", "clusters"):
        res = run_analysis(p, preset(pname))
        verdicts = check_asserts(res)
        assert [v.verdict for v in verdicts] == ["PROVEN"], pname
        assert check_soundness(res, ex, verdicts).clean, pname


def test_stored_mutex_values_satisfy_restrict_invariant(programs):
    for name in ("intro_cluster", "four_asserts", "joins"):
        for pname in ("octagon", "tids", "clusters"):
            res = run_analysis(programs[name], preset(pname))
            for k, v in res.solver.values.items():
                if isinstance(k, MutexKey):
                    assert eq(res.dom, res.dom.restrict(v, k.cluster), v), (name, pname, k)


def test_post_solution_stable(programs):
    for name in ("intro_cluster", "example8", "joins", "synth_counter"):
        for pname in ("octagon", "tids", "clusters"):
            res = run_analysis(programs[name], preset(pname))
            assert res.solver.check_post_solution() == [], (name, pname)


def test_post_solution_report_names_the_edge():
    """A point value shrunk below what its incoming edge gives is reported
    as ``<source key> <action> -> <key>``."""
    res = run_analysis(parse_program("thread main { x = ?; y = x; }"), preset("octagon"))
    (key,) = res.point_keys(Point("main", 2))
    solved = res.solver.values[key]
    shrunk = res.dom.guard(solved, Cmp("<=", Var("x"), IntLit(0)))
    assert not res.dom.is_bot(shrunk) and not res.dom.leq(solved, shrunk)
    res.solver.values[key] = shrunk
    assert res.solver.check_post_solution() == [f"[main.1, {{}}, ()] y = x -> {key}"]


def test_cached_effects_equal_a_reevaluation(monkeypatch):
    """Narrowing folds the effects of each constraint's last worklist
    evaluation.  Stopped just before narrowing, re-running every right-hand
    side must give the same keys with values equal both ways, on the corpus
    under the benchmark's 5 configurations and on the programs of one
    generator seed under octagon, tids and clusters; the narrowed solution
    must then still be a post-solution."""
    import os

    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    import gen
    import workloads

    narrow = Solver._narrow
    checked = []

    def check_then_narrow(solver):
        leq = solver.system.leq
        for c in solver.constraints:
            cached, fresh = solver.last_effects[c.cid], c.rhs(View(solver))
            assert fresh.keys() == cached.keys(), c.describe()
            for k, v in fresh.items():
                assert leq(k, v, cached[k]) and leq(k, cached[k], v), (c.describe(), k)
        checked.append(len(solver.constraints))
        narrow(solver)

    monkeypatch.setattr(Solver, "_narrow", check_then_narrow)
    runs = [(text, name, config)
            for name, text in workloads.load_corpus(os.path.dirname(perfbench)).items()
            for config in workloads.CORPUS_CONFIGS.values()]
    runs += [(g.source, g.name, preset(cfg))
             for g in gen.generate_set(0) for cfg in workloads.SCALED_CONFIGS]
    for text, name, config in runs:
        _, result, _ = workloads.analyze(text, name, config)
        assert result.solver.check_post_solution() == [], (name, config)
    assert len(checked) == len(runs) == 14 * 5 + 4 * 3


def test_solution_dump_deterministic(programs):
    for name in ("example8", "one_element"):
        for pname in ("octagon", "clusters"):
            d1 = dump_solution(run_analysis(programs[name], preset(pname)))
            d2 = dump_solution(run_analysis(programs[name], preset(pname)))
            assert d1 == d2


def test_assert_vacuous_proven_when_unreachable():
    src = """
    thread main {
      x = 1;
      if (x < 1) { assert(x == 99); }
    }
    """
    res = run_analysis(parse_program(src), preset("octagon"))
    (v,) = check_asserts(res)
    assert v.verdict == "PROVEN"


def test_assert_partial_knowledge_unknown():
    src = """
    global g, h;
    mutex a;
    protect g with a; protect h with a;
    thread main {
      x = ?; y = ?;
      lock(a);
      g = x; h = y;
      assert(g == h);
      unlock(a);
    }
    """
    res = run_analysis(parse_program(src), preset("octagon"))
    (v,) = check_asserts(res)
    assert v.verdict == "UNKNOWN"


def test_wrapped_lockset_digest_matches_builtin_splitting(programs):
    """Wrapping the base right-hand sides with the lockset digest reproduces
    the built-in lockset splitting up to key renaming."""
    for name in ("four_asserts", "lockonce", "example8", "synth_relock"):
        res = run_analysis(programs[name], preset("octagon"))
        system = with_spec(res.system, LocksetDigest())
        solver = Solver(system)
        solver.solve()
        dom = res.dom

        # every instantiated point key carries its own lockset as the digest
        for k in solver.values:
            if isinstance(k, PointKey):
                assert k.digest == k.lockset

        # point values agree 1:1
        triv_points = {k: v for k, v in res.solver.values.items() if isinstance(k, PointKey)}
        wrap_points = {k: v for k, v in solver.values.items() if isinstance(k, PointKey)}
        assert {(k.point, k.lockset) for k in triv_points} == {
            (k.point, k.lockset) for k in wrap_points
        }
        for k, v in triv_points.items():
            assert eq(dom, v, wrap_points[PointKey(k.point, k.lockset, k.lockset)]), (name, k)

        # mutex values joined over digests agree with the unsplit values
        for k, v in res.solver.values.items():
            if not isinstance(k, MutexKey):
                continue
            parts = [v2 for k2, v2 in solver.values.items()
                     if isinstance(k2, MutexKey) and (k2.mutex, k2.cluster) == (k.mutex, k.cluster)]
            assert eq(dom, v, dom.join_all(parts)), (name, k)


def test_base_join_propagates_return_value():
    src = """
    thread main {
      x = create(t1);
      y = join(x);
      assert(y == 0);
    }
    thread t1 { return 0; }
    """
    res = run_analysis(parse_program(src), preset("octagon"))
    (v,) = check_asserts(res)
    assert v.verdict == "PROVEN"


def test_base_join_over_multiple_returns():
    src = """
    thread main {
      x = create(t1);
      c = ?;
      if (c == 0) { x = create(t2); }
      y = join(x);
      assert(y <= 1);
      assert(y == 0);
    }
    thread t1 { return 0; }
    thread t2 { return 1; }
    """
    res = run_analysis(parse_program(src), preset("octagon"))
    v1, v2 = check_asserts(res)
    assert v1.verdict == "PROVEN"  # join over both returns: y ∈ [0,1]
    assert v2.verdict == "UNKNOWN"


def test_a_join_reads_the_returns_once(programs):
    """Every evaluation of a join reads the thread-return namespace once and
    each thread-return key at most once, in both constraint systems."""
    program = programs["intro_cluster"]
    for cfg in (preset("octagon"), preset("octagon", lock_once=True), preset("tids")):
        res = run_analysis(program, cfg)
        joins = {e.src for c in res.cfgs.values() for e in c.edges if isinstance(e.action, Join)}
        evaluated = 0
        for key in [k for k in res.solver.values if isinstance(k, PointKey) and k.point in joins]:
            for c in res.system.constraints_for(key):
                view = View(res.solver)
                if c.rhs(view):
                    evaluated += 1
                rets = [k for k in view.reads if isinstance(k, RetKey)]
                assert view.ns_reads == [("ret",)], (cfg, c.describe())
                assert rets and len(rets) == len(set(rets)), (cfg, c.describe(), rets)
        assert evaluated, cfg


def test_base_monolithic_cannot_show_intro_assert2(programs):
    res = run_analysis(programs["intro_cluster"], preset("octagon"))
    verd = [v.verdict for v in check_asserts(res)]
    assert verd[1] == "UNKNOWN"


def test_declared_protections_within_inferred(programs):
    from concurrel.analysis.protections import declared_protections
    from concurrel.frontend import build_cfg

    for name, p in programs.items():
        if p.protections is None:
            continue
        inferred = infer_protections(p, build_cfg(p))
        declared = declared_protections(p)
        for g in p.globals:
            assert declared[g] <= inferred[g], (name, g, declared[g], inferred[g])


def test_inferred_protections_give_same_verdicts(programs):
    for name in ("intro_cluster", "example8", "joins", "four_asserts"):
        p = programs[name]
        v1 = [v.verdict for v in check_asserts(run_analysis(p, preset("tids")))]
        v2 = [v.verdict for v in check_asserts(
            run_analysis(p, preset("tids", protections="inferred")))]
        assert v1 == v2, name


def test_unbounded_loop_terminates_by_widening():
    src = """
    thread main {
      x = 0;
      while (x >= 0) { x = x + 1; }
      assert(x < 0);
    }
    """
    res = run_analysis(parse_program(src), preset("octagon"))
    (v,) = check_asserts(res)
    assert v.verdict == "PROVEN"  # the loop only exits with x < 0 (never, here)
    assert res.solver.stats.widened > 0


def test_post_solution_stable_eqconst(programs):
    from concurrel.analysis import AnalysisConfig, ClusterConfig

    for name in ("intro_cluster", "joins"):
        for mode in ("base", "tids", "clusters"):
            res = run_analysis(programs[name], AnalysisConfig(
                domain="eqconst", mode=mode,
                clusters=ClusterConfig("le_k" if mode == "clusters" else "monolithic")))
            assert res.solver.check_post_solution() == [], (name, mode)


def test_state_join_returns_its_left_operand_exactly_when_the_right_adds_nothing(programs):
    """``ImprovedSystem.state_join(a, b) is a`` iff ``state_leq(b, a)``, for
    the point and return states of a clusters and a tids analysis, their
    joins and widenings, states mixing the components of those, and copies
    with equal but fresh components: the solver relies on it to stop an
    update without asking ⊑."""
    from hypothesis import given, settings, strategies as st

    from concurrel.analysis.improved_system import ImprovedState

    systems = []
    for name, mode in (("intro_cluster", "clusters"), ("joins", "tids")):
        result = run_analysis(programs[name], preset(mode))
        states = [v for v in result.solver.values.values() if isinstance(v, ImprovedState)]
        systems.append((result.system, states))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def check(data):
        system, states = data.draw(st.sampled_from(systems))
        a, b = (data.draw(st.sampled_from(states)) for _ in range(2))
        made = [a, b, system.state_join(a, b), system.state_join(a, b, widen=True)]

        def mixed():
            return ImprovedState(*(getattr(data.draw(st.sampled_from(made)), f)
                                   for f in ("j", "l", "w", "r")))

        x, y = mixed(), mixed()
        fresh = ImprovedState(frozenset(x.j), dict(x.l), frozenset(x.w), x.r)
        pairs = [(a, b), (b, a), (a, a), (made[2], a), (made[2], b), (made[3], a),
                 (made[3], b), (x, y), (y, x), (x, fresh), (fresh, x), (made[2], x), (x, a)]
        for p, q in pairs:
            assert (system.state_join(p, q) is p) == system.state_leq(q, p)

    check()


# -- one lowering per program --

def test_a_program_is_lowered_once():
    """``build_cfg`` keeps the CFGs of a program (``load`` parses anew), and
    every analysis of the program reads those."""
    p = load("intro_cluster")
    assert build_cfg(p) is build_cfg(p)
    for name in ("octagon", "clusters"):
        assert run_analysis(p, preset(name)).cfgs is build_cfg(p)
    assert validate(p) == validate(p) and validate(p) is not validate(p)


def test_exploration_and_analyses_share_one_lowering(monkeypatch):
    """An exploration followed by the four analyses that the oracle-validate
    benchmark runs lowers each template once and validates it once."""
    import importlib

    from concurrel.frontend.cfg import _Lowerer
    from concurrel.oracle import explore

    # the package's ``validate`` attribute is the function, not its module
    validate_module = importlib.import_module("concurrel.frontend.validate")
    lowered, walked = [], []
    lower, walk = _Lowerer.lower, validate_module.held_locksets

    def counting_lower(self, name, body):
        lowered.append(name)
        return lower(self, name, body)

    def counting_walk(cfg):
        walked.append(cfg.template)
        return walk(cfg)

    monkeypatch.setattr(_Lowerer, "lower", counting_lower)
    monkeypatch.setattr(validate_module, "held_locksets", counting_walk)
    p = load("intro_cluster")
    explore(p)
    for name in ("interval", "octagon", "tids", "clusters"):
        run_analysis(p, preset(name))
    assert sorted(lowered) == sorted(walked) == sorted(p.threads)


def test_a_replaced_program_is_lowered_anew():
    import dataclasses

    from concurrel.frontend import cfg_dump

    p = load("joins")
    q = dataclasses.replace(p, filename="other.conc")
    assert build_cfg(q) is not build_cfg(p)
    assert cfg_dump(build_cfg(q)) == cfg_dump(build_cfg(p))
    r = dataclasses.replace(p, threads={**p.threads, "main": ()})
    assert len(build_cfg(r)["main"].points) == 1 < len(build_cfg(p)["main"].points)


def test_admission_asks_once_per_digest_pair(programs, monkeypatch):
    """The thread-id system asks the base admission once per (ego,
    candidate) digest pair of an analysis."""
    asked = []
    base = BaseAnalysis.admission

    def counting(self, edge, ego, cand):
        asked.append((ego, cand))
        return base(self, edge, ego, cand)

    monkeypatch.setattr(BaseAnalysis, "admission", counting)
    for name in ("joins", "tid_loop", "intro_cluster"):
        for mode in ("tids", "clusters"):
            asked.clear()
            run_analysis(programs[name], preset(mode))
            assert asked and len(asked) == len(set(asked)), (name, mode)
