"""Bounded exploration: semantics, determinism, and sanity counts."""

import gc
import hashlib
import os
import types
import weakref

import pytest

from concurrel import oracle
from concurrel.analysis.keys import digest_text
from concurrel.digests import LockOnceDigest, TidDigestSpec
from concurrel.frontend import Join, Lock, action_str, build_cfg, parse_program
from concurrel.frontend.ast import Guard
from concurrel.frontend.cfg import TRUE_GUARD, Cfg, Edge, Point
from concurrel.oracle import ExploreBounds, explore

from conftest import load


def test_straight_line_no_violation():
    p = parse_program("thread main { x = 1; assert(x == 1); }")
    ex = explore(p)
    assert ex.violations == {} and not ex.truncated
    assert ex.schedules == 1


def test_violated_assert_reports_schedule():
    p = parse_program("thread main { x = 1; assert(x == 2); }")
    ex = explore(p)
    assert 0 in ex.violations
    assert any("assert" in s for s in ex.violations[0])


def test_two_independent_one_step_threads_two_interleavings():
    # the two writes race; joining t1 makes main's exit see the final value
    p = parse_program("global g;\n"
                      "thread main { a = create(t1); g = 1; b = join(a); }\n"
                      "thread t1 { g = 2; return 0; }")
    ex = explore(p)
    assert ex.schedules == 2 and not ex.truncated
    exit_point = max(rs.point for rs in ex.reachable if rs.point.template == "main")
    assert {dict(zip(ex.gvars, rs.globals))["g"]
            for rs in ex.reachable if rs.point == exit_point} == {1, 2}


def test_fig_ex0_reaches_both_write_orders():
    p = load("fig_ex0")
    ex = explore(p)
    final = {p2 for c in explore_points(ex) for p2 in [c]}
    exit_point = max(pt.idx for pt in  # main's structural exit
                     {rs.point for rs in ex.reachable if rs.point.template == "main"})
    g_at_exit = {
        dict(zip(ex.gvars, rs.globals))["g"]
        for rs in ex.reachable
        if rs.point.template == "main" and rs.point.idx == exit_point
    }
    assert {1, 2} <= g_at_exit


def explore_points(ex):
    return {rs.point for rs in ex.reachable}


def test_one_element_program_has_no_violations(programs, explorations):
    ex = explorations["one_element"]
    assert ex.violations == {}
    assert not ex.truncated


def test_corpus_has_no_concrete_violations(explorations):
    for name, ex in explorations.items():
        assert ex.violations == {}, name


def test_digest_replay_never_rejects_feasible_steps(explorations):
    for name, ex in explorations.items():
        assert ex.digest_infeasibilities == [], name


@pytest.mark.parametrize("spec, program, action, report, pinned", [
    (LockOnceDigest, "synth_relock", Lock, "lock-once digest rejects feasible lock",
     (6, "7489bf9af51aff14")),
    (TidDigestSpec, "joins", Join, "tid digest rejects feasible join", (6, "61946412104e54ab")),
    (LockOnceDigest, "four_asserts", Lock, "lock-once digest rejects feasible lock",
     (454, "53fb5ec4cbeff441")),
], ids=("lockonce-relock", "tid-join", "lockonce-relock-repeated"))
def test_digest_replay_reports_rejections_of_the_analyzer_specs(
        monkeypatch, spec, program, action, report, pinned):
    """The oracle replays the analyzer's own ``binary``: when a spec rejects
    an action the program performs (here every join, and every re-lock,
    also the copy wrappers' locks of m_g), the oracle reports that action,
    once each time a schedule takes it: the whole list (count and order) is
    pinned, so a step computed once and reused must report again."""
    original, rejected = spec.binary, set()

    def binary(self, u, act, d, d1):
        if isinstance(act, action) and (action is Join or act.mutex in d):
            rejected.add(f"{action_str(act)} @ {u}")
            return None
        return original(self, u, act, d, d1)

    monkeypatch.setattr(spec, "binary", binary)
    ex = explore(load(program))
    reported = {m.split(": ")[-1] for m in ex.digest_infeasibilities}
    assert rejected and reported == rejected
    assert all(m.startswith(report + ": ") for m in ex.digest_infeasibilities)
    assert (len(ex.digest_infeasibilities), _sha("\n".join(ex.digest_infeasibilities))) == pinned


def test_exploration_deterministic():
    p = load("example8")
    e1, e2 = explore(p), explore(p)
    assert e1.reachable == e2.reachable
    assert e1.states == e2.states and e1.schedules == e2.schedules


def test_blocking_join_and_locks():
    src = """
    mutex a;
    thread main {
      x = create(t1);
      y = join(x);
      assert(y == 5);
    }
    thread t1 { lock(a); unlock(a); return 5; }
    """
    ex = explore(parse_program(src))
    assert ex.violations == {}


def test_havoc_branches_over_value_set():
    p = parse_program("thread main { x = ?; }")
    ex = explore(p, ExploreBounds(havoc_values=(0, 1, 2)))
    finals = {dict(zip(ex.lvars, rs.locals))["x"]
              for rs in ex.reachable if rs.point.idx == 1}
    assert finals == {0, 1, 2}


def test_bound_truncation_is_flagged():
    src = "thread main { x = 0; while (x < 100) { x = x + 1; } }"
    ex = explore(parse_program(src), ExploreBounds(max_steps_per_thread=5))
    assert ex.truncated and ex.truncated_by == {"max_steps_per_thread"}
    ex = explore(parse_program(src), ExploreBounds(max_steps_per_thread=200, max_total_states=50))
    assert ex.truncated_by == {"max_total_states"}


def test_tid_loop_stops_only_at_the_thread_cap(explorations):
    """t1 creates t1 again, so thread creation is unbounded."""
    ex = explorations["tid_loop"]
    assert ex.truncated_by == {"max_threads"} and ex.states == 14_651


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fingerprint(ex) -> tuple:
    """Counts plus two hash-seed-independent hashes: one of the reachable
    tuples, one of the violations (with their schedules), the digest
    infeasibilities, the thread-id abstractions and the global values."""
    others = [f"{aid}: {' | '.join(s)}" for aid, s in sorted(ex.violations.items())]
    others += ex.digest_infeasibilities
    others += [f"{t}: {digest_text(a)}" for t, a in sorted(ex.tid_abstractions.items())]
    others += [f"{g}: {sorted(vs)}" for g, vs in sorted(ex.global_values.items())]
    return (ex.states, ex.schedules, len(ex.reachable), sorted(ex.truncated_by),
            _sha("\n".join(sorted(digest_text(rs) for rs in ex.reachable))),
            _sha("\n".join(others)))


# (states, schedules, reachable, truncated_by, reachable hash, other fields' hash)
_CORPUS_FINGERPRINTS = {
    "ancestor": (62, 2, 40, [], '613bebd5d15166a5', '40ba0212f5e2f585'),
    "example8": (2964, 40, 613, [], 'e6bd5baa67a18b63', 'b4fe30d03c6f5ba1'),
    "fig_ex0": (60, 2, 25, [], '4fa6a6b3dd5109fa', '3964358df5119bb0'),
    "four_asserts": (911, 32, 266, [], '36c9779f3152d2c0', '328e901b23a97753'),
    "intro_cluster": (257552, 5265, 5542, [], '47643aae24c24e01', '465770c605d05438'),
    "joins": (233, 6, 127, [], '8a771182bdd9cb07', 'd4967164768bc8a8'),
    "lockonce": (31, 2, 27, [], '4288ccbe9bfe61cb', '9b7958208e80b3e8'),
    "lockonce_strict": (31, 2, 27, [], '4288ccbe9bfe61cb', '9b7958208e80b3e8'),
    "one_element": (3907, 33, 168, [], '86afcf5f81df436a', 'c7a099e1ce12bfd5'),
    "synth_counter": (78, 6, 45, [], 'cbaa76959dc042e7', '21cc93d6bf01a6f9'),
    "synth_infer": (78, 3, 33, [], 'c6a0a70714bb25ec', 'c31d1410fd92d338'),
    "synth_mix": (47, 3, 45, [], '30135f55b95acd2b', '06bde853bdec22c8'),
    "synth_relock": (17, 1, 18, [], '85fafc0178e1ae89', 'b9bf33e7d6fbb55d'),
    "tid_loop": (14651, 142, 131, ['max_threads'], '8f7cd41495e327a0', '3eeb883d17bdb0be'),
}

# at ExploreBounds(max_total_states=5_000); intro_cluster and tid_loop stop at
# that cap, so they also pin the order in which states are explored
_CAPPED_FINGERPRINTS = {
    "intro_cluster": (5001, 111, 366, ['max_total_states'], 'cee1922ab46a7dda', '465770c605d05438'),
    "tid_loop": (5001, 31, 78, ['max_threads', 'max_total_states'], '5b6b4bbd5b1488ea', '8f525e8b579ab860'),
    "scaled_s0_p0": (3453, 6, 767, [], '6f0e69c27d874048', 'a0f9edc520cba721'),
    "scaled_s0_p1": (2408, 1, 675, [], '811822978a789164', '2993b2636ca30ced'),
    "scaled_s0_p2": (2408, 1, 675, [], '527538e1d9a65985', '699e76644b195b8e'),
    "scaled_s0_p3": (2408, 1, 675, [], '2b5d6880570bfebc', 'a20465c4bb70af48'),
    "scaled_s1_p0": (3453, 6, 767, [], 'a164c0680e084130', '0ff9ac8331e8473b'),
    "scaled_s1_p1": (2408, 1, 675, [], '50b266b4d07ea036', '88f7f683af8c989a'),
    "scaled_s1_p2": (2408, 1, 675, [], '914337b4f0f966f7', '1ef7bd42c3920545'),
    "scaled_s1_p3": (2408, 1, 675, [], '3b2e3a5d7129a1ae', '6094f91a2cf13032'),
    "scaled_s2_p0": (3453, 6, 767, [], '39efe35025574408', '8cedc5859cf1ffa6'),
    "scaled_s2_p1": (2408, 1, 675, [], 'd4189c8394a79f16', 'e5f45b6aaac7566c'),
    "scaled_s2_p2": (2408, 1, 675, [], 'ac9e6713cc1e1b1f', '2cba48d8518178c4'),
    "scaled_s2_p3": (2408, 1, 675, [], 'c2cda5b85c86d94e', 'b7285571b576938a'),
}


def test_oracle_output_is_pinned(explorations, monkeypatch):
    """A change inside the oracle must not change a single explored state,
    schedule or reachable tuple."""
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
    import gen

    assert {n: _fingerprint(ex) for n, ex in explorations.items()} == _CORPUS_FINGERPRINTS
    programs = {n: load(n) for n in ("intro_cluster", "tid_loop")}
    for seed in range(3):
        programs.update((g.name, parse_program(g.source, g.name)) for g in gen.generate_set(seed))
    capped = ExploreBounds(max_total_states=5_000)
    got = {n: _fingerprint(explore(p, capped)) for n, p in programs.items()}
    assert got == _CAPPED_FINGERPRINTS


# Small programs whose shapes the corpus and generated pins miss:
# (source, bounds, fingerprint).
_SMALL_PROGRAMS = {
    # an assert inside a loop, violated once t1 has written g
    "loop_assert": ("""
        global g;
        mutex a;
        protect g with a;
        thread main {
          t = create(t1);
          i = 0;
          while (i < 2) {
            lock(a);
            x = g;
            unlock(a);
            assert(x < 1);
            i = i + 1;
          }
        }
        thread t1 { lock(a); g = 1; unlock(a); return 0; }
        """, ExploreBounds(), (144, 2, 51, [], 'f67f11bca96a75a9', 'cd4b4cd280821873')),
    # a lock/unlock loop cut by the visit cap while t1 competes for the mutex
    "lock_loop": ("""
        global g;
        mutex a;
        protect g with a;
        thread main {
          t = create(t1);
          i = 0;
          while (i >= 0) {
            lock(a);
            x = g;
            g = x + 1;
            unlock(a);
          }
        }
        thread t1 { lock(a); g = 0; unlock(a); return 0; }
        """, ExploreBounds(max_steps_per_thread=3),
        (191, 4, 47, ['max_steps_per_thread'], '3abd7bc68315bee7', 'eeff1610608a0d8e')),
    # a havoc whose values split at a guard
    "havoc_guard": ("""
        thread main {
          x = ?;
          if (x > 0) { y = x; } else { y = 0 - x; }
          assert(y != 1);
        }
        """, ExploreBounds(), (16, 3, 16, [], 'e4e43bdd6a471900', '279f14ba73b61291')),
    # a product of havoced values, violated for x = 2 only
    "havoc_product": ("""
        thread main {
          x = ?;
          y = x * x;
          if (y > 3) { assert(x != 2); }
        }
        """, ExploreBounds(), (14, 3, 14, [], '3b74e52dea862a99', '287ab52e21297411')),
    # A child inherits its creator's locals, so the second t1 starts with x
    # holding the first t1's name.  That t1 cannot copy x to a global, add
    # to it, or assert an order on it; each havoc value blocks it at one.
    "thread_name_steps": ("""
        global g;
        mutex a;
        protect g with a;
        thread main { x = create(t1); x = create(t1); }
        thread t1 {
          c = ?;
          if (c < 1) {
            lock(a);
            g = x;
            unlock(a);
          } else {
            if (c < 2) { y = x + 1; } else { assert(x < 1); }
          }
          return 0;
        }
        """, ExploreBounds(), (274, 10, 36, [], '1f2f1272eee924ed', 'f55cb0278fdbaa7a')),
    # ... nor guard on an order of x, nor return x
    "thread_name_return": ("""
        thread main { x = create(t1); x = create(t1); }
        thread t1 {
          c = ?;
          if (c < 1) {
            if (x > 0) { c = 1; }
          }
          return x;
        }
        """, ExploreBounds(), (151, 9, 24, [], 'b56f852b4fdba6c5', 'f45aade1f87a36a2')),
}


@pytest.mark.parametrize("name", sorted(_SMALL_PROGRAMS))
def test_small_program_explorations_are_pinned(name):
    source, bounds, fingerprint = _SMALL_PROGRAMS[name]
    assert _fingerprint(explore(parse_program(source), bounds)) == fingerprint


def test_violation_inside_a_loop_reports_its_first_schedule():
    source, bounds, _ = _SMALL_PROGRAMS["loop_assert"]
    ex = explore(parse_program(source), bounds)
    t1 = "main/main.0#0"
    first_pass = ["main: lock(a) @ main.3", "main: lock(m_g) @ main.4",
                  "main: unlock(a) @ main.7", "main: assert#0(x < 1) @ main.8"]
    assert ex.violations == {0: [
        "main: t = create(t1) @ main.0", "main: i = 0 @ main.1", "main: ?(i < 2) @ main.2",
        *first_pass,
        "main: i = (i + 1) @ main.9", "main: ?(0 == 0) @ main.10", "main: ?(i < 2) @ main.2",
        f"{t1}: lock(a) @ t1.0", f"{t1}: $t0 = 1 @ t1.1", f"{t1}: lock(m_g) @ t1.2",
        f"{t1}: unlock(a) @ t1.5",
        *first_pass,
    ]}


@pytest.mark.parametrize("enabled", [True, False], ids=("enabled", "disabled"))
def test_explore_restores_the_garbage_collector(monkeypatch, enabled):
    """``explore`` runs with the cyclic collector off and leaves it as it
    found it, also when the exploration raises."""
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        program = load("synth_relock")
        explore(program)
        assert gc.isenabled() == enabled

        during = []

        def binary(self, u, act, d, d1):
            during.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(TidDigestSpec, "binary", binary)
        with pytest.raises(RuntimeError, match="boom"):
            explore(program)
        assert during == [False] and gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def _reaches_itself(cfg) -> set:
    """The points of ``cfg`` from which a path of one or more edges leads
    back to them, by growing every point's reachability set to a fixpoint."""
    reach = {p: set() for p in cfg.points}
    for e in cfg.edges:
        reach[e.src].add(e.dst)
    changed = True
    while changed:
        changed = False
        for p in cfg.points:
            new_r = reach[p] | {q for d in reach[p] for q in reach[d]}
            if len(new_r) != len(reach[p]):
                reach[p] = new_r
                changed = True
    return {p for p in cfg.points if p in reach[p]}


def test_cycle_points_are_the_points_that_reach_themselves(programs, monkeypatch):
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
    import gen

    sources = list(programs.values())
    sources += [parse_program(g.source, g.name) for seed in range(3) for g in gen.generate_set(seed)]
    sources += [parse_program(source) for source, _, _ in _SMALL_PROGRAMS.values()]
    cyclic = 0
    for program in sources:
        for cfg in build_cfg(program).values():
            points = oracle._cycle_points(cfg)
            assert points == _reaches_itself(cfg), cfg
            cyclic += bool(points)
    assert cyclic >= 10
    # lowering closes every loop through a second point, so only a CFG built
    # by hand has a self-loop: a component of one point, with an edge
    p0, p1, p2 = (Point("t", i) for i in range(3))
    loop = Cfg("t", p0, [p0, p1, p2],
               [Edge(p0, Guard(TRUE_GUARD), p1), Edge(p1, Guard(TRUE_GUARD), p1),
                Edge(p1, Guard(TRUE_GUARD), p2)])
    assert oracle._cycle_points(loop) == _reaches_itself(loop) == {p1}


def test_exploration_holds_no_explorer_table(monkeypatch):
    """The moves memo and the shared-slots table die with the explorer when
    ``explore`` returns: no cycle keeps the explorer alive, and nothing the
    ``Exploration`` holds refers to either table.  Equal locksets are one
    object, so the reachable tuples do not keep one copy each."""
    kept = {}
    run = oracle._Explorer.run

    def tracked(self):
        kept["explorer"], kept["tables"] = weakref.ref(self), (self.moves, self.shared)
        return run(self)

    monkeypatch.setattr(oracle._Explorer, "run", tracked)
    was = gc.isenabled()
    gc.disable()
    try:
        ex = explore(load("joins"))
        assert kept["explorer"]() is None  # freed by reference counting alone
    finally:
        (gc.enable if was else gc.disable)()
    memo, shared = kept.pop("tables")
    assert memo and shared
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, todo = set(), [ex]
    while todo:
        o = todo.pop()
        if id(o) not in seen and not isinstance(o, opaque):
            seen.add(id(o))
            todo.extend(gc.get_referents(o))
    assert id(memo) not in seen and id(shared) not in seen and id(ex.reachable) in seen
    locksets = [rs.lockset for rs in ex.reachable]
    assert len(set(map(id, locksets))) == len(set(locksets)) > 1
