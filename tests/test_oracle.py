"""Bounded exploration: semantics, determinism, and sanity counts."""

import dataclasses
import gc
import hashlib
import os
import types
import weakref

import pytest

from concurrel import oracle
from concurrel.analysis.keys import digest_text
from concurrel.digests import LockOnceDigest, TidDigestSpec
from concurrel.frontend import Create, Join, Lock, action_str, build_cfg, parse_program
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


def test_a_state_reached_twice_is_explored_once():
    """The ``lock(a)`` detour of ``x == 0`` comes back to the thread and
    shared state that the direct path reaches; the second pop of that state
    is skipped, so no state is counted twice (28 without the check)."""
    p = parse_program("mutex a, b;\n"
                      "thread main {\n"
                      "  lock(a); unlock(a);\n"
                      "  x = ?;\n"
                      "  if (x == 0) { lock(a); unlock(a); }\n"
                      "  x = 0;\n"
                      "  y = 1;\n"
                      "  lock(b); unlock(b);\n"
                      "}")
    ex = explore(p)
    assert not ex.truncated
    assert (ex.states, ex.schedules) == (27, 1)


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
     (433, "154281890a9ac704")),
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
    assert ex.truncated_by == {"max_threads"} and ex.states == 1_202


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fingerprint(ex) -> tuple:
    """(kept, free).  kept holds what any complete exploration of the same
    interleavings reaches, whatever the states it goes through: the count
    and a hash-seed-independent hash of the reachable tuples, the bounds
    hit, and a hash of the violated assert ids, the set of digest
    infeasibilities, the thread-id abstractions and the global values.  It
    also holds the schedules, which follow the definition of a state: they
    count distinct final states, so they fall when a state drops a field
    (as a finished thread drops its dead ones).  free holds what follows
    the explored states: their count, the number of infeasibility reports
    (one per take) and a hash of the violations' schedules."""
    kept = [str(aid) for aid in sorted(ex.violations)]
    kept += sorted(set(ex.digest_infeasibilities))
    kept += [f"{t}: {digest_text(a)}" for t, a in sorted(ex.tid_abstractions.items())]
    kept += [f"{g}: {sorted(vs)}" for g, vs in sorted(ex.global_values.items())]
    schedules = [f"{aid}: {' | '.join(s)}" for aid, s in sorted(ex.violations.items())]
    return ((ex.schedules, len(ex.reachable), sorted(ex.truncated_by),
             _sha("\n".join(sorted(digest_text(rs) for rs in ex.reachable))), _sha("\n".join(kept))),
            (ex.states, len(ex.digest_infeasibilities), _sha("\n".join(schedules))))


# ((schedules, reachable, truncated_by, reachable hash, kept facts' hash),
#  (states, infeasibility reports, violation schedules' hash))
_CORPUS_FINGERPRINTS = {
    "ancestor": (
        (2, 40, [], '46e049739400d21b', '40ba0212f5e2f585'),
        (74, 0, 'e3b0c44298fc1c14')),
    "example8": (
        (40, 613, [], '6b364a3bbfb79934', 'b4fe30d03c6f5ba1'),
        (1628, 0, 'e3b0c44298fc1c14')),
    "fig_ex0": (
        (2, 25, [], 'af25daddbae596f7', '3964358df5119bb0'),
        (31, 0, 'e3b0c44298fc1c14')),
    "four_asserts": (
        (32, 266, [], '6c7fa2a40ddd20ad', '328e901b23a97753'),
        (865, 0, 'e3b0c44298fc1c14')),
    "intro_cluster": (
        (243, 5542, [], '754f05133c07338d', '465770c605d05438'),
        (17418, 0, 'e3b0c44298fc1c14')),
    "joins": (
        (4, 127, [], 'cb62e0e4a68e3926', 'd4967164768bc8a8'),
        (198, 0, 'e3b0c44298fc1c14')),
    "lockonce": (
        (2, 27, [], '3a774c66b3eb89e3', '9b7958208e80b3e8'),
        (49, 0, 'e3b0c44298fc1c14')),
    "lockonce_strict": (
        (2, 27, [], '3a774c66b3eb89e3', '9b7958208e80b3e8'),
        (49, 0, 'e3b0c44298fc1c14')),
    "one_element": (
        (6, 168, [], '95a49b486cbf0a9e', 'c7a099e1ce12bfd5'),
        (643, 0, 'e3b0c44298fc1c14')),
    "synth_counter": (
        (6, 45, [], '3bdb711f070f9ad3', '21cc93d6bf01a6f9'),
        (101, 0, 'e3b0c44298fc1c14')),
    "synth_infer": (
        (3, 33, [], '530247628b18c7ad', 'c31d1410fd92d338'),
        (68, 0, 'e3b0c44298fc1c14')),
    "synth_mix": (
        (3, 45, [], '9a866e7a2c2ef144', '06bde853bdec22c8'),
        (84, 0, 'e3b0c44298fc1c14')),
    "synth_relock": (
        (1, 18, [], 'c4c091dbfa3ef08e', 'b9bf33e7d6fbb55d'),
        (32, 0, 'e3b0c44298fc1c14')),
    "tid_loop": (
        (142, 131, ['max_threads'], '0981ca7724ad9c7b', '3eeb883d17bdb0be'),
        (1202, 0, 'e3b0c44298fc1c14')),
}

# at ExploreBounds(max_total_states=5_000); intro_cluster stops at that cap,
# so it also pins the order in which states are explored
_CAPPED_FINGERPRINTS = {
    "intro_cluster": (
        (78, 2353, ['max_total_states'], '5153a39a839eb6a0', '465770c605d05438'),
        (5001, 0, 'e3b0c44298fc1c14')),
    "tid_loop": (
        (142, 131, ['max_threads'], '0981ca7724ad9c7b', '3eeb883d17bdb0be'),
        (1202, 0, 'e3b0c44298fc1c14')),
    "scaled_s0_p0": (
        (6, 767, [], '56fd7b556774164d', '8ca3692296dcbd96'),
        (818, 0, '3cf85fffdc4324d2')),
    "scaled_s0_p1": (
        (1, 675, [], '0dd1bc5466b40a58', '3988f7a23a2aaeb9'),
        (514, 0, 'a16fb28782a10966')),
    "scaled_s0_p2": (
        (1, 675, [], '592119c9b6d05add', 'ec3307c0d906f6d5'),
        (514, 0, 'a920c42acbb9d005')),
    "scaled_s0_p3": (
        (1, 675, [], '1230ab1e4e4d294b', 'c60dc1c65a6d4f76'),
        (514, 0, '128b8254ab07d9a2')),
    "scaled_s1_p0": (
        (6, 767, [], 'f96ba600fa9997f1', '916a0b9bdba99821'),
        (818, 0, '4c05e9b3af4aae32')),
    "scaled_s1_p1": (
        (1, 675, [], '86ef178c8db4ddbc', 'fb4da16252b1a1de'),
        (514, 0, '4ee200241b5ffd63')),
    "scaled_s1_p2": (
        (1, 675, [], '23245e900a364cf1', '94007989b1c632bd'),
        (514, 0, '47d7302394705bfc')),
    "scaled_s1_p3": (
        (1, 675, [], '1ed5fe5d4f53db49', '44d1e6aa750c5165'),
        (514, 0, '8ffb99414f69868f')),
    "scaled_s2_p0": (
        (6, 767, [], '2157d84db7dc9646', 'ac7cd9d1db9e9e7c'),
        (818, 0, 'd93127ee77b71d41')),
    "scaled_s2_p1": (
        (1, 675, [], 'd44781a40b5fdb6c', '0a3dd9e36cd98dee'),
        (514, 0, 'eaa89df2ebf91107')),
    "scaled_s2_p2": (
        (1, 675, [], '04aed0c1282cf6d7', 'fba7fc6ab0e3619f'),
        (514, 0, 'efcb7c48c49a2343')),
    "scaled_s2_p3": (
        (1, 675, [], 'f597305f59b0737a', 'e5e5d11a1bff80de'),
        (514, 0, 'dbca2b2a30e92c65')),
}


def test_oracle_output_is_pinned(explorations, monkeypatch):
    """A change inside the oracle must not change what a complete
    exploration reaches (the kept part of each fingerprint); the explored
    states, and so the capped explorations, are pinned as well."""
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
# (source, bounds, fingerprint as in _CORPUS_FINGERPRINTS).
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
        """, ExploreBounds(),
        ((2, 51, [], '137199b92f1e1976', '8f097b755fbc368c'), (66, 0, '2d670de89ec74a85'))),
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
        ((4, 47, ['max_steps_per_thread'], 'c40334f0c1b1396f', 'eeff1610608a0d8e'),
         (98, 0, 'e3b0c44298fc1c14'))),
    # a havoc whose values split at a guard
    "havoc_guard": ("""
        thread main {
          x = ?;
          if (x > 0) { y = x; } else { y = 0 - x; }
          assert(y != 1);
        }
        """, ExploreBounds(),
        ((3, 16, [], 'd19631eb9c3c912c', '296867e984238812'), (17, 0, 'a5506cf1f763acee'))),
    # a product of havoced values, violated for x = 2 only
    "havoc_product": ("""
        thread main {
          x = ?;
          y = x * x;
          if (y > 3) { assert(x != 2); }
        }
        """, ExploreBounds(),
        ((3, 14, [], '57797fbe97cbddf7', '296867e984238812'), (15, 0, '6de9c50abdc8b8cc'))),
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
        """, ExploreBounds(),
        ((7, 36, [], 'ba995b7c2392e6d2', 'f55cb0278fdbaa7a'), (49, 0, 'e3b0c44298fc1c14'))),
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
        """, ExploreBounds(),
        ((3, 24, [], '5049a0001a991bfd', 'f45aade1f87a36a2'), (28, 0, 'e3b0c44298fc1c14'))),
    # t1 returns each havoc value, so one join reads one of several returned
    # states of t1
    "join_havoc_return": ("""
        global g;
        mutex a;
        protect g with a;
        thread main {
          t = create(t1);
          lock(a);
          g = 1;
          unlock(a);
          r = join(t);
          assert(r != 2);
        }
        thread t1 { x = ?; return x; }
        """, ExploreBounds(),
        ((3, 19, [], 'ee3ee8e040125f9f', '8f097b755fbc368c'), (28, 0, '4ec480b1afa12802'))),
    # main joins 1, which names no thread, so the join never fires and main
    # never reaches its assert
    "join_no_thread": ("""
        global g;
        mutex a;
        protect g with a;
        thread main {
          x = create(t1);
          lock(a);
          g = 1;
          unlock(a);
          x = 1;
          y = join(x);
          assert(y == 0);
        }
        thread t1 { lock(a); g = 2; unlock(a); return 0; }
        """, ExploreBounds(),
        ((2, 19, [], '9f24446d9f7ae470', '36c175012f926abe'), (32, 0, 'e3b0c44298fc1c14'))),
    # t1 reads 0 (before main's writes) or 1 (between them) and then
    # overwrites it, so two states of t1 right after its unlock lead to one
    # final state, with the same globals and last unlocks
    "converge_end": ("""
        global g;
        mutex a;
        protect g with a;
        thread main {
          t = create(t1);
          lock(a);
          g = 1;
          unlock(a);
          lock(a);
          g = 2;
          unlock(a);
        }
        thread t1 { lock(a); x = g; unlock(a); x = 0; y = x + 1; }
        """, ExploreBounds(),
        ((2, 28, [], '473a35fdec6e4c4a', '36c175012f926abe'), (53, 0, 'e3b0c44298fc1c14'))),
}


@pytest.mark.parametrize("name", sorted(_SMALL_PROGRAMS))
def test_small_program_explorations_are_pinned(name):
    source, bounds, fingerprint = _SMALL_PROGRAMS[name]
    assert _fingerprint(explore(parse_program(source), bounds)) == fingerprint


def _full_finished(t: tuple, status: int, retval=None) -> tuple:
    """``oracle._finished`` without the reduction: the finished thread
    keeps every field."""
    if status == oracle.RETURNED:
        return t[:oracle.POINT] + (None, t[oracle.LOCALS], oracle.RETURNED, retval) + t[oracle.DIGS:]
    return oracle._set(t, oracle.STATUS, oracle.JOINED)


def test_finished_threads_drop_only_dead_fields(programs, explorations, monkeypatch):
    """A finished thread keeps only what a later step reads, so exploring
    with threads that keep every field reaches the same rows, violations
    (with their schedules), digest infeasibilities, thread ids, global
    values and bounds, through no fewer states and final states."""
    cases = [(program, ExploreBounds(), explorations[n]) for n, program in programs.items()]
    for source, bounds, _ in _SMALL_PROGRAMS.values():
        program = parse_program(source)
        cases.append((program, bounds, explore(program, bounds)))
    monkeypatch.setattr(oracle, "_finished", _full_finished)
    fewer = 0
    for program, bounds, ex in cases:
        full = explore(program, bounds)
        assert ex.reachable == full.reachable and ex.violations == full.violations
        assert set(ex.digest_infeasibilities) == set(full.digest_infeasibilities)
        assert ex.tid_abstractions == full.tid_abstractions
        assert ex.global_values == full.global_values and ex.truncated_by == full.truncated_by
        assert ex.states <= full.states and ex.schedules <= full.schedules
        fewer += ex.states < full.states
    assert fewer >= 5


def _assert_replayable(program, schedule: list[str]) -> None:
    """Each step of ``schedule`` (``tid: label`` lines, as in
    ``Exploration.violations``) starts where its thread's previous step
    ended, a thread's first step at its template's start, and a child's
    first step after the create that names it."""
    cfgs = build_cfg(program)
    steps = {}  # label -> (edge, the points where the step can end)
    for cfg in cfgs.values():
        for e in cfg.edges:
            end = e.dst
            if isinstance(e.action, Lock) and program.is_atomicity_mutex(e.action.mutex):
                (access,) = cfg.out_edges(e.dst)  # an atomic copy ends after its unlock
                (unlock,) = cfg.out_edges(access.dst)
                end = unlock.dst
            steps.setdefault(f"{action_str(e.action)} @ {e.src}", (e, set()))[1].add(end)
    at = {"main": {cfgs[program.entry].start}}  # per thread, where its next step starts
    for line in schedule:
        tid, label = line.split(": ", 1)
        e, ends = steps[label]
        assert tid in at and e.src in at[tid], (line, schedule)
        at[tid] = ends
        if isinstance(e.action, Create):
            prefix = f"{tid}/{e.src}#"
            child = f"{prefix}{sum(1 for t in at if t.startswith(prefix))}"
            at[child] = {cfgs[e.action.template].start}


def test_violation_schedules_are_interleavings(programs, explorations):
    cases = [(programs[n], ex) for n, ex in explorations.items()]
    for source, bounds, _ in _SMALL_PROGRAMS.values():
        program = parse_program(source)
        cases.append((program, explore(program, bounds)))
    schedules = [(p, s) for p, ex in cases for s in ex.violations.values()]
    assert len(schedules) >= 4
    for program, schedule in schedules:
        _assert_replayable(program, schedule)


def test_violation_inside_a_loop_reports_its_first_schedule():
    source, bounds, _ = _SMALL_PROGRAMS["loop_assert"]
    ex = explore(parse_program(source), bounds)
    t1 = "main/main.0#0"
    first_pass = ["main: lock(a) @ main.3", "main: lock(m_g) @ main.4",
                  "main: unlock(a) @ main.7", "main: assert#0(x < 1) @ main.8"]
    assert ex.violations == {0: [
        "main: t = create(t1) @ main.0", "main: i = 0 @ main.1", "main: ?(i < 2) @ main.2",
        *first_pass[:3],
        f"{t1}: lock(a) @ t1.0", f"{t1}: $t0 = 1 @ t1.1", f"{t1}: lock(m_g) @ t1.2",
        f"{t1}: unlock(a) @ t1.5",
        first_pass[3],
        "main: i = (i + 1) @ main.9", "main: ?(0 == 0) @ main.10", "main: ?(i < 2) @ main.2",
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


# Loop shapes whose visit counters a wrong ``Cfg.loops`` would change:
# (source, bounds).
_LOOP_SHAPES = {
    # the head passed at most once: the body always returns
    "returning_body": ("thread main { x = ?; while (x < 2) { return x; } assert(x >= 2); }",
                       ExploreBounds()),
    # the same head, then a merge with a path that never passed it
    "returning_body_then_merge": ("""
        thread main { x = ?; if (x > 0) { while (x < 2) { return x; } x = 0; }
                      y = x + 1; assert(y >= 1); }""", ExploreBounds()),
    "return_in_if": ("""
        thread main { i = ?; while (i < 3) { if (i == 1) { return i; } i = i + 1; } }""",
                     ExploreBounds()),
    # a point inside the loop that only leads to a return, then a merge
    "return_after_nested_if": ("""
        thread main { i = ?; while (i < 5) {
            if (i > 0) { if (i > 1) { i = 1; } return i; }
            i = i + 1; } }""", ExploreBounds()),
    "branching_two_threads": ("""
        global g;
        mutex a;
        protect g with a;
        thread t { i = 0; while (i < 2) {
            lock(a); if (i == 0) { g = 1; } else { g = 2; } unlock(a); i = i + 1; } }
        thread main { u = create(t); j = 0; while (j < 2) {
            lock(a); x = g; unlock(a); if (x == 1) { j = j + 1; } else { j = j + 2; } } }""",
                              ExploreBounds()),
    "cut_by_visits": ("thread main { x = ?; while (x < 100) { x = x + 1; } }",
                      ExploreBounds(max_steps_per_thread=3)),
}


def test_loop_points_keep_every_exploration(programs, explorations, monkeypatch):
    """Lowering's ``Cfg.loops`` holds every point that lies on a cycle and
    no reachable one that does not: exploring with ``loops`` set to the
    points that reach themselves changes no fingerprint, states and
    schedules included."""
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
    import gen

    cases = [(program, ExploreBounds(), explorations[n]) for n, program in programs.items()]
    sources = [(parse_program(g.source, g.name), ExploreBounds())
               for seed in range(3) for g in gen.generate_set(seed)]
    sources += [(parse_program(source), bounds) for source, bounds, _ in _SMALL_PROGRAMS.values()]
    sources += [(parse_program(source), bounds) for source, bounds in _LOOP_SHAPES.values()]
    cases += [(program, bounds, explore(program, bounds)) for program, bounds in sources]
    cut = 0
    for program, bounds, ex in cases:
        exact = {n: dataclasses.replace(cfg, loops=_reaches_itself(cfg))
                 for n, cfg in build_cfg(program).items()}
        assert _fingerprint(explore(program, bounds, exact)) == _fingerprint(ex)
        cut += "max_steps_per_thread" in ex.truncated_by
    assert cut >= 2


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
