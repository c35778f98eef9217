"""Bounded exploration: semantics, determinism, and sanity counts."""

from concurrel.frontend import parse_program
from concurrel.oracle import ExploreBounds, explore

from conftest import load

R_TID, R_POINT, R_LOCKSET, R_LOCALS, R_GLOBALS = range(5)


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
    exit_point = max(rs[R_POINT] for rs in ex.reachable if rs[R_POINT].template == "main")
    assert {ex.global_store(rs)["g"] for rs in ex.reachable if rs[R_POINT] == exit_point} == {1, 2}


def test_fig_ex0_reaches_both_write_orders():
    p = load("fig_ex0")
    ex = explore(p)
    final = {p2 for c in explore_points(ex) for p2 in [c]}
    exit_point = max(pt.idx for pt in  # main's structural exit
                     {rs[R_POINT] for rs in ex.reachable if rs[R_POINT].template == "main"})
    g_at_exit = {
        dict(zip(ex.gvars, rs[R_GLOBALS]))["g"]
        for rs in ex.reachable
        if rs[R_POINT].template == "main" and rs[R_POINT].idx == exit_point
    }
    assert {1, 2} <= g_at_exit


def explore_points(ex):
    return {rs[R_POINT] for rs in ex.reachable}


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
    finals = {dict(zip(ex.lvars, rs[R_LOCALS]))["x"]
              for rs in ex.reachable if rs[R_POINT].idx == 1}
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
