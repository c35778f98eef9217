"""Bounded exploration: semantics, determinism, and sanity counts."""

import hashlib
import os

import pytest

from concurrel.analysis.keys import digest_text
from concurrel.digests import LockOnceDigest, TidDigestSpec
from concurrel.frontend import Join, Lock, action_str, parse_program
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


@pytest.mark.parametrize("spec, program, action, report", [
    (LockOnceDigest, "synth_relock", Lock, "lock-once digest rejects feasible lock"),
    (TidDigestSpec, "joins", Join, "tid digest rejects feasible join"),
], ids=("lockonce-relock", "tid-join"))
def test_digest_replay_reports_rejections_of_the_analyzer_specs(
        monkeypatch, spec, program, action, report):
    """The oracle replays the analyzer's own ``binary``: when a spec rejects
    an action the program performs (here every join, and every re-lock,
    also the copy wrappers' locks of m_g), the oracle reports that action."""
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
}


def test_oracle_output_is_pinned(explorations, monkeypatch):
    """A change inside the oracle must not change a single explored state,
    schedule or reachable tuple."""
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
    import gen

    assert {n: _fingerprint(ex) for n, ex in explorations.items()} == _CORPUS_FINGERPRINTS
    programs = {n: load(n) for n in ("intro_cluster", "tid_loop")}
    programs.update((g.name, parse_program(g.source, g.name)) for g in gen.generate_set(0))
    capped = ExploreBounds(max_total_states=5_000)
    got = {n: _fingerprint(explore(p, capped)) for n, p in programs.items()}
    assert got == _CAPPED_FINGERPRINTS
