"""Lock-point invariants, solver dependencies, and cross-config monotonicity."""

from concurrel.analysis import (
    MutexKey, PointKey, check_asserts, derive_lock_invariants, preset,
    run_analysis, wrap_with_digests,
)
from concurrel.digests import DigestSpec
from concurrel.frontend import parse_program
from concurrel.solver import Solver

def test_lock_invariants_four_asserts(programs):
    res = run_analysis(programs["four_asserts"], preset("octagon"))
    invs = derive_lock_invariants(res)
    # t2 locks b then a; after the second lock g = h is available
    t2 = [iv for iv in invs if iv.point.startswith("t2") and iv.mutex == "a"]
    assert t2, invs
    assert any("g-h<=0" in iv.invariant and "h-g<=0" in iv.invariant for iv in t2)


def test_lock_invariants_lockonce(programs):
    res = run_analysis(programs["lockonce"], preset("octagon", lock_once=True))
    invs = derive_lock_invariants(res)
    t2 = [iv for iv in invs if iv.point.startswith("t2") and iv.mutex == "a"]
    assert any("h-g<=" in iv.invariant for iv in t2), t2


def test_lock_invariant_unreachable():
    src = """
    mutex a;
    thread main {
      x = 1;
      if (x < 1) { lock(a); unlock(a); }
    }
    """
    res = run_analysis(parse_program(src), preset("octagon"))
    invs = derive_lock_invariants(res)
    assert any(iv.invariant == "unreachable" for iv in invs)


def test_point_after_lock_depends_on_mutex_unknowns(programs):
    res = run_analysis(programs["lockonce"], preset("octagon"))
    cfg = res.cfgs["t2"]
    from concurrel.frontend.ast import Lock

    lock_edge = next(e for e in cfg.edges if isinstance(e.action, Lock)
                     and e.action.mutex == "a")
    key = next(k for k in res.solver.values
               if isinstance(k, PointKey) and k.point == lock_edge.dst)
    deps = res.solver.dependencies(key)
    consulted = {(k.mutex, k.cluster) for k in deps if isinstance(k, MutexKey)}
    assert ("a", frozenset({"g", "h"})) in consulted
    assert res.solver.dependencies("never-seen") == set()


def test_clusters_prove_superset_of_tids(programs):
    for name, p in programs.items():
        vt = {v.aid for v in check_asserts(run_analysis(p, preset("tids")))
              if v.verdict == "PROVEN"}
        vc = {v.aid for v in check_asserts(run_analysis(p, preset("clusters")))
              if v.verdict == "PROVEN"}
        assert vt <= vc, (name, vt, vc)


class _RejectingSpec(DigestSpec):
    """Degenerate spec: every binary combination is infeasible."""

    name = "reject"

    def binary(self, u, act, d, d1):
        return ()


def test_degenerate_spec_blocks_observing_actions(programs):
    res = run_analysis(programs["lockonce"], preset("octagon"))
    system = wrap_with_digests(res.system.base, _RejectingSpec())
    solver = Solver(system)
    solver.solve()
    # nothing flows past any lock: no point key with a non-empty lockset
    assert all(not k.lockset for k in solver.values if isinstance(k, PointKey))


def test_lock_invariant_weaker_before_stronger_lock(programs):
    # §4-style: at t2's lock(b) only g ≤ h is known; after lock(a), g = h
    res = run_analysis(programs["four_asserts"], preset("octagon"))
    invs = derive_lock_invariants(res)
    t2_b = next(iv for iv in invs if iv.point.startswith("t2") and iv.mutex == "b")
    assert "g-h<=0" in t2_b.invariant
    assert "h-g<=0" not in t2_b.invariant  # g = h only after the second lock


def test_dump_solution_independent_of_hash_seed():
    # fig_ex0's base-mode return keys hold sets of several thread ids, whose
    # iteration order follows the string-hash seed (seeds 0 and 1 differ)
    import os
    import subprocess
    import sys

    from conftest import corpus_path

    code = (
        "import sys; from concurrel.frontend import parse_program;"
        "from concurrel.analysis import preset, run_analysis;"
        "from concurrel.analysis.reporting import dump_solution;"
        "p = parse_program(open(sys.argv[1]).read());"
        "sys.stdout.write(dump_solution(run_analysis(p, preset('octagon'))))"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    texts = [
        subprocess.run([sys.executable, "-c", code, corpus_path("fig_ex0")],
                       env={**env, "PYTHONHASHSEED": seed}, capture_output=True,
                       text=True, check=True).stdout
        for seed in ("0", "1")
    ]
    assert "[ret (frozenset({" in texts[0]
    assert texts[0] == texts[1]
