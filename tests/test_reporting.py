"""Lock-point invariants, the reads behind a lock, and cross-config monotonicity."""

from concurrel.analysis import (
    MutexKey, PointKey, WrappedBaseSystem, check_asserts, derive_lock_invariants,
    preset, run_analysis,
)
from concurrel.digests import DigestSpec
from concurrel.frontend import parse_program
from concurrel.solver import Solver, View

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
    consulted = set()
    for c in res.solver.constraints:  # the reads of every constraint writing key
        view = View(res.solver)
        if key in c.rhs(view):
            consulted |= {(k.mutex, k.cluster) for k in view.reads if isinstance(k, MutexKey)}
    assert ("a", frozenset({"g", "h"})) in consulted


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
        return None


def test_degenerate_spec_blocks_observing_actions(programs):
    res = run_analysis(programs["lockonce"], preset("octagon"))
    system = WrappedBaseSystem(res.system.base, _RejectingSpec())
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
    # Key digests holding frozensets of several elements, whose iteration
    # order follows the string-hash seed; each pair of seeds differed before
    # every such frozenset was rendered sorted.  fig_ex0: base-mode return
    # keys (sets of thread ids); four_asserts with lock-once: mutex keys
    # (sets of mutexes); example8 with ancestor writes excluded: thread-id
    # digests (sets of create edges).
    import os
    import subprocess
    import sys

    from conftest import corpus_path

    code = (
        "import sys; from concurrel.frontend import parse_program;"
        "from concurrel.analysis import preset, run_analysis;"
        "from concurrel.analysis.reporting import dump_solution;"
        "p = parse_program(open(sys.argv[1]).read());"
        "config = preset(sys.argv[2], **{k: True for k in sys.argv[3:]});"
        "sys.stdout.write(dump_solution(run_analysis(p, config)))"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cases = [
        ("fig_ex0", ["octagon"], ("0", "1"), "[ret (frozenset({"),
        ("four_asserts", ["octagon", "lock_once"], ("1", "2"), "}, frozenset({'a', 'b'"),
        ("example8", ["tids", "exclude_ancestor_writes"], ("0", "1"),
         "frozenset({CreateEdge(point=Point(template='main', idx=0), template='t1'), "),
    ]
    for prog, args, seeds, shown in cases:
        texts = [
            subprocess.run([sys.executable, "-c", code, corpus_path(prog), *args],
                           env={**env, "PYTHONHASHSEED": seed}, capture_output=True,
                           text=True, check=True).stdout
            for seed in seeds
        ]
        assert shown in texts[0], prog
        assert texts[0] == texts[1], prog


def test_dump_solution_matches_reference_dumps(monkeypatch):
    """The corpus rows of the benchmark's reference dumps (14 programs × 5
    configurations) and the rows of one scaled program (15 int variables ×
    octagon, tids, clusters): a refactor must leave ``dump_solution``
    byte-identical, compared through its recorded sha256."""
    import os

    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    import gen
    import workloads

    sources = workloads.load_corpus(os.path.dirname(perfbench))
    scaled = gen.generate_set(0)[0]
    sources[scaled.name] = scaled.source
    refs = workloads.load_dumps()
    rows = {k: want for k, want in refs.items() if k[0] == "corpus"}
    assert len(rows) == 70
    for cfg in workloads.SCALED_CONFIGS:
        rows[("scaled", "0", scaled.name, cfg)] = refs[("scaled", "0", scaled.name, cfg)]
    bad = []
    for (_, _, prog, cfg), want in sorted(rows.items()):
        # the scaled presets are corpus configurations of the same name
        _, result, _ = workloads.analyze(sources[prog], prog, workloads.CORPUS_CONFIGS[cfg])
        if workloads.dump_digest(result) not in want:
            bad.append((prog, cfg))
    assert not bad
