"""Lock-point invariants, the reads behind a lock, and cross-config monotonicity."""

from concurrel.analysis import (
    MutexKey, PointKey, check_asserts, derive_lock_invariants,
    preset, run_analysis,
)
from concurrel.digests import DigestSpec, TidDigestSpec
from concurrel.frontend import parse_program
from concurrel.frontend.ast import Join
from concurrel.solver import Solver, View

from conftest import with_spec
from domain_utils import use_kernel

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


class _RejectingTidSpec(TidDigestSpec):
    """Thread-id digests under which every binary combination is infeasible."""

    binary = _RejectingSpec.binary


def test_degenerate_spec_blocks_observing_actions(programs):
    """Both constraint systems ask their spec whether a lock or a join may
    combine two traces: when ``binary`` rejects every combination, no point
    key has a non-empty lockset or lies past a join."""
    joining = parse_program("thread main { x = create(t1); y = join(x); z = 1; }\n"
                            "thread t1 { return 0; }")
    specs = {"octagon": _RejectingSpec, "tids": _RejectingTidSpec, "clusters": _RejectingTidSpec}
    for program in (programs["lockonce"], programs["joins"], joining):
        for name, spec in specs.items():
            res = run_analysis(program, preset(name))
            joined = {e.dst for cfg in res.cfgs.values() for e in cfg.edges
                      if isinstance(e.action, Join)}

            def past_lock_or_join(values):
                return [k for k in values
                        if isinstance(k, PointKey) and (k.lockset or k.point in joined)]

            assert past_lock_or_join(res.solver.values), (program.filename, name)
            solver = Solver(with_spec(res.system, spec()))
            solver.solve()
            assert past_lock_or_join(solver.values) == [], (program.filename, name)


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


# Solver counts summed over the 14 corpus programs, per configuration of
# the reference dumps: (evaluations, constraints, widenings).
CORPUS_COUNTS = {
    "interval": (1296, 559, 26),
    "octagon": (1441, 559, 27),
    "tids": (1413, 599, 28),
    "clusters": (1379, 599, 28),
    "tids-eqconst": (1142, 599, 0),
}


def test_dump_solution_matches_reference_dumps(monkeypatch):
    """The corpus rows of the benchmark's reference dumps (14 programs × 5
    configurations) and the rows of one scaled program (15 int variables ×
    octagon, tids, clusters): a refactor must leave ``dump_solution``
    byte-identical, compared through its recorded sha256, and the solver
    must iterate as before, compared through the corpus sums of its counts.
    Both hold under the closure kernel in use and, where that is the
    compiled one, under the numpy kernel too."""
    import os

    from concurrel.domains import _closure_py, octagon

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
    for kernel in dict.fromkeys([octagon._kernel, _closure_py]):
        use_kernel(monkeypatch, kernel)
        bad = []
        counts = {cfg: (0, 0, 0) for cfg in workloads.CORPUS_CONFIGS}
        for (workload, _, prog, cfg), want in sorted(rows.items()):
            # the scaled presets are corpus configurations of the same name
            _, result, _ = workloads.analyze(sources[prog], prog, workloads.CORPUS_CONFIGS[cfg])
            if workloads.dump_digest(result) not in want:
                bad.append((prog, cfg))
            if workload == "corpus":
                st = result.stats()
                counts[cfg] = tuple(map(sum, zip(
                    counts[cfg], (st["evaluations"], st["constraints"], st["widenings"]))))
        assert not bad, kernel.__name__
        assert counts == CORPUS_COUNTS, kernel.__name__


# sha256 of ``dump_solution`` under base mode with the lock-once digest, the
# one base-mode digest whose ``unary``, ``binary`` and ``new_thread`` change
# it: the reference dumps run base mode with the trivial digest only, so they
# cannot see an effect keyed with the wrong digest.
LOCK_ONCE_DUMPS = {
    ("ancestor", "interval"):
        "e249469260d2b15b4db225431797632936cab7d22ea9c5171d90d425b298bce6",
    ("ancestor", "octagon"):
        "b3100e9dcb63349d5351ccae5569bcc3cc8861572ebba0bf914aececaa2649d3",
    ("example8", "interval"):
        "00e8f831df01d85312d9e16f063c4bf37eb629b67ed0512d84e180cfcdca6ddc",
    ("example8", "octagon"):
        "a07d8ec0172704a3db586101d661560b23bcc855d4d702adf03a92f2d75367c3",
    ("fig_ex0", "interval"):
        "7e5f9b028bd7833c4320e6f45ca2429c12b914b43151d29ced11a2d70938a665",
    ("fig_ex0", "octagon"):
        "7e5f9b028bd7833c4320e6f45ca2429c12b914b43151d29ced11a2d70938a665",
    ("four_asserts", "interval"):
        "ec5bc96ddfd39dc3c301a0cac1d97c3e6e2ed613d46f27989b347c1dffc4cae6",
    ("four_asserts", "octagon"):
        "7cb1e15f77b3bdd8a86c395aece452b774d84a5f5b89cabfba4a9f2095cab5ea",
    ("intro_cluster", "interval"):
        "a810dd8b465ca3896bb5b5605f5c1a885a8bcb104a4a86ea0376fba125596ee4",
    ("intro_cluster", "octagon"):
        "d85950e1eff32616cf201a36f0de493d724ed2a37a923fbc3f50ab9a59ce32dc",
    ("joins", "interval"):
        "f7d901b3561004dea779d573f303fa7b14c129ea09016c7c82d87c057122d6b1",
    ("joins", "octagon"):
        "81d2a6c3d5c5133c25e41576943efe355a26a13bad6d217713d21ae7edac74ed",
    ("lockonce", "interval"):
        "5af75a84be879670126b48d56fa3c583ad20f4250d608d76948770bb08de7370",
    ("lockonce", "octagon"):
        "884c32253024b2aaef1761b29f4ad3e4a03d77fc0dfb8b3191f00bde0f2ffae5",
    ("lockonce_strict", "interval"):
        "5af75a84be879670126b48d56fa3c583ad20f4250d608d76948770bb08de7370",
    ("lockonce_strict", "octagon"):
        "884c32253024b2aaef1761b29f4ad3e4a03d77fc0dfb8b3191f00bde0f2ffae5",
    ("one_element", "interval"):
        "b51f33c5601a2e5c347b2404accbc7a433c0518eade808bd57e1593403c62f08",
    ("one_element", "octagon"):
        "3024a69e9c640734cc21879d74969a948ef74e8a788eac5ca2f5e51c8462b356",
    ("synth_counter", "interval"):
        "201db5985bd01060714ace1402be3364d72152a3611c39d8cd3038aaf99dc637",
    ("synth_counter", "octagon"):
        "f39597502abe413f65e2a61996041d6712d36b402a4ca22a2c5a3bea65237650",
    ("synth_infer", "interval"):
        "96687640f52dcfa2329a6d2b172d91ad67d7f6194115bc86b20051202cfdf770",
    ("synth_infer", "octagon"):
        "5fda6841af9a362336a239ecc342f6ed03d16542d95f5e45a1b3d4a9cefd3994",
    ("synth_mix", "interval"):
        "20a62939c6b5a2a36939ac4bdb29b542f542e3d6d2d930cca0871d5bde4adb7c",
    ("synth_mix", "octagon"):
        "c76454cf56300a80296c3437f97f25f7ff29f56f3a5a6abc92e5444793228015",
    ("synth_relock", "interval"):
        "8060a0add853ded41d7b7d8174ceff5f114f4f83fb68dcd1df9736f6c308dbe0",
    ("synth_relock", "octagon"):
        "9879ad9f032b7634824fdd674160b691906d9d3857288ddff6724936c693a75c",
    ("tid_loop", "interval"):
        "db28f8fc53aca7d27a0ec7360d8eab667507a8e24667b12e48eca92f7dfd0297",
    ("tid_loop", "octagon"):
        "2da6d4a696c3e9918cd0478be58920b64e72662c4fa2cfed378c44645e383c24",
}


def _unpinned_dumps(programs, pins: dict, **overrides) -> list:
    """The (program, preset) keys of ``pins`` whose ``dump_solution`` under
    the preset with ``overrides`` has another sha256."""
    import hashlib

    from concurrel.analysis import dump_solution

    bad = []
    for (prog, name), want in sorted(pins.items()):
        result = run_analysis(programs[prog], preset(name, **overrides))
        if hashlib.sha256(dump_solution(result).encode()).hexdigest() != want:
            bad.append((prog, name))
    return bad


def test_lock_once_dumps_are_pinned(programs):
    assert len(LOCK_ONCE_DUMPS) == 2 * len(programs)
    assert not _unpinned_dumps(programs, LOCK_ONCE_DUMPS, lock_once=True)


# sha256 of ``dump_solution`` under tids and clusters with
# ``--exclude-ancestor-writes``, whose ancestor clause of ``ImprovedSystem.admission``
# and uncollapsed digest keys no reference dump runs.
EXCLUDE_ANCESTOR_DUMPS = {
    ("ancestor", "tids"):
        "835cae6cec2723dc4755579d6125d9f185ee26019a88165d8aa0761a2fd7727d",
    ("ancestor", "clusters"):
        "3135b4c2a28db26601c9f8c9c692dd16b0d48280b352bec53c1613abde665129",
    ("example8", "tids"):
        "2dfcac3f4b516ae76a2257e0b24f7823ba548e2f5aeaca764a1ab03d5d0c542c",
    ("example8", "clusters"):
        "3c72450a94e418311533367f051c0609422bc2510d85ea8b7fc54dbb626a288d",
    ("fig_ex0", "tids"):
        "aa11ec0c0ff2f1b777e4c064e6e9ae079dd60d625beec5fbecb09a307aac64e7",
    ("fig_ex0", "clusters"):
        "aa11ec0c0ff2f1b777e4c064e6e9ae079dd60d625beec5fbecb09a307aac64e7",
    ("four_asserts", "tids"):
        "1fb59e57c951a8afd0be1dc0bcff62ed59fd93e6c415d5dc7efce694558d5839",
    ("four_asserts", "clusters"):
        "59e0c16826a7d594f7878549d6507e42ca11547b984514c47d5ca076c79d846e",
    ("intro_cluster", "tids"):
        "94461beb59dbe8208c3aa5e3d028d2829a142df4f29b683dd47601afc3810d68",
    ("intro_cluster", "clusters"):
        "e06f5d9d037a5acaac7a46f8cb5f035fdcd65e1cbe80907e3ede0712a6605d85",
    ("joins", "tids"):
        "81404ac5cd1ef5d390e043210c3c645ff30446bb499f993d5d7fd840119e1647",
    ("joins", "clusters"):
        "5c74d46b5474fb79558289896ccda9a8bd376a9761beb41724356ad3b023d257",
    ("lockonce", "tids"):
        "8c1456c6bb29d0c1b259c1d3fdbfb456af62e31b50713d795ba4b635a054aa90",
    ("lockonce", "clusters"):
        "9f7e4a8f0fd66eea0be85b007c7986f67e87975be49c8368b57f8a98565b4af1",
    ("lockonce_strict", "tids"):
        "8c1456c6bb29d0c1b259c1d3fdbfb456af62e31b50713d795ba4b635a054aa90",
    ("lockonce_strict", "clusters"):
        "9f7e4a8f0fd66eea0be85b007c7986f67e87975be49c8368b57f8a98565b4af1",
    ("one_element", "tids"):
        "5d7780fa0819296ef0a74e046d651d60cbb0d3615e00a5995b72875fd1811fac",
    ("one_element", "clusters"):
        "34d0d9300fcfc981ecec29f4580573aff72485b17495b7df7775b7d50c5651cd",
    ("synth_counter", "tids"):
        "1ba240b8dff957049e22856753747d1241e9dbc20786fe084de964b85ae753a2",
    ("synth_counter", "clusters"):
        "1ba240b8dff957049e22856753747d1241e9dbc20786fe084de964b85ae753a2",
    ("synth_infer", "tids"):
        "bf2623c1975eb32ae3cff477718c84c147a5045026583545c90f957bb02abee2",
    ("synth_infer", "clusters"):
        "f7def7e7d7d70364af6cfaa8d812e5506c157d04737c1774546d07afecfac33e",
    ("synth_mix", "tids"):
        "afd33ffeb693efbbc6b842d1a9688988a0248a6d86ddb2994fe04dd1bea3b997",
    ("synth_mix", "clusters"):
        "bd45e6bfc3db6e8b26863c6d71c30bdb1d32ce4c60c8049ba35fd892d65a1f90",
    ("synth_relock", "tids"):
        "f01e325feb9df4316fe84695b4225bca675ca5b3df252e1b83678a3ff89ae8c8",
    ("synth_relock", "clusters"):
        "f01e325feb9df4316fe84695b4225bca675ca5b3df252e1b83678a3ff89ae8c8",
    ("tid_loop", "tids"):
        "dcd7b21d3c1a8808724970d57b1b2b46050ae531dfceb2fb7a3dde562fbeae0c",
    ("tid_loop", "clusters"):
        "dcd7b21d3c1a8808724970d57b1b2b46050ae531dfceb2fb7a3dde562fbeae0c",
}


def test_exclude_ancestor_dumps_are_pinned(programs):
    assert len(EXCLUDE_ANCESTOR_DUMPS) == 2 * len(programs)
    assert not _unpinned_dumps(programs, EXCLUDE_ANCESTOR_DUMPS, exclude_ancestor_writes=True)


# sha256 of ``dump_solution`` of the generated program with 8 workers, 2
# mutexes and 2 globals each (``perfbench/gen.py``, seed 1), under tids and
# clusters.  Each of its mutexes is published under 4 digests and 8
# threads return, against at most 2 of each in the benchmark's 2-worker
# programs, so this pins the per-(constraint, digest) caches of the lock
# and join constraints.
MANY_DIGEST_DUMPS = {
    "tids": "c82c0d86ce293430fc4482a98dc4e356fcca948d7bfebbe984899f36a15b8e14",
    "clusters": "3011b7210a8a2794a5578c33e9c4bfe0914bb38fb7eb14a16e11ffa9ff873da6",
}


def test_many_digest_dumps_are_pinned(monkeypatch):
    import hashlib
    import os

    from concurrel.analysis import dump_solution

    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    import gen

    g = gen.generate(1, 0, gen.Shape(workers=8, mutexes=2, globals_per_mutex=2))
    program = parse_program(g.source, g.name)
    for name, want in MANY_DIGEST_DUMPS.items():
        result = run_analysis(program, preset(name))
        assert hashlib.sha256(dump_solution(result).encode()).hexdigest() == want, name
        assert result.solver.check_post_solution() == [], name
