"""Digest effect functions: locksets, lock-once, thread ids."""

import os

from hypothesis import given, settings, strategies as st

from concurrel.analysis.keys import MutexKey, PointKey, RetKey, render_key
from concurrel.digests import (
    AbstractTid, CreateEdge, DigestSpec, LockOnceDigest, LocksetDigest, MAIN_TID,
    TidDigestSpec, lcu_anc, may_create, may_run, tid_compose, tid_new,
)
from concurrel.frontend.ast import AssignLocal, Create, IntLit, Join, Lock, Unlock
from concurrel.frontend.cfg import Point

U = Point("main", 1)
U2 = Point("main", 2)
U3 = Point("t1", 1)
T1 = Point("t1", 0)
E1 = CreateEdge(U, "t1")
E2 = CreateEdge(U2, "t1")
E3 = CreateEdge(U3, "t1")


def test_lockset_digest_rows():
    s = LocksetDigest()
    assert s.init() == frozenset()
    assert s.binary(U, Lock("a"), frozenset(), frozenset({"a"})) == frozenset({"a"})
    assert s.unary(U, Unlock("a"), frozenset({"a", "b"})) == frozenset({"b"})
    assert s.unary(U, AssignLocal("x", IntLit(1)), frozenset({"a"})) == frozenset({"a"})
    # binary actions keep the ego component
    assert s.binary(U, Join("x", "y"), frozenset({"a"}), frozenset({"b"})) == frozenset({"a"})
    assert s.render(frozenset({"b", "a"})) == "{a,b}"


def test_lock_once_digest_rows():
    s = LockOnceDigest()
    a, b = frozenset({"a"}), frozenset({"b"})
    assert s.binary(U, Lock("a"), a, frozenset()) is None  # ego locked a, incoming never did
    assert s.binary(U, Lock("a"), frozenset(), frozenset()) == frozenset({"a"})
    assert s.binary(U, Join("x", "y"), a, b) == frozenset({"a", "b"})
    assert s.new_thread(U, T1, a) == a
    assert s.unary(U, Unlock("a"), a) == a  # lock-once never forgets


def test_tid_compose_paper_examples():
    # first create: unique id main·⟨u1,t1⟩
    assert tid_compose(MAIN_TID, E1) == AbstractTid((E1,), frozenset())
    # repeated edge in the prefix spills the tail
    i = AbstractTid((E1,), frozenset())
    i2 = tid_compose(i, E3)
    assert i2 == AbstractTid((E1, E3), frozenset())
    assert tid_compose(i2, E3) == AbstractTid((E1,), frozenset({E3}))
    # non-unique ids absorb further creates
    i3 = AbstractTid((), frozenset({E2}))
    assert tid_compose(i3, E3) == AbstractTid((), frozenset({E2, E3}))


def test_tid_compose_never_duplicates_edges():
    import random

    rng = random.Random(5)
    edges = [E1, E2, E3, CreateEdge(Point("t1", 4), "t2")]
    for _ in range(300):
        i = MAIN_TID
        for _ in range(rng.randint(0, 8)):
            i = tid_compose(i, rng.choice(edges))
            assert len(set(i.prefix)) == len(i.prefix)
            assert not (set(i.prefix) & i.spill)


def test_tid_new_uniqueness():
    # first creation at u2: unique
    d = (MAIN_TID, frozenset({E1}))
    (child, c) = tid_new(U2, T1, d)
    assert child == AbstractTid((E2,), frozenset()) and child.unique and c == frozenset()
    # creation at an edge already encountered: non-unique
    d2 = (MAIN_TID, frozenset({E1, E2}))
    (child2, _) = tid_new(U2, T1, d2)
    assert child2 == AbstractTid((), frozenset({E2})) and not child2.unique
    # creator already non-unique
    d3 = (AbstractTid((), frozenset({E2})), frozenset())
    (child3, _) = tid_new(U3, T1, d3)
    assert child3 == AbstractTid((), frozenset({E2, E3}))


def test_tid_queries():
    assert MAIN_TID.unique
    assert not AbstractTid((), frozenset({E1})).unique
    a = AbstractTid((E1, E2), frozenset())
    b = AbstractTid((E1, E3), frozenset())
    assert lcu_anc(a, b) == AbstractTid((E1,), frozenset())
    assert may_create(MAIN_TID, a)
    assert not may_create(a, MAIN_TID)


def test_may_run():
    ego = (MAIN_TID, frozenset())
    child = (AbstractTid((E1,), frozenset()), frozenset())
    # the child is definitely not started before main passes the create edge
    assert not may_run(ego, child)
    assert may_run((MAIN_TID, frozenset({E1})), child)
    # the ego's own digest is always admitted (initial trace, own unlocks)
    assert may_run(ego, ego)
    nonuniq = (AbstractTid((), frozenset({E1})), frozenset())
    assert may_run(nonuniq, child)  # non-unique egos admit everything
    # grandchildren of not-yet-created threads are excluded too
    gchild = (AbstractTid((E1, E3), frozenset()), frozenset())
    assert not may_run(ego, gchild)
    assert may_run((MAIN_TID, frozenset({E1})), gchild)


def test_tid_digest_rows():
    s = TidDigestSpec()
    assert s.init() == (MAIN_TID, frozenset())
    (i, c) = s.unary(U, Create("x", "t1"), (MAIN_TID, frozenset()))
    assert i == MAIN_TID and c == frozenset({E1})
    # infeasible lock: incoming unlock by a thread that is not started yet
    ego = (MAIN_TID, frozenset())
    other = (AbstractTid((E2,), frozenset()), frozenset())
    assert s.binary(U, Lock("a"), ego, other) is None
    assert s.binary(U, Lock("a"), (MAIN_TID, frozenset({E2})), other) == (
        MAIN_TID, frozenset({E2}))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_effect_determinism_fuzz(data):
    """``unary`` and ``new_thread`` return one digest of the spec's shape;
    ``binary`` returns one or ``None`` (infeasible)."""
    edges = [E1, E2, E3]
    specs = [DigestSpec(), LocksetDigest(), LockOnceDigest(), TidDigestSpec()]
    spec = data.draw(st.sampled_from(specs))

    def draw_digest():
        if spec.name == "trivial":
            return ()
        if spec.name in ("lockset", "lockonce"):
            return frozenset(data.draw(st.sets(st.sampled_from(["a", "b", "m_g"]))))
        i = MAIN_TID
        for _ in range(data.draw(st.integers(0, 4))):
            i = tid_compose(i, data.draw(st.sampled_from(edges)))
        c = frozenset(data.draw(st.sets(st.sampled_from(edges))))
        return (i, c)

    d0, d1 = draw_digest(), draw_digest()
    actions = [Lock("a"), Unlock("a"), Join("x", "y"), Create("x", "t1"),
               AssignLocal("x", IntLit(0))]
    act = data.draw(st.sampled_from(actions))

    def is_digest(d):
        if spec.name == "trivial":
            return d == ()
        if spec.name in ("lockset", "lockonce"):
            return isinstance(d, frozenset) and all(isinstance(a, str) for a in d)
        return (isinstance(d, tuple) and len(d) == 2 and isinstance(d[0], AbstractTid)
                and isinstance(d[1], frozenset)
                and all(isinstance(e, CreateEdge) for e in d[1]))

    assert is_digest(spec.init())
    assert is_digest(spec.unary(U, act, d0))
    assert is_digest(spec.new_thread(U, T1, d0))
    d2 = spec.binary(U, act, d0, d1)
    assert d2 is None or is_digest(d2)


def test_discovered_thread_ids_match_worked_example():
    """The loop-creation program instantiates exactly the ids the creation
    rules dictate: u1 = main's first create, u2 = the loop create, u3 = the
    create inside t1."""
    from concurrel.analysis import run_analysis, preset
    from concurrel.analysis.keys import PointKey
    from conftest import load

    p = load("tid_loop")
    res = run_analysis(p, preset("tids"))
    start_t1 = res.cfgs["t1"].start
    u1 = CreateEdge(Point("main", 3), "t1")
    u2 = CreateEdge(Point("main", 6), "t1")
    u3 = CreateEdge(Point("t1", 4), "t1")
    got = {k.digest[0] for k in res.solver.values
           if isinstance(k, PointKey) and k.point == start_t1}
    expected = {
        AbstractTid((u1,), frozenset()),            # first create by main
        AbstractTid((u1, u3), frozenset()),         # its child
        AbstractTid((u1,), frozenset({u3})),        # grandchildren at u3
        AbstractTid((u2,), frozenset()),            # first loop iteration
        AbstractTid((), frozenset({u2})),           # later loop iterations
        AbstractTid((), frozenset({u2, u3})),       # their children
        AbstractTid((u2, u3), frozenset()),         # child of the first loop thread
        AbstractTid((u2,), frozenset({u3})),        # its grandchildren
    }
    assert got == expected


def test_keys_are_tuples_and_print_as_before():
    """Point, CreateEdge, AbstractTid, PointKey, MutexKey and RetKey are
    named tuples that hash as the tuple of their fields and print as
    ``Name(field=...)``; thread ids order by their text in each of
    the four comparisons; ``render_key`` prints a value of no key kind as
    ``str`` does."""
    def make():
        p = Point("t1", 3)
        e = CreateEdge(p, "t2")
        i = AbstractTid((e,), frozenset({CreateEdge(Point("main", 0), "t1")}))
        return [p, e, i, PointKey(p, frozenset({"a"}), (i, frozenset({e}))),
                MutexKey("a", frozenset({"g", "h"}), (i, frozenset())), RetKey(("⊤", ()))]

    reprs = [
        "Point(template='t1', idx=3)",
        "CreateEdge(point=Point(template='t1', idx=3), template='t2')",
        "AbstractTid(prefix=(CreateEdge(point=Point(template='t1', idx=3), template='t2'),), "
        "spill=frozenset({CreateEdge(point=Point(template='main', idx=0), template='t1')}))",
    ]
    for x, y, r in zip(make(), make(), reprs + [None, None, "RetKey(digest=('⊤', ()))"]):
        assert x == y and x is not y and hash(x) == hash(y)
        assert hash(x) == hash(tuple(x))
        assert r is None or repr(x) == r
        assert "_hash" not in repr(x)
        assert type(x)._fields == type(x).__match_args__
    assert PointKey._fields == ("point", "lockset", "digest")
    assert MutexKey._fields == ("mutex", "cluster", "digest")
    assert Point("a", 2) < Point("b", 1) and CreateEdge(Point("a", 2), "z") < CreateEdge(Point("b", 0), "a")
    # "(main | {...})" < "(main)", while by the fields (a subset test on the spill) j < i
    i, j = AbstractTid((), frozenset({E1})), MAIN_TID
    assert str(i) < str(j) and tuple(j) < tuple(i)
    assert i < j and i <= j and j > i and j >= i and not (j < i) and not (i >= j)
    assert i <= i and i >= i and not (i < i) and not (i > i)
    assert render_key(Point("t1", 3)) == str(Point("t1", 3))
    assert render_key(RetKey(("⊤", ()))) == "[ret ('⊤', ())]"


def test_keys_of_different_kinds_never_compare_equal(monkeypatch):
    """Keys compare by tuple equality, which ignores the class; what keeps
    two kinds apart is the type of their fields.  A point key never equals
    a mutex or return key, a thread-id digest never equals an
    ``AbstractTid``, nor a point a create edge, even built from matching
    fields; and every key of a solution over the corpus is of a key kind."""
    perfbench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    import workloads

    p = Point("a", 3)
    i = AbstractTid((E1,))
    c = frozenset({E2})
    pk = PointKey(p, frozenset({"a"}), (i, c))
    assert pk != MutexKey("a", frozenset({"a"}), (i, c)) and pk != RetKey((i, c))
    assert MutexKey("a", frozenset(), (i, c)) != RetKey((i, c))
    assert (i, c) != AbstractTid((E1,), c) and (i, c) != AbstractTid((E1, E2), c)
    assert (MAIN_TID, frozenset()) != AbstractTid((E1, E2), frozenset())
    assert p != CreateEdge(p, "a") and CreateEdge(p, "a") != Point("a", 3)

    kinds = {PointKey: 0, MutexKey: 0, RetKey: 0}
    for name, text in workloads.load_corpus(os.path.dirname(perfbench)).items():
        for config in workloads.CORPUS_CONFIGS.values():
            _, result, _ = workloads.analyze(text, name, config)
            for key in result.solver.values:
                kinds[type(key)] += 1
    assert set(kinds) == {PointKey, MutexKey, RetKey} and min(kinds.values()) > 0, kinds
