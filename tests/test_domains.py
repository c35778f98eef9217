"""Domain laws: lattice structure, restriction, decomposability, soundness of
the transfer functions against brute-force enumeration, closure properties."""

from random import Random

import numpy as np
import pytest

from concurrel.domains import BOT, IntAbs, TID_TOP
from concurrel.domains.octagon import OctBackend
from concurrel.frontend.ast import BinOp, Cmp, IntLit, Var, linear_form

from domain_utils import (
    OPS, decompose, eq, eval_cmp, eval_expr, gamma, make_domain, random_relation, recompose,
    satisfiable_relation, use_kernel,
)

DOMAINS = ["octagon", "eqconst", "interval"]


@pytest.fixture(params=DOMAINS)
def dom(request):
    return make_domain(request.param, ("x", "y", "z"))


# -- basic frozen examples ------------------------------------------------------
#
# A binding is lifted by ``assign_value`` from ⊤, and a relation unlifted one
# variable at a time by ``unlift_var`` (``unlift_tid`` for thread ids).

def test_lift_unlift_bot(dom):
    assert dom.is_bot(dom.assign_value(dom.top(), "x", BOT))
    assert dom.unlift_var(dom.bot(), "x") is BOT
    assert dom.unlift_tid(dom.bot(), "self") is BOT


def test_lift_const(dom):
    r = dom.assign_value(dom.top(), "x", IntAbs.const(3))
    assert dom.unlift_var(r, "x") == IntAbs.const(3)
    assert dom.contains(r, {"x": 3, "y": 0}) and not dom.contains(r, {"x": 4})


def test_lift_box_octagon():
    dom = make_domain("octagon", ("x", "y"))
    r = dom.assign_value(dom.assign_value(dom.top(), "x", IntAbs(1, 2)), "y", IntAbs(1, 2))
    # γ equals the enumerated box; x−y stays within ±1 after closure
    assert gamma(dom, r, ("x", "y")) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    m = r.num.m
    assert m[0, 2] == 1 and m[2, 0] == 1  # |x − y| ≤ 1


def test_unlift_octagon_equalities():
    dom = make_domain("octagon", ("x", "y"))
    r = dom.guard(dom.top(), Cmp("==", Var("x"), Var("y")))
    r = dom.guard(r, Cmp("==", Var("x"), IntLit(7)))
    assert dom.unlift_var(r, "x") == IntAbs.const(7)
    assert dom.unlift_var(r, "y") == IntAbs.const(7)
    assert gamma(dom, r, ("x", "y"), 0, 10) == {(7, 7)}


def test_unlift_eqconst_propagates_constants():
    dom = make_domain("eqconst", ("x", "y"))
    r = dom.guard(dom.top(), Cmp("==", Var("x"), Var("y")))
    r = dom.guard(r, Cmp("==", Var("x"), IntLit(5)))
    assert dom.unlift_var(r, "x") == IntAbs.const(5)
    assert dom.unlift_var(r, "y") == IntAbs.const(5)


def test_assign_self_is_noop(dom):
    r = random_relation(dom, Random(7))
    r2 = dom.assign_expr(r, "x", Var("x"))
    assert eq(dom, r, r2)


def test_assign_linear_octagon():
    dom = make_domain("octagon", ("x", "y"))
    r = dom.assign_value(dom.top(), "y", IntAbs(1, 2))
    r = dom.assign_expr(r, "x", BinOp("+", Var("y"), IntLit(1)))
    assert dom.unlift_var(r, "x") == IntAbs(2, 3)
    assert gamma(dom, r, ("x", "y")) == {(2, 1), (3, 2)}  # x − y = 1 kept


def test_assign_value_forgets_relations():
    dom = make_domain("octagon", ("x", "y"))
    r = dom.guard(dom.top(), Cmp("<=", Var("x"), Var("y")))
    r2 = dom.assign_value(r, "x", IntAbs.const(5))
    assert dom.unlift_var(r2, "x") == IntAbs.const(5)
    assert dom.contains(r2, {"x": 5, "y": 0})  # x ≤ y was dropped first


def test_assign_value_top_is_restrict(dom):
    r = random_relation(dom, Random(3))
    if dom.is_bot(r):
        r = dom.top()
    lhs = dom.assign_value(r, "x", IntAbs.top())
    rhs = dom.restrict(r, set(dom.universe.all_vars) - {"x"})
    assert eq(dom, lhs, rhs)


def test_guard_examples(dom):
    assert dom.is_bot(dom.guard(dom.bot(), Cmp("==", Var("x"), Var("y"))))
    r = dom.guard(dom.top(), Cmp("==", Var("x"), IntLit(3)))
    assert dom.is_bot(dom.guard(r, Cmp("!=", Var("x"), IntLit(3))))
    if dom.numeric != "interval":  # intervals cannot express x == y
        r = dom.guard(dom.top(), Cmp("==", Var("x"), Var("y")))
        assert dom.is_bot(dom.guard(r, Cmp("!=", Var("x"), Var("y"))))


def test_backends_implement_the_numeric_backend_protocol():
    from concurrel.domains.eqconst import EqBackend
    from concurrel.domains.relation import NumericBackend

    for nb in (OctBackend(3), OctBackend(3, intervalize=True), EqBackend(3)):
        assert isinstance(nb, NumericBackend), nb
    assert not isinstance(object(), NumericBackend)


@pytest.mark.parametrize("numeric", DOMAINS)
def test_bot_never_reaches_the_backend(numeric):
    """⊥ is the domain's alone: every operation answers for a ⊥ operand
    without calling the numeric backend."""

    class Refusing:
        def __getattr__(self, name):
            def call(*args):
                raise AssertionError(f"the backend's {name} was called")
            return call

    dom = make_domain(numeric, ("x", "y", "z"))
    a, bot = dom.assign_value(dom.top(), "x", IntAbs.const(1)), dom.bot()
    dom.nb = Refusing()
    for x, y in ((bot, bot), (bot, a), (a, bot)):
        assert dom.meet(x, y) is bot
        assert dom.join(x, y) is dom.widen(x, y) is (a if a in (x, y) else bot)
    assert dom.leq(bot, a) and dom.leq(bot, bot) and not dom.leq(a, bot)
    assert dom.restrict(bot, {"x"}) is bot
    assert dom.assign_value(bot, "x", IntAbs.const(2)) is bot
    assert dom.assign_value(a, "x", BOT) is bot
    for e in (BinOp("+", Var("y"), IntLit(1)), BinOp("*", Var("y"), Var("z"))):
        assert dom.assigner("x", e)(bot) is bot
    for op in OPS:
        assert dom.guarder(Cmp(op, Var("x"), Var("y")))(bot) is bot
    assert dom.unlift_var(bot, "x") is BOT and dom.unlift_tid(bot, "self") is BOT
    assert dom.support(bot) == set()
    assert dom.contains_many(bot, {"x": [0, 1], "self": ["t", 2]}, 2).tolist() == [False, False]
    assert dom.render(bot) == "⊥"


def test_guard_leq_octagon():
    dom = make_domain("octagon", ("x", "y"))
    r = dom.guard(dom.top(), Cmp("<=", Var("x"), Var("y")))
    assert r.num.m[2, 0] == 0  # x − y ≤ 0


def test_restrict_laws_basic(dom):
    r = random_relation(dom, Random(11))
    assert eq(dom, dom.restrict(r, set(dom.universe.all_vars)), r)
    assert eq(dom, dom.restrict(r, set()), dom.top()) or dom.is_bot(r)
    # unlift(r|Y) x = ⊤ for x ∉ Y, on both components
    r = dom.assign_value(dom.assign_value(dom.top(), "y", IntAbs.const(2)), "self",
                         frozenset({"t"}))
    rx = dom.restrict(r, {"x"})
    assert dom.unlift_var(rx, "y") == IntAbs.top()
    assert dom.unlift_tid(rx, "self") is TID_TOP
    assert dom.unlift_var(dom.restrict(r, {"y", "self"}), "y") == IntAbs.const(2)


def test_restrict_eqconst_transitive():
    dom = make_domain("eqconst", ("g", "h", "i"))
    r = dom.guard(dom.top(), Cmp("==", Var("g"), Var("h")))
    r = dom.guard(r, Cmp("==", Var("h"), Var("i")))
    r2 = dom.restrict(r, {"g", "i"})
    expect = dom.guard(dom.top(), Cmp("==", Var("g"), Var("i")))
    assert eq(dom, r2, expect)


def test_join_meet_neutral(dom):
    r = random_relation(dom, Random(5))
    assert eq(dom, dom.meet(r, dom.top()), r)
    assert eq(dom, dom.join(r, dom.bot()), r)


def test_eqconst_flat_constant_join():
    dom = make_domain("eqconst", ("x", "y"))
    r1 = dom.guard(dom.top(), Cmp("==", Var("x"), IntLit(1)))
    r2 = dom.guard(dom.top(), Cmp("==", Var("x"), IntLit(2)))
    j = dom.join(r1, r2)
    assert dom.unlift_var(j, "x") == IntAbs.top()


def test_octagon_widen_drops_unstable_bound():
    dom = make_domain("octagon", ("x",))
    r1 = dom.assign_value(dom.top(), "x", IntAbs(0, 1))
    r2 = dom.assign_value(dom.top(), "x", IntAbs(0, 2))
    w = dom.widen(r1, dom.join(r1, r2))
    v = dom.unlift_var(w, "x")
    assert v.lo == 0 and v.hi == float("inf")


def test_widening_stabilizes_chains():
    for numeric in DOMAINS:
        dom = make_domain(numeric, ("x", "y"))
        rng = Random(13)
        w = dom.assign_value(dom.top(), "x", IntAbs.const(0))
        steps = 0
        for k in range(1, 40):
            grown = dom.join(w, dom.assign_value(dom.top(), "x", IntAbs(0, k)))
            w2 = dom.widen(w, grown)
            if eq(dom, w2, w):
                break
            w = w2
            steps += 1
        assert steps <= 3 * 2 * len(dom.universe.int_vars)


# -- randomized law suites -------------------------------------------------------

@pytest.mark.parametrize("numeric", DOMAINS)
def test_lattice_laws_random(numeric):
    dom = make_domain(numeric, ("x", "y", "z"))
    rng = Random(42)
    for _ in range(150):
        a, b, c = (random_relation(dom, rng) for _ in range(3))
        assert dom.leq(a, a)
        j, m = dom.join(a, b), dom.meet(a, b)
        assert dom.leq(a, j) and dom.leq(b, j)
        assert dom.leq(m, a) and dom.leq(m, b)
        assert eq(dom, dom.join(a, b), dom.join(b, a))
        assert eq(dom, dom.meet(a, b), dom.meet(b, a))
        assert eq(dom, dom.join(a, dom.meet(a, b)), a)  # absorption
        assert eq(dom, dom.meet(a, dom.join(a, b)), a)
        if dom.leq(a, b) and dom.leq(b, a):
            assert eq(dom, a, b)  # antisymmetry up to canonical form
        assert dom.leq(m, j)
        # widen is an upper bound of join
        assert dom.leq(j, dom.widen(a, j))


@pytest.mark.parametrize("numeric", DOMAINS)
def test_restriction_laws_random(numeric):
    dom = make_domain(numeric, ("x", "y", "z"))
    rng = Random(43)
    names = dom.universe.int_vars
    for _ in range(120):
        r = random_relation(dom, rng)
        y1 = {v for v in names if rng.random() < 0.6}
        y2 = {v for v in names if rng.random() < 0.6}
        # antitone in the co-restricted set
        if y1 <= y2:
            assert dom.leq(dom.restrict(r, y2), dom.restrict(r, y1))
        assert eq(dom, dom.restrict(dom.restrict(r, y1), y2), dom.restrict(r, y1 & y2))
        assert eq(dom, dom.restrict(dom.restrict(r, y1), y1), dom.restrict(r, y1))
        # Eq. 1, pointwise
        rr = dom.restrict(r, y1)
        for x in names:
            got = dom.unlift_var(rr, x)
            if dom.is_bot(r):
                continue
            if x in y1:
                assert got == dom.unlift_var(r, x)
            else:
                assert got == IntAbs.top()


@pytest.mark.parametrize("numeric", ["octagon", "eqconst"])
def test_two_decomposability_random(numeric):
    dom = make_domain(numeric, ("v", "w", "x", "y", "z"))
    rng = Random(44)
    for _ in range(80):
        r1, r2 = random_relation(dom, rng), random_relation(dom, rng)
        d = decompose(dom, r1, 2)
        assert all(eq(dom, dom.restrict(v, q), v) for q, v in d.items())
        assert eq(dom, recompose(dom, d), r1)
        # (⊔R)|Q = ⊔ of per-cluster restrictions
        j = dom.join(r1, r2)
        dj = decompose(dom, j, 2)
        d2 = decompose(dom, r2, 2)
        for q in dj:
            assert eq(dom, dj[q], dom.join(d[q], d2[q]))


def test_decompose_octagon_closed_pairs():
    dom = make_domain("octagon", ("x", "y", "z"))
    r = dom.guard(dom.top(), Cmp("<=", BinOp("-", Var("x"), Var("y")), IntLit(1)))
    r = dom.guard(r, Cmp("<=", BinOp("-", Var("y"), Var("z")), IntLit(1)))
    d = decompose(dom, r, 2)
    # the closed pair cluster {x,z} carries the transitive bound x − z ≤ 2
    xz = d[frozenset({"x", "z"})]
    assert not dom.contains(xz, {"x": 3, "z": 0})
    assert dom.contains(xz, {"x": 2, "z": 0})
    assert eq(dom, recompose(dom, d), r)


def test_decompose_eqconst_pairs():
    dom = make_domain("eqconst", ("g", "h", "i"))
    r = dom.guard(dom.top(), Cmp("==", Var("g"), Var("h")))
    r = dom.guard(r, Cmp("==", Var("h"), Var("i")))
    d = decompose(dom, r, 2)
    for q in ({"g", "h"}, {"h", "i"}, {"g", "i"}):
        pair = d[frozenset(q)]
        a, b = sorted(q)
        assert eq(dom, pair, dom.guard(dom.top(), Cmp("==", Var(a), Var(b))))
    assert eq(dom, recompose(dom, d), r)


def test_decompose_top(dom):
    d = decompose(dom, dom.top(), 2)
    assert all(eq(dom, v, dom.top()) for v in d.values())
    assert eq(dom, recompose(dom, d), dom.top())


# -- soundness of transfers vs brute force ---------------------------------------

@pytest.mark.parametrize("numeric", DOMAINS)
def test_transfer_soundness_vs_enumeration(numeric):
    dom = make_domain(numeric, ("x", "y", "z"))
    names = dom.universe.int_vars
    rng = Random(45)
    for _ in range(40):
        r = random_relation(dom, rng)
        g = gamma(dom, r, names)
        x = rng.choice(names)
        e = rng.choice([
            IntLit(rng.randint(0, 4)),
            Var(rng.choice(names)),
            BinOp("+", Var(rng.choice(names)), IntLit(rng.randint(-1, 2))),
            BinOp("+", Var(rng.choice(names)), Var(rng.choice(names))),
            BinOp("-", IntLit(rng.randint(0, 3)), Var(rng.choice(names))),
        ])
        assigned = dom.assign_expr(r, x, e)
        cond = Cmp(rng.choice(OPS), Var(rng.choice(names)), Var(rng.choice(names)))
        guarded = dom.guard(r, cond)
        keep = {v for v in names if rng.random() < 0.5}
        restricted = dom.restrict(r, keep)
        r2 = random_relation(dom, rng)
        met = dom.meet(r, r2)
        joined = dom.join(r, r2)
        for vals in g:
            store = dict(zip(names, vals))
            store2 = dict(store)
            store2[x] = eval_expr(e, store)
            assert dom.contains(assigned, store2), (numeric, store, str(e))
            if eval_cmp(cond, store):
                assert dom.contains(guarded, store), (numeric, store, str(cond))
            for other in range(0, 5):
                store3 = {v: (store[v] if v in keep else other) for v in names}
                assert dom.contains(restricted, store3)
            if dom.contains(r2, store):
                assert dom.contains(met, store)
            assert dom.contains(joined, store)
        g2 = gamma(dom, r2, names)
        for vals in g2:
            assert dom.contains(joined, dict(zip(names, vals)))


# -- octagon closure ---------------------------------------------------------------

def _random_dbm(rng: Random, n: int) -> np.ndarray:
    m = np.full((2 * n, 2 * n), np.inf)
    np.fill_diagonal(m, 0.0)
    for _ in range(rng.randint(1, 2 * n)):
        i, j = rng.randrange(2 * n), rng.randrange(2 * n)
        if i != j:
            c = float(rng.randint(-3, 6))
            m[i, j] = min(m[i, j], c)
            m[j ^ 1, i ^ 1] = m[i, j]
    return m


def _satisfies(m: np.ndarray, vals) -> bool:
    """Does the store ``vals`` (one value per matrix variable) satisfy every
    bound v_j − v_i ≤ m[i][j] of the raw matrix ``m``?"""
    w = np.repeat(vals, 2) * np.tile([1, -1], len(vals))
    return bool((w[None, :] - w[:, None] <= m).all())


def test_closure_idempotent_and_exact():
    rng = Random(46)
    for _ in range(120):
        n = rng.randint(1, 3)
        back, m, vars = OctBackend(n), _random_dbm(rng, n), tuple(range(n))
        c1 = back.close(vars, np.array(m))
        if c1 is None:
            # unsatisfiable: no store may satisfy the raw constraints
            assert not any(_satisfies(m, vals) for vals in box(n))
            continue
        c2 = back.close(vars, np.array(c1.m))
        assert c2 is not None
        assert np.array_equal(c1.m, c2.m)
        for vals in box(n):
            assert _satisfies(m, vals) == back.contains(c1, np.array([vals]))[0]


@pytest.mark.parametrize("numeric", ["octagon", "interval"])
def test_octagon_float_operations_stay_exact(numeric):
    """Entries are float64, exact for integers up to 2**53.  A bound beyond
    ``BOUND_LIMIT`` is dropped rather than rounded, shifts keep entries
    within ``EXACT_LIMIT``, a non-octagonal sum is bounded in Python ints,
    and containment compares values beyond 2**52 exactly."""
    dom = make_domain(numeric, ("x", "y", "z"))
    big = 2**53 + 1
    assert dom.unlift_var(dom.assign_value(dom.top(), "x", IntAbs.const(big)), "x") == IntAbs.top()
    shifted = dom.assign_value(dom.top(), "x", IntAbs.const(2**39))
    for n in range(1, 2**11 + 1):  # x = 2**39 + n * BOUND_LIMIT, stored doubled
        shifted = dom.assign_expr(shifted, "x", BinOp("+", Var("x"), IntLit(2**40)))
        if n == 2**10:
            assert dom.unlift_var(shifted, "x") == IntAbs.const(2**39 + 2**50)
    assert dom.unlift_var(shifted, "x") == IntAbs.top()
    # 32768 * 2**38 + 1 == 2**53 + 1, which float64 reads as 2**53
    r = dom.assign_value(dom.assign_value(dom.top(), "y", IntAbs.const(2**38)), "z", IntAbs.const(1))
    lhs = BinOp("+", BinOp("*", IntLit(32768), Var("y")), Var("z"))
    assert not dom.is_bot(dom.guard(r, Cmp("==", lhs, IntLit(big))))
    assert dom.contains(r, {"y": 2**38, "z": 1}) and not dom.contains(r, {"y": big, "z": 1})
    if numeric == "octagon":
        le = dom.guard(dom.top(), Cmp("<=", Var("x"), Var("y")))
        assert not dom.contains(le, {"x": big, "y": big - 1})  # both round to 2**53
        assert dom.contains(le, {"x": big, "y": big})


# -- batched containment -----------------------------------------------------------

def _row_contains(r, row) -> bool:
    """One row of values against a numeric value, constraint by constraint."""
    from concurrel.domains.octagon import OctRel

    if isinstance(r, OctRel):
        w = [sign * row[x] for x in r.vars for sign in (1, -1)]
        return all(w[j] - w[i] <= r.m[i, j] for i in range(len(w)) for j in range(len(w)))
    return all(row[x] == row[rx] for x, rx in r.rep.items()) and all(
        row[x] == c for x, c in r.consts.items())


def _store_contains(dom, r, store) -> bool:
    """γ membership of one store, read variable by variable: a variable
    holding a thread id is numerically unconstrained."""
    if r.bot:
        return False
    ints = {v for v, x in store.items() if isinstance(x, int)}
    num = dom.nb.restrict(r.num, {dom.universe.index[v] for v in ints if v in dom.universe.index})
    row = [store[v] if v in ints else 0 for v in dom.universe.int_vars]
    return _row_contains(num, row) and all(
        v not in store or (not isinstance(store[v], int) and store[v] in t)
        for v, t in r.tids.items())


@pytest.mark.parametrize("numeric", DOMAINS)
def test_backend_contains_is_the_row_by_row_test(numeric, monkeypatch):
    """⊤, values of transfer sequences and (octagons) satisfiable closures
    of random DBMs, against batches cut into many broadcast chunks.  No
    backend sees ⊥: ``contains_many`` answers for it."""
    from concurrel.domains import _closure_py

    monkeypatch.setattr(_closure_py, "CONTAINS_CHUNK_BYTES", 300)
    rng = Random(47)
    dom = make_domain(numeric, ("x", "y", "z"))
    nb = dom.nb
    values = [nb.top()] + [satisfiable_relation(dom, rng).num for _ in range(40)]
    if numeric != "eqconst":
        values += [nb.close((0, 1, 2), _random_dbm(rng, 3)) for _ in range(40)]
    for r in filter(None, values):
        vals = np.array([[rng.randint(-3, 5) for _ in range(3)]
                         for _ in range(rng.randint(1, 30))])
        assert nb.contains(r, vals).tolist() == [_row_contains(r, row) for row in vals.tolist()]


@pytest.mark.parametrize("numeric", DOMAINS)
def test_contains_many_is_the_store_by_store_test(numeric, monkeypatch):
    """Stores where the dual variable x holds an int in some rows and a
    thread id in others, thread ids outside every set, absent variables and
    values beyond 64 bits."""
    from concurrel.digests import AbstractTid, CreateEdge
    from concurrel.domains import RelDomain, Universe, _closure_py
    from concurrel.frontend.cfg import Point

    monkeypatch.setattr(_closure_py, "CONTAINS_CHUNK_BYTES", 300)
    rng = Random(48)
    dom = RelDomain(Universe(("v", "x", "y", "z"), ("self", "x")), numeric)
    t1, t2 = AbstractTid(), AbstractTid((CreateEdge(Point("main", 1), "t"),))
    rels = [dom.bot(), dom.top()]
    for _ in range(60):
        r = random_relation(dom, rng)
        if rng.random() < 0.5:
            r = dom.assign_value(r, "x", frozenset(rng.sample([t1, t2], rng.randint(1, 2))))
        if rng.random() < 0.5:
            r = dom.assign_value(r, "self", frozenset({t1}))
        rels.append(r)
    for r in rels:
        count = rng.randint(1, 25)
        choices = {"v": range(-2, 5), "x": [*range(-2, 5), t1, t2], "y": range(-2, 5),
                   "z": [*range(-2, 5), 2**70], "self": [t1, t2, "unknown"]}
        columns = {v: [rng.choice(c) for _ in range(count)]
                   for v, c in choices.items() if rng.random() < 0.8}
        stores = [{v: col[i] for v, col in columns.items()} for i in range(count)]
        batch = dom.contains_many(r, columns, count).tolist()
        assert batch == [_store_contains(dom, r, s) for s in stores]
        assert batch == [dom.contains(r, s) for s in stores]


def box(n, lo=-2, hi=4):
    from itertools import product

    return product(range(lo, hi + 1), repeat=n)


def test_every_computed_closure_calls_tight_close_inplace(programs, monkeypatch):
    """``close`` computes each closure through ``octagon.tight_close_inplace``,
    the one name a tracer wraps, and nothing else calls the kernel, so
    counting its calls counts closures."""
    import concurrel.domains.octagon as octagon
    from concurrel.analysis import preset, run_analysis

    computed, kernel_calls = [0], [0]
    close, kernel = OctBackend.close, octagon.tight_close_inplace

    def counting_close(self, *args):
        computed[0] += 1
        return close(self, *args)

    def counting_kernel(m):
        kernel_calls[0] += 1
        return kernel(m)

    monkeypatch.setattr(OctBackend, "close", counting_close)
    monkeypatch.setattr(octagon, "tight_close_inplace", counting_kernel)
    run_analysis(programs["intro_cluster"], preset("clusters"))
    assert computed[0] > 0
    assert kernel_calls[0] == computed[0]


def _cannot_compile() -> str | None:
    """Why the kernel cannot be compiled here, or None."""
    import shlex
    import shutil
    import sysconfig
    from pathlib import Path

    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if not ldshared or shutil.which(ldshared[0]) is None:
        return "no C compiler"
    if not Path(sysconfig.get_paths()["include"], "Python.h").exists():
        return "no Python headers"
    return None


def _compiled_kernel(cache):
    """The package's compiled kernel, built into ``cache`` and loaded from
    there; skips where there is no C compiler or no Python headers."""
    from concurrel.domains._build import load_compiled

    reason = _cannot_compile()
    if reason:
        pytest.skip(reason)
    module = load_compiled(cache)
    assert module is not None
    return module


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled kernel, built once for this module into a cache of its
    own, whichever kernel the package uses."""
    return _compiled_kernel(tmp_path_factory.mktemp("kernel"))


def _kernel_entry(rng: Random, limits) -> float:
    """A random matrix entry: mostly small integers and +inf, and also
    values at and just beyond each of ``limits``."""
    pick = rng.random()
    if pick < 0.35:
        return np.inf
    if pick < 0.45:
        return rng.choice((-1, 1)) * (rng.choice(limits) + rng.choice((-1, 0, 1)))
    return float(rng.randint(-4, 6))


def _kernel_matrix(rng: Random, k: int, limits) -> np.ndarray:
    """A random read-only 2k×2k matrix with a zero diagonal, as the
    operations pass the matrices of their operands."""
    m = np.array([[_kernel_entry(rng, limits) for _ in range(2 * k)] for _ in range(2 * k)])
    np.fill_diagonal(m, 0.0)
    m.setflags(write=False)
    return m


def _gather_map(rng: Random, src: int, k: int) -> tuple[int, ...]:
    """A random gather map from a pack of ``src`` variables onto ``k``:
    distinct variables of the pack, or −1."""
    free = rng.sample(range(src), src)
    return tuple(free.pop() if free and rng.random() < 0.7 else -1 for _ in range(k))


def _agree(pure_out, fast_out, args) -> bool:
    """Both kernels returned the same argument, or equal fresh matrices
    bit for bit."""
    for a in args:
        if pure_out is a or fast_out is a:
            return pure_out is a and fast_out is a
    return (isinstance(fast_out, np.ndarray) and fast_out.dtype == np.float64
            and fast_out.shape == pure_out.shape and fast_out.tobytes() == pure_out.tobytes())


def test_compiled_kernel_matches_numpy_kernel(compiled):
    """The C kernel equals the numpy kernel bit for bit, drops the same
    bounds beyond ``BOUND_LIMIT``, and rejects input that breaks its
    contract."""
    from concurrel.domains._closure_py import BOUND_LIMIT
    from concurrel.domains._closure_py import tight_close_inplace as pure

    fast = compiled.tight_close_inplace
    rng = Random(47)
    unsat = 0
    for trial in range(400):
        n = rng.randint(1, 5)
        m = np.full((2 * n, 2 * n), np.inf)
        np.fill_diagonal(m, 0.0)
        for _ in range(rng.randint(0, 3 * n)):
            i, j = rng.randrange(2 * n), rng.randrange(2 * n)
            if i != j:
                c = float(rng.randint(-4, 6))
                if rng.random() < 0.1:  # at, just beyond or far beyond the limit
                    c = rng.choice((-1, 1)) * (BOUND_LIMIT + rng.choice((-1, 0, 1, 2**41)))
                m[i, j] = min(m[i, j], c)
                m[j ^ 1, i ^ 1] = m[i, j]
        if trial % 2:  # a closed matrix plus one new bound, as transfers leave it
            if pure(m) != 0:
                continue
            x, y = rng.randrange(n), rng.randrange(n)
            i, j = 2 * x + rng.randrange(2), 2 * y + rng.randrange(2)
            m[i, j] = min(m[i, j], float(rng.randint(-4, 2)))
            m[j ^ 1, i ^ 1] = m[i, j]
        m1, m2 = np.array(m), np.array(m)
        r1, r2 = pure(m1), fast(m2)
        assert r1 == r2
        unsat += r1
        if r1 == 0:
            assert np.array_equal(m1, m2)
    assert unsat > 0
    # a bound of exactly BOUND_LIMIT stays, one more is dropped, in either sign
    for sign in (1, -1):
        m = np.array([[0.0, sign * (BOUND_LIMIT + 1)], [sign * BOUND_LIMIT, 0.0]])
        for close in (pure, fast):
            c = np.array(m)
            assert close(c) == 0
            assert c.tolist() == [[0.0, np.inf], [sign * BOUND_LIMIT, 0.0]]

    read_only = np.zeros((2, 2))
    read_only.setflags(write=False)
    for bad in (read_only, np.zeros((4, 4))[::2, ::2], np.zeros((2, 2), np.float32),
                np.zeros(4), np.zeros((2, 4)), np.zeros((3, 3)), [[0.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError):
            fast(bad)
    with pytest.raises(ValueError):  # the one check of the numpy kernel
        pure(np.zeros((4, 4))[::2, ::2])
    # the buffer is released on every path: a memoryview with exports cannot be released
    for shape, error in (((2, 2), None), ((1, 4), ValueError)):
        view = memoryview(bytearray(32)).cast("d", shape)
        if error is None:
            assert fast(view) == 0
        else:
            with pytest.raises(error):
                fast(view)
        view.release()


def test_both_kernels_export_the_same_entry_points(compiled):
    """The C kernel's functions are exactly the public functions of its
    numpy twin, the eight entry points of the contract."""
    import inspect

    from concurrel.domains import _closure_py

    entry_points = {"tight_close_inplace", "leq", "join", "meet", "widen", "bound", "shift",
                    "contains"}
    twin = {name for name, f in vars(_closure_py).items()
            if inspect.isfunction(f) and f.__module__ == _closure_py.__name__
            and not name.startswith("_")}
    assert twin == entry_points
    assert {name for name in dir(compiled) if not name.startswith("_")} == entry_points


def test_compiled_kernel_entry_points_match_numpy_ones(compiled):
    """Every entry point but the closure, on random packs of 1–5 variables,
    the same packs gathered through random maps, with entries at and beyond
    ±``BOUND_LIMIT`` and ±``EXACT_LIMIT``: the C kernel returns the same
    argument as the numpy kernel, or a matrix equal to its bit for bit, and
    the closures of the matrices of ``meet`` and ``bound`` agree on ⊥."""
    from concurrel.domains import _closure_py as pure
    from concurrel.domains._closure_py import BOUND_LIMIT, EXACT_LIMIT

    rng = Random(53)
    limits = (BOUND_LIMIT, EXACT_LIMIT)
    seen = {"argument": 0, "fresh": 0, "unsat": 0}

    def check(name, *args):
        want, got = getattr(pure, name)(*args), getattr(compiled, name)(*args)
        if name == "leq":
            assert got is want, (name, args)
            return want
        assert _agree(want, got, args), (name, args)
        seen["argument" if any(want is a for a in args) else "fresh"] += 1
        return want

    def closes_alike(m):
        m1, m2 = np.array(m), np.array(m)
        r1, r2 = pure.tight_close_inplace(m1), compiled.tight_close_inplace(m2)
        assert r1 == r2
        seen["unsat"] += r1
        assert r1 or np.array_equal(m1, m2)

    for _ in range(600):
        ka, kb, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 5)
        a = _kernel_matrix(rng, ka, limits)
        b = rng.choice([_kernel_matrix(rng, ka, limits), a])
        if b is not a and rng.random() < 0.5:  # b above or below a entrywise
            b = (np.maximum if rng.random() < 0.5 else np.minimum)(a, b)
            b.setflags(write=False)
        for name in ("leq", "join", "meet", "widen"):
            check(name, a, b)
            check(name, b, a)
        pa, pb = _gather_map(rng, ka, k), _gather_map(rng, kb, k)
        c = _kernel_matrix(rng, kb, limits)
        ga, gc = pure.bound(a, pa, ()), pure.bound(c, pb, ())  # aligned as OctBackend does
        for name in ("leq", "join", "meet", "widen"):
            out = check(name, ga, gc)
            if name == "meet" and not any(out is x for x in (ga, gc)):
                closes_alike(out)
        assert check("join", a, b) is a or not pure.leq(b, a)
        check("bound", a, pa, ())
        check("bound", a, None, ())
        entries = []
        for _ in range(rng.randint(0, 3)):
            c_ = rng.choice((float(rng.randint(-6, 8)), rng.randint(-6, 8),
                             rng.choice((-1, 1)) * BOUND_LIMIT))
            entries += (rng.randrange(2 * k or 1), rng.randrange(2 * k or 1), c_)
        if k:
            closes_alike(check("bound", a, pa, entries))
        check("bound", a, None, [i % (2 * ka) if t % 3 < 2 else i
                                 for t, i in enumerate(entries)])
        const = rng.choice((rng.randint(-5, 5), rng.choice((-1, 1)) * int(BOUND_LIMIT)))
        check("shift", a, rng.randrange(ka), const, rng.random() < 0.5)
    assert min(seen.values()) > 50, seen


def test_compiled_contains_matches_numpy_one(compiled):
    """``contains`` on random packs of 0–5 variables, read through random
    columns of rows whose values reach ±2^52 against entries that reach
    ±2^53 and +inf, on a 0-variable pack, a 1-row batch and a batch that the
    numpy kernel cuts into chunks of ``CONTAINS_CHUNK_BYTES``: both kernels
    return a fresh bool vector of the same values."""
    from concurrel.domains import _closure_py as pure
    from concurrel.domains._closure_py import CONTAINS_CHUNK_BYTES, EXACT_LIMIT

    rng = Random(55)
    big = int(EXACT_LIMIT)
    values = (-2, -1, 0, 1, 2, big, -big, big - 1, 1 - big)
    entries = (np.inf, 0.0, 1.0, -1.0, 3.0, -4.0, 2.0 * big, -2.0 * big, big + 1.0, -1.0 - big)
    seen = {True: 0, False: 0}

    def check(m, vals, pos):
        want, got = pure.contains(m, vals, pos), compiled.contains(m, vals, pos)
        assert got.dtype == bool and got.shape == (len(vals),) and got.flags.writeable
        assert got.tolist() == want.tolist(), (m, vals, pos)
        for x in got.tolist():
            seen[x] += 1

    for _ in range(300):
        k, n = rng.randint(0, 5), rng.randint(5, 7)
        m = np.array([[rng.choice(entries) if rng.random() < 0.3 else
                       rng.choice((np.inf, float(rng.randint(-2, 4))))
                       for _ in range(2 * k)] for _ in range(2 * k)]).reshape(2 * k, 2 * k)
        np.fill_diagonal(m, 0.0)
        m.setflags(write=False)
        pos = tuple(rng.sample(range(n), k))
        rows = rng.choice((1, rng.randint(0, 12)))
        vals = np.array([[rng.choice(values) for _ in range(n)] for _ in range(rows)],
                        dtype=np.int64).reshape(rows, n)
        check(m, vals, pos)
    assert min(seen.values()) > 100, seen
    empty = np.zeros((0, 0))
    assert compiled.contains(empty, np.zeros((3, 2), np.int64), ()).tolist() == [True] * 3
    check(empty, np.zeros((3, 0), np.int64), ())
    m = np.array([[0.0, 2.0, 1.0, np.inf], [8.0, 0.0, np.inf, 5.0],
                  [3.0, np.inf, 0.0, 4.0], [np.inf, 1.0, 6.0, 0.0]])
    rows = CONTAINS_CHUNK_BYTES // (8 * m.size) + 7
    vals = np.array([[rng.randint(-5, 5) for _ in range(3)] for _ in range(rows)])
    check(m, vals, (2, 0))
    check(m, vals[::-2], (1, 2))  # strided rows


def test_kernel_results_are_writable_and_operands_unchanged(compiled):
    """Under both kernels, every fresh matrix an entry point returns is
    writable (``OctRel`` alone makes matrices read-only), and no entry point
    but the closure writes its operands, writable or not."""
    from concurrel.domains import _closure_py as pure

    for writable in (True, False):
        a = np.array([[0.0, 1.0], [2.0, 0.0]])
        b = np.array([[0.0, 3.0], [0.0, 0.0]])
        a.setflags(write=writable)
        b.setflags(write=writable)
        before = a.tobytes(), b.tobytes()
        for kernel in (pure, compiled):
            fresh = {"join": kernel.join(a, b), "widen": kernel.widen(a, b),
                     "shift": kernel.shift(a, 0, 1, False), "meet": kernel.meet(a, b),
                     "bound": kernel.bound(a, None, [0, 1, -1.0]),
                     "gather": kernel.bound(a, (0, -1), ())}
            for name, m in fresh.items():
                assert m is not a and m is not b, (kernel.__name__, name)
                assert m.flags.writeable, (kernel.__name__, name)
            assert (a.tobytes(), b.tobytes()) == before, kernel.__name__


def test_compiled_kernel_entry_points_reject_bad_input_and_release_buffers(compiled):
    """Each C entry point raises ``ValueError`` on a strided, float32, 1-D,
    non-square or odd-sized matrix and on a malformed map or entry list,
    and ``tight_close_inplace`` also on a read-only matrix, which the
    others only read.  The binary entry points take exactly two matrices,
    of one size.  Each one releases the buffers it took, on every path."""
    good = np.zeros((2, 2))
    read_only = np.zeros((2, 2))
    read_only.setflags(write=False)
    bad_matrices = (np.zeros((4, 4))[::2, ::2], np.zeros((2, 2), np.float32), np.zeros(4),
                    np.zeros((2, 4)), np.zeros((3, 3)), [[0.0, 0.0], [0.0, 0.0]])
    calls = {  # entry point: its arguments, with the matrix to vary first
        "tight_close_inplace": lambda m: (m,),
        "leq": lambda m: (m, good), "join": lambda m: (m, good),
        "meet": lambda m: (m, good), "widen": lambda m: (m, good),
        "bound": lambda m: (m, None, [0, 1, 2.0]),
        "shift": lambda m: (m, 0, 3, False),
        "contains": lambda m: (m, np.zeros((2, 1), np.int64), (0,)),
    }
    for name, args in calls.items():
        fn = getattr(compiled, name)
        for bad in bad_matrices + ((read_only,) if name == "tight_close_inplace" else ()):
            with pytest.raises(ValueError):
                fn(*args(bad))
        if name != "tight_close_inplace":
            fn(*args(read_only))  # read, never written
    for name in ("leq", "join", "meet", "widen"):  # the second operand too
        with pytest.raises(ValueError):
            getattr(compiled, name)(good, np.zeros((3, 3)))
        with pytest.raises(ValueError):  # two sizes
            getattr(compiled, name)(good, np.zeros((4, 4)))
        with pytest.raises(TypeError):  # no gather maps
            getattr(compiled, name)(good, good, None, None)
    malformed = [
        ("bound", (good, (1,), ())), ("bound", (good, (-2,), ())), ("bound", (good, "x", ())),
        ("bound", (good, (0.5,), ())),
        ("bound", (good, None, [0, 1])), ("bound", (good, None, [0, 2, 1.0])),
        ("bound", (good, None, [0, 1, "c"])), ("bound", (good, None, 3)),
        ("shift", (good, 1, 3, False)), ("shift", (good, 0, "c", False)),
        ("contains", (good, np.zeros((2, 1)), (0,))),  # rows not int64
        ("contains", (good, np.zeros((2, 1), np.int32), (0,))),
        ("contains", (good, np.zeros((2, 1), object), (0,))),
        ("contains", (good, np.zeros(2, np.int64), (0,))),
        ("contains", (good, np.zeros((2, 1), ">i8"), (0,))),
        ("contains", (good, [[0]], (0,))),
        ("contains", (good, np.zeros((2, 1), np.int64), None)),
        ("contains", (good, np.zeros((2, 1), np.int64), ())),
        ("contains", (good, np.zeros((2, 1), np.int64), (1,))),
        ("contains", (good, np.zeros((2, 1), np.int64), (-1,))),
        ("contains", (good, np.full((2, 1), 2**52 + 1), (0,))),
        ("contains", (good, np.full((2, 1), -2**52 - 1), (0,))),
    ]
    for name, args in malformed:
        with pytest.raises(ValueError):
            getattr(compiled, name)(*args)

    def view(shape=(2, 2)):
        return memoryview(bytearray(8 * shape[0] * shape[1])).cast("d", shape)

    paths = [  # (entry point, arguments), each passing memoryviews
        ("tight_close_inplace", lambda a, b: (a,)), ("tight_close_inplace", lambda a, b: (b,)),
        ("bound", lambda a, b: (a, (0, -1), ())), ("bound", lambda a, b: (a, (3,), ())),
        ("bound", lambda a, b: (b, (0,), ())),
        ("bound", lambda a, b: (a, None, [0, 1, 1.0])), ("bound", lambda a, b: (a, None, [9, 9, 1.0])),
        ("bound", lambda a, b: (b, None, [])),
        ("shift", lambda a, b: (a, 0, 1, True)), ("shift", lambda a, b: (a, 5, 1, True)),
        ("shift", lambda a, b: (b, 0, 1, True)),
        ("contains", lambda a, b: (a, np.zeros((3, 1), np.int64), (0,))),
        ("contains", lambda a, b: (a, np.zeros((3, 1), np.int64), (1,))),
        ("contains", lambda a, b: (a, np.full((3, 1), 2**60), (0,))),
        ("contains", lambda a, b: (b, np.zeros((3, 1), np.int64), (0,))),
    ]
    for name in ("leq", "join", "meet", "widen"):
        paths += [(name, lambda a, b: (a, a)), (name, lambda a, b: (a, b)),
                  (name, lambda a, b: (b, a)), (name, lambda a, b: (a, np.zeros((4, 4))))]
    outcomes = set()
    for name, args in paths:
        a, b = view(), view((1, 4))
        try:
            getattr(compiled, name)(*args(a, b))
            outcomes.add("returned")
        except ValueError:
            outcomes.add("raised")
        a.release()
        b.release()
    assert outcomes == {"returned", "raised"}


def test_compiled_kernel_is_built_once_per_cache(tmp_path, monkeypatch):
    """A cold call builds the kernel into the cache and loads it; a second
    call loads the cached file without running the compiler."""
    import subprocess

    from concurrel.domains._build import load_compiled

    assert _compiled_kernel(tmp_path).tight_close_inplace(np.zeros((2, 2))) == 0
    built = sorted(tmp_path.iterdir())
    assert len(built) == 1 and built[0].name.startswith("_closure.")

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran on a warm cache")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert load_compiled(tmp_path).tight_close_inplace(np.zeros((2, 2))) == 0
    assert sorted(tmp_path.iterdir()) == built


def test_compiled_kernel_source_has_no_compiler_warnings():
    """``_closure.c`` passes a syntax-only compile with ``-Wall -Wextra``
    (unused parameters aside) and ``-Werror``, under the include
    directories the build uses."""
    import shutil
    import subprocess

    from concurrel.domains import _build

    reason = _cannot_compile()
    if reason:
        pytest.skip(reason)
    flags = _build._flags()
    includes = [f for f in flags if f.startswith("-I")]
    cmd = [shutil.which(flags[0]), "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror",
           "-fsyntax-only", *includes, str(_build.SOURCE)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_changed_kernel_source_builds_a_second_file(tmp_path, monkeypatch):
    """The cache name covers the source: an edited source is compiled into
    a file of its own instead of loading the one built before, and that
    build removes the stale file."""
    import os

    from concurrel.domains import _build

    source = tmp_path / "_closure.c"
    source.write_bytes(_build.SOURCE.read_bytes())
    monkeypatch.setattr(_build, "SOURCE", source)
    cache = tmp_path / "cache"
    first = _compiled_kernel(cache)
    source.write_bytes(source.read_bytes() + b"\n/* edited */\n")
    second = _build.load_compiled(cache)
    assert second is not None and second.__file__ != first.__file__
    assert [f.name for f in cache.iterdir()] == [os.path.basename(second.__file__)]


def test_another_numpy_version_builds_a_second_file(tmp_path, monkeypatch):
    """The kernel uses numpy's C API, so the cache name covers numpy's
    version: a file built against another numpy is never loaded."""
    from concurrel.domains import _build

    cache = tmp_path / "cache"
    first = _compiled_kernel(cache)
    monkeypatch.setattr(_build.np, "__version__", _build.np.__version__ + ".other")
    second = _build.load_compiled(cache)
    assert second is not None and second.__file__ != first.__file__


def test_import_on_a_warm_kernel_cache_loads_no_hashlib():
    """Naming the cached kernel takes no ``hashlib``, which would load
    OpenSSL into every process that imports the package."""
    import os
    import subprocess
    import sys

    import concurrel
    from concurrel.domains._build import load_compiled

    if load_compiled() is None:  # warms the package's cache
        pytest.skip("no compiled kernel")
    src = os.path.dirname(os.path.dirname(concurrel.__file__))
    code = ("import sys, concurrel; from concurrel.domains import KERNEL; "
            "print(KERNEL, sorted({'hashlib', '_hashlib'} & sys.modules.keys()))")
    env = {k: v for k, v in os.environ.items() if k != "CONCURREL_PURE"}
    out = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "compiled []\n" and out.stderr == ""


@pytest.mark.parametrize("failure", ["compile error", "no compiler", "unwritable cache",
                                     "load error"])
def test_failed_kernel_build_returns_none_and_leaves_no_temporary(tmp_path, monkeypatch,
                                                                  failure):
    import subprocess

    from concurrel.domains import _build

    cache = tmp_path / "cache"
    if failure == "compile error":
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(_build, "SOURCE", broken)
    elif failure == "no compiler":
        def missing(*args, **kwargs):
            raise FileNotFoundError(args[0][0])

        monkeypatch.setattr(subprocess, "run", missing)
    elif failure == "unwritable cache":
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
    else:
        def garbage(cmd, **kwargs):  # "compiles" a file that is no extension
            with open(cmd[cmd.index("-o") + 1], "w") as f:
                f.write("not a shared object")

        monkeypatch.setattr(subprocess, "run", garbage)
    assert _build.load_compiled(cache) is None
    leftovers = list(cache.iterdir()) if cache.is_dir() else []
    assert not [f for f in leftovers if f.name.endswith(".tmp")]


def test_concurrel_pure_selects_the_numpy_kernel():
    import os
    import subprocess
    import sys

    import concurrel

    src = os.path.dirname(os.path.dirname(concurrel.__file__))
    code = "from concurrel.domains import KERNEL; print(KERNEL)"
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "CONCURREL_PURE": "1", "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "python\n" and out.stderr == ""


def test_closed_octagons_are_freed_without_the_cycle_collector(programs):
    """No octagon takes part in a reference cycle, so reference counting
    frees every matrix as soon as the analysis drops it."""
    import gc

    from concurrel.analysis import preset, run_analysis
    from concurrel.domains.octagon import OctRel

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it finds in gc.garbage
    try:
        run_analysis(programs["joins"], preset("octagon"))
        gc.collect()
        cyclic = sum(isinstance(o, OctRel) for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert cyclic == 0


# -- octagon transfers ------------------------------------------------------------

def _oct_constraint(data, n):
    """Random octagonal constraint over one or two variables: (coeffs, bound)."""
    from hypothesis import strategies as st

    xs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    coeffs = {x: data.draw(st.sampled_from((1, -1))) for x in xs}
    return coeffs, data.draw(st.integers(-6, 8))


def test_widen_returns_left_operand_when_stable():
    dom = make_domain("octagon", ("x", "y"))
    back = dom.nb
    rng = Random(49)
    for _ in range(50):
        a = satisfiable_relation(dom, rng).num
        b = back.meet(a, satisfiable_relation(dom, rng).num)
        if b is None:
            continue
        assert back.widen(a, b) is a
        assert back.widen(a, a) is a
    a = back.set_interval(back.top(), 0, 0, 0)
    w = back.widen(a, back.set_interval(back.top(), 0, 0, 1))
    assert w is not a and back.bounds(w, 0) == (0, float("inf"))


def test_widen_reads_the_unclosed_matrix_of_its_left_operand():
    """A widening's left operand is the matrix the previous widening
    computed, not its closure: a bound that only the closure implies does
    not survive the next widening (Miné, HOSC 2006)."""
    dom = make_domain("octagon", ("x", "y"))

    def octagon(x_hi, y_hi):  # {x ≤ x_hi, y ≤ y_hi, x − y ≤ 0}
        r = dom.guard(dom.top(), Cmp("<=", Var("x"), IntLit(x_hi)))
        r = dom.guard(r, Cmp("<=", Var("y"), IntLit(y_hi)))
        return dom.guard(r, Cmp("<=", Var("x"), Var("y")))

    inf = float("inf")
    w = dom.widen(octagon(-5, 0), octagon(0, 0))
    # x ≤ −5 grew, so the widening dropped it; x ≤ y ≤ 0 still gives x ≤ 0
    assert dom.unlift_var(w, "x") == IntAbs(-inf, 0)
    w2 = dom.widen(w, octagon(0, 1))
    assert dom.unlift_var(w2, "x") == IntAbs.top()
    assert dom.unlift_var(w2, "y") == IntAbs.top()
    assert not dom.contains(w2, {"x": 1, "y": 0})  # x − y ≤ 0 is stable


def test_octagon_assign_negation_of_other():
    dom = make_domain("octagon", ("x", "y"))
    r = dom.assign_value(dom.top(), "y", IntAbs(1, 2))
    r = dom.assign_expr(r, "x", BinOp("-", IntLit(0), Var("y")))  # x := -y
    assert dom.unlift_var(r, "x") == IntAbs(-2, -1)
    assert gamma(dom, r, ("x", "y"), -3, 3) == {(-1, 1), (-2, 2)}  # x + y = 0 kept


def test_octagon_assign_negation_of_self():
    dom = make_domain("octagon", ("x", "y"))
    r = dom.assign_value(dom.top(), "x", IntAbs(1, 2))
    r = dom.guard(r, Cmp("==", Var("y"), Var("x")))
    r = dom.assign_expr(r, "x", BinOp("-", IntLit(3), Var("x")))  # x := 3 - x
    assert dom.unlift_var(r, "x") == IntAbs(1, 2)
    # x + y = 3 after the update
    assert gamma(dom, r, ("x", "y"), 0, 3) == {(1, 2), (2, 1)}


def test_octagon_shift_assignment():
    dom = make_domain("octagon", ("x", "y"))
    r = dom.guard(dom.top(), Cmp("==", Var("x"), Var("y")))
    r = dom.guard(r, Cmp("<=", Var("x"), IntLit(5)))
    r = dom.assign_expr(r, "x", BinOp("+", Var("x"), IntLit(2)))  # x := x + 2
    assert dom.unlift_var(r, "x").hi == 7
    assert dom.is_bot(dom.guard(r, Cmp("!=", Var("x"), BinOp("+", Var("y"), IntLit(2)))))


def test_octagon_nonoctagonal_fallbacks_sound():
    dom = make_domain("octagon", ("x", "y", "z"))
    r = dom.assign_value(dom.top(), "y", IntAbs(1, 2))
    r2 = dom.assign_expr(r, "x", BinOp("*", IntLit(2), Var("y")))  # interval fallback
    assert dom.unlift_var(r2, "x") == IntAbs(2, 4)
    # three-variable guard: sound (identity or refinement), never loses states
    r3 = dom.guard(r2, Cmp("<=", BinOp("+", Var("x"), Var("y")), Var("z")))
    for vals in gamma(dom, r2, ("x", "y", "z"), 0, 6):
        store = dict(zip(("x", "y", "z"), vals))
        if store["x"] + store["y"] <= store["z"]:
            assert dom.contains(r3, store)
    # contradiction via interval evaluation is detected
    r4 = dom.guard(r, Cmp("<=", BinOp("+", Var("y"), Var("y")), IntLit(1)))
    assert dom.is_bot(r4)


def test_nonlinear_arithmetic_is_not_tracked(dom):
    """A product of two variables has no linear form: assigning it forgets
    the target and keeps everything else, and a guard over it refines
    nothing."""
    prod = BinOp("*", Var("y"), Var("z"))
    assert linear_form(prod) is None
    r = dom.assign_value(dom.top(), "y", IntAbs.const(2))
    r = dom.assign_value(dom.assign_value(r, "z", IntAbs.const(3)), "x", IntAbs.const(1))
    r2 = dom.assign_expr(r, "x", prod)
    assert eq(dom, r2, dom.assign_value(r, "x", IntAbs.top()))
    assert dom.unlift_var(r2, "x") == IntAbs.top() and dom.unlift_var(r2, "z") == IntAbs.const(3)
    for op in OPS:
        assert dom.guard(r, Cmp(op, prod, IntLit(5))) is r
        assert dom.guard(r, Cmp(op, Var("x"), prod)) is r


def test_unlift_lift_above_identity():
    """unlift ∘ lift ⊒ id on variable assignments, all numeric domains: each
    variable's ``unlift_var`` is above the interval ``assign_value`` gave it."""
    from hypothesis import given, settings, strategies as st

    bounds = st.tuples(st.integers(-3, 5), st.integers(-3, 5)).map(
        lambda t: IntAbs(min(t), max(t)))

    @settings(max_examples=120, deadline=None)
    @given(st.dictionaries(st.sampled_from(("x", "y", "z")), bounds), 
           st.sampled_from(DOMAINS))
    def check(entries, numeric):
        dom = make_domain(numeric, ("x", "y", "z"))
        r = dom.top()
        for x, v in entries.items():
            r = dom.assign_value(r, x, v)
        for x, v in entries.items():
            w = dom.unlift_var(r, x)
            assert w.lo <= v.lo and v.hi <= w.hi

    check()


def test_meet_of_disjoint_tid_sets_is_bot():
    from concurrel.digests import AbstractTid, CreateEdge
    from concurrel.frontend.cfg import Point

    dom = make_domain("octagon", ("x",))
    e1 = CreateEdge(Point("main", 1), "t1")
    e2 = CreateEdge(Point("main", 2), "t2")
    a = dom.assign_value(dom.top(), "self", frozenset({AbstractTid((e1,), frozenset())}))
    b = dom.assign_value(dom.top(), "self", frozenset({AbstractTid((e2,), frozenset())}))
    assert dom.is_bot(dom.meet(a, b))
    assert not dom.is_bot(dom.join(a, b))


def test_guard_eq_closes_like_the_meet_of_both_halves():
    """``guard_eq`` adds both bounds and closes over the guard's variables;
    that is the meet of the two ``guard_leq0`` halves, octagons and
    intervals alike."""
    rng = Random(50)
    for numeric in ("octagon", "interval"):
        dom = make_domain(numeric, ("x", "y", "z"))
        back = dom.nb
        for _ in range(200):
            r = satisfiable_relation(dom, rng).num
            xs = rng.sample(range(3), rng.choice((1, 2, 2, 3)))
            coeffs = {x: rng.choice((1, -1, 1, 2)) for x in xs}
            const = rng.randint(-4, 4)
            lo = back.guard_leq0(r, coeffs, const)
            hi = back.guard_leq0(r, {x: -cf for x, cf in coeffs.items()}, -const)
            want = None if lo is None or hi is None else back.meet(lo, hi)
            got = back.guard_eq(r, coeffs, const)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.vars == want.vars and np.array_equal(got.m, want.m)


# -- packed octagons ----------------------------------------------------------------

def _raw_pack(data, n):
    """Random octagonal constraints over a random subset of the n
    variables: (vars, raw matrix)."""
    from hypothesis import strategies as st

    from concurrel.domains._closure_py import bound
    from concurrel.domains.octagon import _entries

    vars = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n))))
    k = len(vars)
    m = np.full((2 * k, 2 * k), np.inf)
    np.fill_diagonal(m, 0.0)
    constraints = [_oct_constraint(data, k)
                   for _ in range(data.draw(st.integers(0, 2 * k)) if k else 0)]
    return vars, bound(m, None, _entries(tuple(range(k)), constraints))


def _packed(data, back, n):
    """A random octagon over a random subset of the n variables, or None
    when its constraints are unsatisfiable."""
    vars, m = _raw_pack(data, n)
    return back.close(vars, m)


def _full_matrix(vars, m, n):
    """The full-universe matrix of the matrix ``m`` over ``vars``."""
    full = np.full((2 * n, 2 * n), np.inf)
    np.fill_diagonal(full, 0.0)
    idx = [i for x in vars for i in (2 * x, 2 * x + 1)]
    full[np.ix_(idx, idx)] = m
    return full


def _full(r, n):
    """The full-universe matrix of a packed octagon; None for None."""
    return None if r is None else _full_matrix(r.vars, r.m, n)


def _full_close(m):
    from concurrel.domains._closure_py import tight_close_inplace

    c = np.array(m)
    return None if tight_close_inplace(c) else c


def _same(got, want) -> bool:
    return got is None and want is None or (
        got is not None and want is not None and np.array_equal(got, want))


def test_packed_operations_equal_full_universe_ones(request, monkeypatch):
    """On octagons over different variables, the packed closure, join, meet,
    widen, ⊑ and forget give, embedded into the full universe, the
    matrices and emptiness verdicts of the full-universe definitions, under
    the numpy kernel and, where it can be compiled, the C kernel.  Only the
    closure sees unsatisfiable matrices: no other operation takes ⊥."""
    from hypothesis import given, settings, strategies as st

    from concurrel.domains import _closure_py

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 5))
        back = OctBackend(n)
        (va, ma), (vb, mb) = _raw_pack(data, n), _raw_pack(data, n)
        a, b = back.close(va, np.array(ma)), back.close(vb, np.array(mb))
        ca, cb = _full(a, n), _full(b, n)

        assert _same(ca, _full_close(_full_matrix(va, ma, n)))
        assert _same(cb, _full_close(_full_matrix(vb, mb, n)))
        if a is None or b is None:
            return
        assert _same(_full(back.join(a, b), n), np.maximum(ca, cb))
        assert _same(_full(back.meet(a, b), n), _full_close(np.minimum(ca, cb)))
        want = np.where(cb <= ca, ca, np.inf)
        w = back.widen(a, b)
        assert _same(_full(w, n), _full_close(want))
        # the next widening starts from the unclosed matrix
        raw = _full_matrix(w.vars, w.m if w.widened is None else w.widened, n)
        assert _same(raw, want)
        c = _packed(data, back, n)
        if c is not None:
            want = np.where(_full(c, n) <= raw, raw, np.inf)
            assert _same(_full(back.widen(w, c), n), _full_close(want))
        assert back.leq(a, b) == bool((ca <= cb).all())
        xs = data.draw(st.lists(st.integers(0, n - 1), max_size=2))
        want = np.array(ca)
        for x in xs:
            want[2 * x : 2 * x + 2, :] = want[:, 2 * x : 2 * x + 2] = np.inf
            want[2 * x, 2 * x] = want[2 * x + 1, 2 * x + 1] = 0.0
        assert _same(_full(back.forget(a, xs), n), want)

    for module in [_closure_py] + ([] if _cannot_compile() else [request.getfixturevalue("compiled")]):
        use_kernel(monkeypatch, module)
        check()


@pytest.mark.parametrize("intervalize", [False, True])
def test_transfer_sequence_is_equal_under_both_kernels(compiled, monkeypatch, intervalize):
    """A fixed sequence of transfers (assign in all four forms, guard, meet,
    join, widen, restrict) gives equal ``(vars, m, widened)`` under the
    numpy and the C kernel, with an unsatisfiable result (None) among them
    and, on octagons, an unclosed widening."""
    from concurrel.domains import _closure_py

    def run(module):
        use_kernel(monkeypatch, module)
        back = OctBackend(6, intervalize)
        r = back.set_interval(back.top(), 0, 0, 10)
        r = back.assign_linear(r, 1, {0: 1}, 3)  # x := y + c
        r = back.assign_linear(r, 2, {0: -1}, 2)  # x := −y + c
        r = back.assign_linear(r, 1, {1: 1}, 4)  # x := x + c
        r = back.assign_linear(r, 2, {2: -1}, 1)  # x := −x + c
        r = back.assign_linear(r, 3, {0: 1, 1: 2}, 0)  # x := sum, as an interval
        r = back.assign_linear(r, 4, {}, 7)  # x := c
        g = back.guard_leq0(r, {0: 1, 3: -1}, 2)
        e = back.guard_eq(back.forget(r, [5]), {4: 1, 5: -1}, 0)
        met = back.meet(g, e)
        bot = back.guard_leq0(met, {1: 1, 0: -1}, 4)  # x1 − x0 + 4 ≤ 0 contradicts x1 = x0 + 7
        j = back.join(g, back.forget(e, [1]))
        # x0 ≤ 8 is tighter than x0 − x1 ≤ 3 and x1 ≤ 6 give: widening it
        # away leaves a matrix that closes to x0 ≤ 9
        a = back.guard_leq0(back.set_interval(j, 1, 0, 6), {0: 1, 1: -1}, -3)
        a = back.set_interval(a, 5, 0, 0)
        step = back.join(a, back.guard_leq0(back.assign_linear(a, 0, {0: 1}, 1),
                                            {0: 1, 1: -1}, -3))
        w1 = back.widen(a, step)
        w2 = back.widen(w1, back.join(w1, back.assign_linear(w1, 3, {3: 1}, -2)))
        w3 = back.widen(w2, back.guard_neq(e, {4: 1}, -6))  # x4 = 7 in e: one half is empty
        rs = back.restrict(w3, {0, 1, 3})
        values = [r, g, e, met, bot, j, a, step, w1, w2, w3, rs]
        return [None if v is None else (v.vars, v.m.tobytes(),
                                        None if v.widened is None else v.widened.tobytes())
                for v in values]

    pure = run(_closure_py)
    assert pure == run(compiled)
    assert None in pure
    assert intervalize or any(v and v[2] is not None for v in pure)  # intervals close as they are


def test_every_interned_octagon_holds_read_only_matrices(compiled, monkeypatch, programs):
    """Under both kernels, after solving the corpus under the benchmark's
    five configurations and a loop that widens, every octagon the domain
    interned has a read-only matrix, and a read-only ``widened`` where it
    has one: ``OctRel`` freezes what it holds, whatever the kernel
    returned."""
    import os

    from concurrel.analysis import preset, run_analysis
    from concurrel.domains import _closure_py
    from concurrel.domains.octagon import OctRel
    from concurrel.frontend import parse_program

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads

    # widening drops the upper bound of x, which closure derives again from
    # x - y <= 2 and y <= 6: the widened matrix is not closed
    loop = parse_program("""
    thread main {
      y = ?;
      if (y >= 0) { if (y <= 6) {
        x = 0;
        while (x < y + 3) { if (x < 8) { x = x + 1; } }
      } }
    }
    """)
    runs = [(p, c) for p in programs.values() for c in workloads.CORPUS_CONFIGS.values()]
    runs.append((loop, preset("octagon")))
    for kernel in (_closure_py, compiled):
        use_kernel(monkeypatch, kernel)
        seen = {"m": 0, "widened": 0}
        for program, config in runs:
            for rel in run_analysis(program, config).dom._interned.values():
                if isinstance(rel.num, OctRel):
                    assert not rel.num.m.flags.writeable
                    seen["m"] += 1
                    if rel.num.widened is not None:
                        assert not rel.num.widened.flags.writeable
                        seen["widened"] += 1
        assert min(seen.values()) > 0, (kernel.__name__, seen)


def test_join_returns_the_left_operand_when_the_right_adds_nothing():
    dom = make_domain("octagon")
    back = dom.nb
    rng = Random(51)
    shared = 0
    for _ in range(200):
        a = satisfiable_relation(dom, rng).num
        b = back.meet(a, satisfiable_relation(dom, rng).num)  # b ⊑ a
        if b is None:
            continue
        assert back.join(a, b) is a
        assert back.join(b, b) is b
        shared += b.vars != a.vars
    assert shared > 0  # some b had more variables than a


def test_cluster_relations_are_packed_to_their_cluster(programs):
    """Under the clusters preset every join-local relation in L relates the
    variables of one cluster of at most 2, not the whole universe."""
    from concurrel.analysis import preset, run_analysis
    from concurrel.analysis.improved_system import ImprovedState

    result = run_analysis(programs["intro_cluster"], preset("clusters"))
    dims = [rel.num.m.shape[0] for v in result.solver.values.values()
            if isinstance(v, ImprovedState) for rel in v.l.values() if not rel.bot]
    assert dims and max(dims) <= 4


def test_eqconst_join_equals_the_pairwise_definition():
    from domain_utils import pairwise_eq_join

    rng = Random(52)
    dom = make_domain("eqconst")
    for _ in range(300):
        a, b = satisfiable_relation(dom, rng).num, satisfiable_relation(dom, rng).num
        assert _eq_form(dom.nb.join(a, b)) == _eq_form(pairwise_eq_join(dom.nb, a, b))


def _eq_form(r):
    """An eqconst value's (rep items, consts items), after checking it is
    canonical: both maps are in increasing key order, each representative
    is the least member of its class, every listed variable shares its
    class or has a constant, constants sit on representatives, and no two
    classes share a constant.  None for None (an unsatisfiable result)."""
    from collections import Counter

    if r is None:
        return None
    size = Counter(r.rep.values())
    assert list(r.rep) == sorted(r.rep) and list(r.consts) == sorted(r.consts)
    assert all(rx <= x and r.rep[rx] == rx for x, rx in r.rep.items())
    assert all(size[rx] > 1 or rx in r.consts for rx in r.rep.values())
    assert all(r.rep.get(x) == x for x in r.consts)
    assert len(set(r.consts.values())) == len(r.consts)
    return tuple(r.rep.items()), tuple(r.consts.items())


def test_eqconst_commuting_operations_give_one_canonical_form():
    """meet, join and a sequence of equality guards give identical (rep,
    consts) in either order; ``implies_eq`` reads equality off ``rep`` alone,
    so classes with equal constants must always be merged.  (Inequality
    guards are not exact, so their order may change the result.)"""
    rng = Random(53)
    dom = make_domain("eqconst")
    nb, names = dom.nb, dom.universe.int_vars
    for _ in range(300):
        a, b = satisfiable_relation(dom, rng), satisfiable_relation(dom, rng)
        assert _eq_form(nb.meet(a.num, b.num)) == _eq_form(nb.meet(b.num, a.num))
        assert _eq_form(nb.join(a.num, b.num)) == _eq_form(nb.join(b.num, a.num))
        guards = [Cmp("==", Var(rng.choice(names)),
                      Var(rng.choice(names)) if rng.random() < 0.5 else IntLit(rng.randint(0, 2)))
                  for _ in range(rng.randint(1, 4))]
        forward, backward = a, a
        for g, h in zip(guards, reversed(guards)):
            forward, backward = dom.guard(forward, g), dom.guard(backward, h)
        assert _eq_form(forward.num) == _eq_form(backward.num)


# -- interned relations and memoized lattice operations ---------------------------

_LATTICE_OPS = ("join", "widen", "meet", "leq")


def _recipe(data, maker):
    """A relation to build in some domain: a numeric value made by ``maker``
    (a packed octagon from ``_packed`` or the end of a random transfer
    sequence; widened by another one or not; None for ⊥) and thread-id
    sets for ``self`` and ``t``, ⊤ included."""
    from hypothesis import strategies as st
    from concurrel.domains.values import TID_TOP

    def rel():
        if maker.numeric == "octagon" and data.draw(st.booleans()):
            return maker._mk(_packed(data, maker.nb, len(maker.universe.int_vars)), {})
        return random_relation(maker, Random(data.draw(st.integers(0, 9999))))

    r = rel()
    if data.draw(st.booleans()):
        r = maker.widen(r, rel())
    n = r.num
    sets = (TID_TOP, frozenset({"t1"}), frozenset({"t2"}), frozenset({"t1", "t2"}))
    return n, {v: data.draw(st.sampled_from(sets)) for v in ("self", "t")}


def test_memoized_operations_equal_those_of_a_fresh_domain():
    """With its memo and intern table full (the thread-id-free variants of
    the operands built first), a domain's join, widen, meet and ⊑ agree
    with those of a fresh domain that builds the same operands, and a
    repeated call returns the identical object."""
    from itertools import product

    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        numeric = data.draw(st.sampled_from(DOMAINS))
        maker = make_domain(numeric, ("x", "y", "z"))
        recipes = [_recipe(data, maker) for _ in range(3)]
        dom = make_domain(numeric, ("x", "y", "z"))
        for num, _ in recipes:
            dom._mk(num, {})
        rs = [dom._mk(num, dict(tids)) for num, tids in recipes]
        for a, b in product(rs, repeat=2):
            for op in _LATTICE_OPS:
                getattr(dom, op)(a, b)
        for i, j in product(range(len(rs)), repeat=2):
            fresh = make_domain(numeric, ("x", "y", "z"))
            a, b = (fresh._mk(num, dict(tids)) for num, tids in (recipes[i], recipes[j]))
            judge = make_domain(numeric, ("x", "y", "z"))
            for op in ("join", "widen", "meet"):
                got, want = getattr(dom, op)(rs[i], rs[j]), getattr(fresh, op)(a, b)
                assert dom.render(got) == fresh.render(want), op
                assert eq(judge, got, want), op
                assert getattr(dom, op)(rs[i], rs[j]) is got, op
            assert dom.leq(rs[i], rs[j]) == fresh.leq(a, b) == judge.leq(a, b)

    check()


def test_relations_built_from_equal_representations_are_one_object():
    """Two relations built separately from equal representations are one
    object, widened values included, whatever the order of the thread-id
    map and of the eqconst equalities and constants they were built from; a
    widened value is keyed by both of its matrices, so it is another
    relation than its closure alone when the two differ, with the same
    meaning."""
    from hypothesis import given, settings, strategies as st
    from concurrel.domains.eqconst import EqRel, _canon
    from concurrel.domains.octagon import OctRel

    def copy(num):
        if num is None:  # ⊥
            return None
        if isinstance(num, EqRel):  # built again, from both maps reversed
            return _canon(reversed(list(num.rep.items())), reversed(list(num.consts.items())))
        return OctRel(num.vars, np.array(num.m),
                      None if num.widened is None else np.array(num.widened))

    def reordered(tids):
        return dict(reversed(list(tids.items())))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        numeric = data.draw(st.sampled_from(DOMAINS))
        dom = make_domain(numeric, ("x", "y", "z"))
        (num, tids), (other, _) = _recipe(data, dom), _recipe(data, dom)
        r1, r2 = dom._mk(num, tids), dom._mk(copy(num), reordered(tids))
        assert r2 is r1
        if dom.is_bot(r1):
            assert r1 is dom.bot()
        o = dom._mk(other, tids)
        w = dom.widen(r1, o)
        if dom.is_bot(w):
            return
        assert dom._mk(copy(w.num), reordered(w.tids)) is w
        assert dom._upper(r1, o, dom.nb.widen) is w  # computed again, unmemoized
        if getattr(w.num, "widened", None) is not None:
            closed = dom._mk(OctRel(w.num.vars, w.num.m), dict(w.tids))
            assert (closed is w) == np.array_equal(w.num.m, w.num.widened)
            assert dom.render(closed) == dom.render(w)

    check()


@pytest.mark.parametrize("numeric", DOMAINS)
def test_equal_values_built_in_either_order_are_one_object(numeric):
    """``x = 1; y = 2`` and ``y = 2; x = 1`` from ⊤ give one relation, and
    so does a thread-id map {self: {m}, t: {c}} filled in either order; the
    intern table then holds ⊤, x=1, y=2 and the one relation of both."""
    dom = make_domain(numeric, ("x", "y"))
    one, two = IntLit(1), IntLit(2)
    a = dom.assign_expr(dom.assign_expr(dom.top(), "x", one), "y", two)
    b = dom.assign_expr(dom.assign_expr(dom.top(), "y", two), "x", one)
    assert a is b and dom.relations == 4
    m, c = frozenset({"m"}), frozenset({"c"})
    a = dom.assign_value(dom.assign_value(dom.top(), "self", m), "t", c)
    b = dom.assign_value(dom.assign_value(dom.top(), "t", c), "self", m)
    assert a is b


def test_join_returns_its_left_operand_exactly_when_the_right_adds_nothing():
    """``join(a, b) is a`` iff b ⊑ a, over octagon, interval and eqconst
    operands, widened ones included: the solver stops an update when the
    join returns the old value itself, without asking ⊑."""
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def check(data):
        dom = make_domain(data.draw(st.sampled_from(DOMAINS)), ("x", "y", "z"))
        a, b = (dom._mk(*_recipe(data, dom)) for _ in range(2))
        j, m, w = dom.join(a, b), dom.meet(a, b), dom.widen(a, b)
        pairs = [(a, b), (b, a), (a, a), (j, a), (j, b), (a, j), (a, m), (m, a), (b, m),
                 (w, a), (w, b), (j, w), (w, j), (a, dom.bot()), (dom.bot(), a), (a, dom.top()),
                 (dom.top(), a)]
        for x, y in pairs:
            assert (dom.join(x, y) is x) == dom.leq(y, x)

    check()


def test_packed_eqconst_agrees_with_the_full_universe_reference():
    """Random transfer sequences, run step for step through the packed
    backend and through the full-universe one it replaced
    (``eqconst_reference``), render alike, and the two agree on ⊑ both ways
    between any two satisfiable values, and on their meets and joins.  The
    packed backend's None (an unsatisfiable result) is the reference's ⊥,
    and ends its sequence."""
    from eqconst_reference import EqBackend as RefBackend, EqRel as RefRel

    from concurrel.domains.eqconst import EqBackend

    n = 5
    new, ref = EqBackend(n), RefBackend(n)
    names = [f"v{i}" for i in range(n)]
    rng = Random(54)

    def run(nb):
        r = nb.top()
        for op, args in script:
            if op == "restrict":
                r = nb.restrict(r, set(args))
            elif op == "set_interval":
                r = nb.set_interval(r, *args)
            else:
                r = getattr(nb, op)(r, *args)
            if r is None:
                break
        return r

    def render(r):
        return ["⊥"] if r is None else new.render(r, names)

    pairs = []
    for _ in range(300):
        script = []
        for _ in range(rng.randint(1, 8)):
            x, y = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            script.append(rng.choice([
                ("set_interval", (x, c, c)),
                ("set_interval", (x, c, c + 1)),
                ("assign_linear", (x, {y: 1}, 0)),
                ("assign_linear", (x, {y: 1}, c)),
                ("assign_linear", (x, {x: 1, y: -1}, c)),
                ("assign_linear", (x, {}, c)),
                ("guard_eq", ({x: 1, y: -1}, 0)),
                ("guard_eq", ({x: 1}, c)),
                ("guard_eq", ({x: 2, y: 1}, c)),
                ("guard_neq", ({x: 1, y: -1}, 0)),
                ("guard_neq", ({x: 1}, c)),
                ("guard_leq0", ({x: 1, y: 1}, c)),
                ("restrict", rng.sample(range(n), rng.randint(0, n))),
            ]))
        a, b = run(new), run(ref)
        assert render(a) == ref.render(b, names)
        if a is None:
            continue
        assert new.support(a) == ref.support(b)
        full = RefRel(tuple(a.rep.get(i, i) for i in range(n)), dict(a.consts))
        assert ref.leq(full, b) and ref.leq(b, full)
        pairs.append((a, b))
    for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
        assert new.leq(a1, a2) == ref.leq(b1, b2) and new.leq(a2, a1) == ref.leq(b2, b1)
        for op in ("meet", "join", "widen"):
            got, want = getattr(new, op)(a1, a2), getattr(ref, op)(b1, b2)
            assert render(got) == ref.render(want, names), op
