"""Solver behavior on small hand-built systems over the interval lattice."""

import pytest

from concurrel.domains.values import BOT, INF, IntAbs, int_join, int_leq, int_widen
from concurrel.solver import BudgetExceeded, Constraint, Solver


class IntervalSystem:
    """Tiny test system: values are IntAbs (or the shared BOT)."""

    def __init__(self, initial=(), spawned=None):
        self._initial = list(initial)
        self._spawned = spawned or {}

    def initial(self):
        return self._initial

    def constraints_for(self, key):
        return self._spawned.get(key, [])

    def namespace(self, key):
        return None

    def join(self, key, a, b):
        return int_join(a, b)

    def widen(self, key, a, b):
        return int_widen(a, b)

    def leq(self, key, a, b):
        return int_leq(a, b)


def test_initial_constraints_start_the_solve():
    solver = Solver(IntervalSystem())
    assert solver.solve() == {}
    start = Constraint("start:=7", lambda view: {"start": IntAbs.const(7)})
    solver = Solver(IntervalSystem(initial=[start]))
    assert solver.solve() == {"start": IntAbs.const(7)}


def test_self_loop_widens_to_infinity():
    def rhs(view):
        v = view.get("x")
        if v is None:
            return {"x": IntAbs.const(0)}
        return {"x": IntAbs(v.lo, v.hi + 1)}

    solver = Solver(IntervalSystem(initial=[Constraint("x+=1", rhs)]))
    solver.solve()
    v = solver.values["x"]
    assert v.lo == 0 and v.hi == INF
    assert solver.check_post_solution() == []


def test_side_effect_propagation_chain():
    # A side-effects B; C consults B; growing B re-triggers C.
    def rhs_a(view):
        return {"B": IntAbs(0, 3)}

    def rhs_c(view):
        b = view.get("B")
        return {} if b is None else {"C": b}

    solver = Solver(IntervalSystem(initial=[Constraint("A", rhs_a), Constraint("C", rhs_c)]))
    solver.solve()
    assert solver.values["C"] == IntAbs(0, 3)


def test_values_grow_monotonically():
    seen = []

    def rhs(view):
        v = view.get("x") or IntAbs.const(0)
        seen.append(v)
        return {"x": IntAbs(0, min(v.hi + 1, 3))}

    solver = Solver(IntervalSystem(initial=[Constraint("grow", rhs)]))
    solver.solve()
    for a, b in zip(seen, seen[1:]):
        assert int_leq(a, b)
    assert solver.check_post_solution() == []


class NoWidenSystem(IntervalSystem):
    """Widening keeps the joined value, so growth never stabilizes."""

    def widen(self, key, a, b):
        return b


def test_budget_exceeded():
    def rhs(view):
        v = view.get("x") or IntAbs.const(0)
        return {"x": IntAbs(v.lo - 1, v.hi)}  # descending lows never stabilize

    solver = Solver(NoWidenSystem(initial=[Constraint("down", rhs)]), budget=50)
    with pytest.raises(BudgetExceeded):
        solver.solve()


def test_dynamic_constraint_spawning():
    # constraints for "B" appear only once "B" receives a value
    def rhs_a(view):
        return {"B": IntAbs.const(1)}

    def rhs_b(view):
        v = view.get("B")
        return {} if v is None else {"C": v}

    system = IntervalSystem(
        initial=[Constraint("A", rhs_a)],
        spawned={"B": [Constraint("B->C", rhs_b)]},
    )
    solver = Solver(system)
    solver.solve()
    assert solver.values["C"] == IntAbs.const(1)


def test_determinism():
    def mk():
        def rhs_a(view):
            return {"B": IntAbs(0, 2), "D": IntAbs(1, 1)}

        def rhs_c(view):
            b = view.get("B")
            d = view.get("D")
            out = {}
            if b is not None:
                out["C"] = b
            if d is not None:
                out["C"] = int_join(out.get("C", BOT), d)
            return out

        s = Solver(IntervalSystem(initial=[Constraint("A", rhs_a), Constraint("C", rhs_c)]))
        s.solve()
        return sorted((str(k), repr(v)) for k, v in s.values.items())

    assert mk() == mk()


def test_narrowing_keeps_every_initial_contribution():
    solver = Solver(IntervalSystem(initial=[
        Constraint("x:=0", lambda view: {"x": IntAbs.const(0)}),
        Constraint("x:=7", lambda view: {"x": IntAbs.const(7)}),
    ]))
    solver.solve()
    assert solver.values["x"] == IntAbs(0, 7)
    assert solver.check_post_solution() == []
    # the post-solution check names the constraint whose effect is not below
    solver.values["x"] = IntAbs.const(0)
    assert solver.check_post_solution() == ["x:=7 -> x"]


def test_narrowing_recovers_the_widening_overshoot_without_reevaluating():
    calls = []

    def init(view):
        calls.append("init")
        return {"x": IntAbs.const(0)}

    def step(view):  # x := x + 1 while x < 10
        calls.append("step")
        v = view.get("x")
        return {} if v is None else {"x": IntAbs(v.lo, min(v.hi + 1, 10))}

    solver = Solver(IntervalSystem(initial=[Constraint("init", init), Constraint("step", step)]))
    solver.solve()
    assert solver.stats.widened > 0  # widening overshot to [0, +∞] ...
    assert solver.values["x"] == IntAbs(0, 10)  # ... and narrowing recovered [0, 10]
    assert solver.stats.evaluations == len(calls)  # every call was a worklist evaluation
    assert solver.last_effects == {}  # the cached effects are freed
    assert solver.check_post_solution() == []
    assert len(calls) == solver.stats.evaluations + 2  # the check re-ran both, uncounted
