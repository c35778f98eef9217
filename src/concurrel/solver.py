"""Demand-driven worklist solver for side-effecting constraint systems.

A solve starts from the system's ``initial`` constraints alone.  Unknowns
are discovered dynamically: when a key first receives a non-⊥ value, the
system is asked for the constraints it spawns (e.g. the outgoing CFG edges
of a program point), and constraints subscribed to the key's namespace
(e.g. "some unknown of mutex a appeared") are rescheduled.

Right-hand sides read the current assignment through a view that records
dependencies, and return a dict of effects {key: value}; contributions and
side-effects are treated alike and accumulate by join.  Widening escalates
per key after a fixed number of strict increases, which terminates even for
growth cycles that pass through mutex unknowns rather than CFG back edges.
One narrowing sweep recovers most of the overshoot afterwards (Apinis, Seidl
and Vojdani, "Side-effecting constraint systems", APLAS 2012): every key
becomes the join of the effects of every constraint on the final assignment.

The sweep does not call a right-hand side again.  The worklist ends only
when each constraint's last evaluation read the current value of every key
and namespace it read (a later change would have rescheduled it), and a
right-hand side is a deterministic function of what it reads through its
view; so the effects kept from each constraint's last evaluation are the
effects it has on the final assignment.  ``values`` is the one record of
discovered unknowns; ``_reevaluate`` runs every right-hand side again, only
for ``check_post_solution``, which verifies the narrowed assignment
independently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Protocol


DEFAULT_BUDGET = 1_000_000  # constraint evaluations before a solve is aborted
WIDEN_DELAY = 6  # strict increases of a key before its updates widen


class BudgetExceeded(RuntimeError):
    def __init__(self, evaluations: int):
        super().__init__(
            f"solver aborted after {evaluations} constraint evaluations; "
            "set CONCURREL_STEP_BUDGET to raise the limit"
        )


@dataclass
class Constraint:
    name: str | Callable[[], str]  # a callable is formatted only by describe()
    rhs: Callable[["View"], dict[Any, Any]]
    cid: int = -1

    def describe(self) -> str:
        return self.name() if callable(self.name) else self.name


class System(Protocol):
    def initial(self) -> list[Constraint]: ...
    def constraints_for(self, key) -> list[Constraint]: ...
    def namespace(self, key): ...  # hashable | None
    def join(self, key, a, b): ...
    def widen(self, key, a, b): ...
    def leq(self, key, a, b) -> bool: ...


class View:
    """Read access to the current assignment with dependency recording."""

    def __init__(self, solver: "Solver"):
        self._s = solver
        self.reads: set[Any] = set()
        self.ns_reads: set[Any] = set()

    def get(self, key):
        self.reads.add(key)
        return self._s.values.get(key)

    def keys_in(self, namespace) -> list:
        """Known unknowns of a namespace, in discovery order (deterministic)."""
        self.ns_reads.add(namespace)
        return list(self._s.by_namespace.get(namespace, ()))


@dataclass
class SolveStats:
    evaluations: int = 0
    widened: int = 0


class Solver:
    def __init__(self, system: System, budget: int = DEFAULT_BUDGET):
        self.system = system
        self.budget = budget
        self.values: dict[Any, Any] = {}
        self.by_namespace: dict[Any, list[Any]] = {}
        self.constraints: list[Constraint] = []
        self.deps: dict[Any, set[int]] = {}  # key -> constraint ids reading it
        self.ns_deps: dict[Any, set[int]] = {}
        self.last_reads: dict[int, set[Any]] = {}
        self.last_effects: dict[int, dict[Any, Any]] = {}  # freed by _narrow
        self.updates: dict[Any, int] = {}
        self.stats = SolveStats()

    # -- bookkeeping --

    def _add_constraint(self, c: Constraint) -> None:
        c.cid = len(self.constraints)
        self.constraints.append(c)

    def _register_key(self, key, queue) -> None:
        """A key's first value: wake its namespace's readers and spawn its
        constraints.  ``values`` is the one record of registered keys."""
        ns = self.system.namespace(key)
        if ns is not None:
            self.by_namespace.setdefault(ns, []).append(key)
            for cid in sorted(self.ns_deps.get(ns, ())):
                self._schedule(cid, queue)
        for c in self.system.constraints_for(key):
            self._add_constraint(c)
            self._schedule(c.cid, queue)

    def _schedule(self, cid: int, queue) -> None:
        if cid not in self._queued:
            self._queued.add(cid)
            queue.append(cid)

    def _apply(self, key, value, queue) -> None:
        old = self.values.get(key)
        if old is None:
            self.values[key] = value
            self._register_key(key, queue)
        else:
            if self.system.leq(key, value, old):
                return
            joined = self.system.join(key, old, value)
            self.updates[key] = self.updates.get(key, 0) + 1
            if self.updates[key] > WIDEN_DELAY:
                joined = self.system.widen(key, old, joined)
                self.stats.widened += 1
            self.values[key] = joined
        for cid in sorted(self.deps.get(key, ())):
            self._schedule(cid, queue)

    def _evaluate(self, cid: int, queue) -> None:
        self.stats.evaluations += 1
        if self.stats.evaluations > self.budget:
            raise BudgetExceeded(self.stats.evaluations)
        c = self.constraints[cid]
        view = View(self)
        effects = c.rhs(view)
        for key in self.last_reads.get(cid, ()):  # re-point stale deps
            self.deps.get(key, set()).discard(cid)
        self.last_reads[cid] = view.reads
        self.last_effects[cid] = effects
        for key in view.reads:
            self.deps.setdefault(key, set()).add(cid)
        for ns in view.ns_reads:
            self.ns_deps.setdefault(ns, set()).add(cid)
        for key, value in effects.items():
            self._apply(key, value, queue)

    # -- main loop --

    def solve(self) -> dict[Any, Any]:
        queue: deque[int] = deque()
        self._queued: set[int] = set()
        for c in self.system.initial():
            self._add_constraint(c)
            self._schedule(c.cid, queue)
        while queue:
            cid = queue.popleft()
            self._queued.discard(cid)
            self._evaluate(cid, queue)
        self._narrow()
        return self.values

    def _narrow(self) -> None:
        """One monotone re-accumulation sweep: recompute every key as the join
        of every constraint's effects on the final (post-)solution, in
        constraint order.  Those effects are the ones kept from each
        constraint's last evaluation (see the module docstring), so no
        right-hand side runs again; they are freed afterwards.  For monotone
        right-hand sides the result is a smaller post-solution."""
        join = self.system.join
        acc: dict[Any, Any] = {}
        for c in self.constraints:
            for key, value in self.last_effects[c.cid].items():
                acc[key] = join(key, acc[key], value) if key in acc else value
        self.last_effects = {}
        # a key that no last effect writes keeps its value
        for key, old in self.values.items():
            if key not in acc:
                acc[key] = old
        self.values = acc

    # -- post-solve queries --

    def _reevaluate(self):
        """Every constraint with the effects it has on the current assignment."""
        for c in self.constraints:
            yield c, c.rhs(View(self))

    def check_post_solution(self) -> list[str]:
        """Re-evaluate every right-hand side; report any effect not below the
        solution, as ``<constraint> -> <key>``."""
        bad = []

        def below(key, value) -> bool:
            cur = self.values.get(key)
            return cur is not None and self.system.leq(key, value, cur)

        for c, effects in self._reevaluate():
            for key, value in effects.items():
                if not below(key, value):
                    bad.append(f"{c.describe()} -> {key}")
        return bad
