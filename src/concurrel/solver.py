"""Demand-driven worklist solver for side-effecting constraint systems.

A solve starts from the system's ``initial`` constraints alone.  Unknowns
are discovered dynamically: when a key first receives a non-⊥ value, the
system is asked for the constraints it spawns (e.g. the outgoing CFG edges
of a program point), and constraints subscribed to the key's namespace
(e.g. "some unknown of mutex a appeared") are rescheduled.

Right-hand sides read the current assignment through a view that records
dependencies, and return a dict of effects {key: value}; contributions and
side-effects are treated alike and accumulate by join.  A constraint may
name a source key (a point constraint names the point unknown of its edge's
source): the solver reads it first, as the first read of the evaluation,
and skips the body when its value is absent or ⊥.  The worklist is
first-in first-out; an updated key queues its readers (``Unknown.readers``,
kept in increasing constraint order) and a new key of a namespace the
readers of the namespace (``ns_deps``).  An evaluation re-points its constraint's
dependencies only when it read other keys than the constraint's last
evaluation did (most evaluations read the same ones); the readers of a
namespace only grow.  An effect updates its key with one lattice call,
``joined = system.join(key, old, value)``, and stops there when
``joined is old``.  This relies on the one contract
of ``System.join``: it returns its left operand itself exactly when the
right operand adds nothing (value ⊑ old), as ``BaseAnalysis.join``
(``RelDomain.join``) and ``ImprovedSystem.state_join`` do.  Widening
escalates per key after a fixed number of strict increases, which
terminates even for growth cycles that pass through mutex unknowns rather
than CFG back edges.
One narrowing sweep recovers most of the overshoot afterwards (Apinis, Seidl
and Vojdani, "Side-effecting constraint systems", APLAS 2012): every key
becomes the join of the effects of every constraint on the final assignment.

The sweep does not call a right-hand side again.  The worklist ends only
when each constraint's last evaluation read the current value of every key
and namespace it read (a later change would have rescheduled it), and a
right-hand side is a deterministic function of what it reads through its
view; so the effects kept from each constraint's last evaluation are the
effects it has on the final assignment.  ``values`` is the one record of
discovered unknowns; only ``check_post_solution`` runs every right-hand side
again, to verify the narrowed assignment independently.
"""

from __future__ import annotations

from bisect import insort
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
    """``body(view)``, or with a ``source`` key ``body(view, value)`` of its
    value, run only when that value is present and its ``bot`` false (``rhs``;
    ``Solver.solve`` inlines it)."""

    name: str | Callable[[], str]  # a callable is formatted only by describe()
    body: Callable[..., dict[Any, Any]]
    source: Any = None
    cid: int = -1

    def describe(self) -> str:
        return self.name() if callable(self.name) else self.name

    def rhs(self, view: "View") -> dict[Any, Any]:
        """The effects on the assignment that ``view`` reads."""
        if self.source is None:
            return self.body(view)
        value = view.get(self.source)
        return {} if value is None or value.bot else self.body(view, value)


class System(Protocol):
    """``join(key, a, b)`` returns ``a`` itself exactly when b ⊑ a (see the
    module docstring); ``leq`` serves only ``check_post_solution``."""

    def initial(self) -> list[Constraint]: ...
    def constraints_for(self, key) -> list[Constraint]: ...
    def namespace(self, key): ...  # hashable | None
    def join(self, key, a, b): ...
    def widen(self, key, a, b): ...
    def leq(self, key, a, b) -> bool: ...


class View:
    """Read access to the current assignment with dependency recording.

    ``reads`` and ``ns_reads`` list the keys and namespaces read, in the
    order of the reads (a key read twice appears twice)."""

    __slots__ = ("_s", "reads", "ns_reads")

    def __init__(self, solver: "Solver"):
        self._s = solver
        self.reads: list[Any] = []
        self.ns_reads: list[Any] = []

    def get(self, key):
        self.reads.append(key)
        return self._s.values.get(key)

    def keys_in(self, namespace) -> list:
        """Known unknowns of a namespace, in discovery order (deterministic)."""
        self.ns_reads.append(namespace)
        return list(self._s.by_namespace.get(namespace, ()))


class Unknown:
    """What the solver keeps of a key besides its value: ``readers``, the
    constraints whose last evaluation read the key, in increasing order,
    and ``increases``, the strict increases of its value so far."""

    __slots__ = ("readers", "increases")

    def __init__(self):
        self.readers: list[int] = []
        self.increases = 0


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
        self.unknowns: dict[Any, Unknown] = {}  # every key read or registered
        self.ns_deps: dict[Any, list[int]] = {}  # every constraint that ever read it
        self.last_reads: dict[int, list[Any]] = {}
        self.last_ns_reads: dict[int, list[Any]] = {}
        self.last_effects: dict[int, dict[Any, Any]] = {}  # freed by _narrow
        self.stats = SolveStats()
        self._queue: deque[int] = deque()
        self._queued: list[bool] = []  # by constraint id

    # -- bookkeeping --

    def _add_constraint(self, c: Constraint) -> None:
        """Number ``c`` and schedule it."""
        c.cid = len(self.constraints)
        self.constraints.append(c)
        self.last_reads[c.cid] = []
        self.last_ns_reads[c.cid] = []
        self._queued.append(True)
        self._queue.append(c.cid)

    def _register_key(self, key) -> Unknown:
        """A key's first value: wake its namespace's readers and spawn its
        constraints.  ``values`` is the one record of registered keys."""
        u = self.unknowns.get(key)
        if u is None:
            u = self.unknowns[key] = Unknown()
        ns = self.system.namespace(key)
        if ns is not None:
            self.by_namespace.setdefault(ns, []).append(key)
            self._schedule(self.ns_deps.get(ns, ()))
        for c in self.system.constraints_for(key):
            self._add_constraint(c)
        return u

    def _schedule(self, cids) -> None:
        """Queue each of ``cids`` (in increasing order) that is not queued."""
        queued = self._queued
        for cid in cids:
            if not queued[cid]:
                queued[cid] = True
                self._queue.append(cid)

    def _repoint(self, cid: int, old: list, new: list) -> None:
        """Move ``cid`` from the readers of the keys of ``old`` alone to
        those of the keys of ``new`` alone."""
        old, new = set(old), set(new)
        unknowns = self.unknowns
        for key in old - new:
            unknowns[key].readers.remove(cid)
        for key in new - old:
            if key not in unknowns:
                unknowns[key] = Unknown()
            insort(unknowns[key].readers, cid)

    # -- main loop --

    def solve(self) -> dict[Any, Any]:
        """Evaluate constraints in first-in first-out order until none is
        queued.  An evaluation re-points the dependencies of its constraint
        only when it read other keys, or other namespaces, than the last one
        (the readers of a namespace only grow)."""
        for c in self.system.initial():
            self._add_constraint(c)
        system, values, unknowns = self.system, self.values, self.unknowns
        join, widen, stats, budget = system.join, system.widen, self.stats, self.budget
        constraints, last_reads, last_effects = self.constraints, self.last_reads, self.last_effects
        queue, queued = self._queue, self._queued
        view = View(self)
        while queue:
            cid = queue.popleft()
            queued[cid] = False
            stats.evaluations += 1
            if stats.evaluations > budget:
                raise BudgetExceeded(stats.evaluations)
            c = constraints[cid]
            src = c.source
            view.ns_reads = ns_reads = []
            if src is None:
                view.reads = reads = []
                effects = c.body(view)
            else:  # Constraint.rhs, without the two calls
                view.reads = reads = [src]
                value = values.get(src)
                effects = {} if value is None or value.bot else c.body(view, value)
            if reads != last_reads[cid]:
                self._repoint(cid, last_reads[cid], reads)
                last_reads[cid] = reads
            if ns_reads and ns_reads != self.last_ns_reads[cid]:
                for ns in ns_reads:
                    readers = self.ns_deps.setdefault(ns, [])
                    if cid not in readers:
                        insort(readers, cid)
                self.last_ns_reads[cid] = ns_reads
            last_effects[cid] = effects
            for key, value in effects.items():
                old = values.get(key)
                if old is None:
                    values[key] = value
                    u = self._register_key(key)
                else:
                    joined = join(key, old, value)
                    if joined is old:  # value ⊑ old
                        continue
                    u = unknowns[key]
                    u.increases += 1
                    if u.increases > WIDEN_DELAY:
                        joined = widen(key, old, joined)
                        stats.widened += 1
                    values[key] = joined
                for reader in u.readers:
                    if not queued[reader]:
                        queued[reader] = True
                        queue.append(reader)
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

    def check_post_solution(self) -> list[str]:
        """Re-evaluate every right-hand side; report any effect not below the
        solution, as ``<constraint> -> <key>``."""
        bad = []
        for c in self.constraints:
            for key, value in c.rhs(View(self)).items():
                cur = self.values.get(key)
                if cur is None or not self.system.leq(key, value, cur):
                    bad.append(f"{c.describe()} -> {key}")
        return bad
