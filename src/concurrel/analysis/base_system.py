"""The base constraint system, and the base class of the thread-id system.

``BaseAnalysis`` is the digest-refined base system; every value is a
relation.  Every unknown is keyed with a digest of ``spec``, the digest
specification the constructor takes.  A non-observing action keys its
successor and its side-effects (published cluster values, thread returns)
with the digest after ``spec.unary``, and a created thread's start with the
digest of ``spec.new_thread``; the two observing actions, lock and join,
read ``MutexKey``/``RetKey`` values of each digest that ``admission``
admits, listed by one helper (``_admitted``).  Besides ``initial`` and one
right-hand side factory per action kind, the class holds the relation steps
(``init``, the initial cluster values and main's start relation, and
``step``, the local steps), the solver plumbing (key namespaces, and which
outgoing edges spawn a constraint: each names its source point unknown, and
the solver runs its body only when that value is present and not ⊥) and the
relation lattice.

The thread-id system (``improved_system.ImprovedSystem``) is this system
with local states that also carry J, L and W.  It shares ``initial`` and
the factories of the local step, create, return, unlock and join, which
leave what its states add to a few small methods, each the identity or the
base behaviour here: ``start``, ``relation``, ``stepper``, ``fresh``,
``child_tid``, ``ret_key``, ``ret_digest``, ``accounted``, ``joined``,
``dkey``, ``dkey_digest``, ``published``, ``unlocked`` and ``admission``.
The two systems differ only in the lock, those methods and the lattice
(and ``render``).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from ..digests import CreateEdge, DigestSpec, MAIN_TID, tid_compose
from ..frontend.ast import (
    Action, Assert, AssignLocal, Create, Guard, Havoc, IntLit, Join, Lock, Program,
    ReadGlobal, Return, Unlock, Var, WriteGlobal, action_str,
)
from ..frontend.cfg import Cfg, Edge, Point
from ..solver import Constraint, View
from ..domains.relation import RelDomain, Relation
from ..domains.values import TID_TOP, tid_meet
from .keys import MutexKey, PointKey, RetKey, render_key
from .protections import protected_by


_RET = frozenset({"ret"})

_RHS_FACTORY = {Lock: "_lock_rhs", Unlock: "_unlock_rhs", Join: "_join_rhs",
                Create: "_create_rhs", Return: "_return_rhs"}


class BaseAnalysis:
    """The base constraint system: the relational analysis × a digest spec
    (see the module docstring)."""

    def __init__(self, program: Program, cfgs: dict[str, Cfg], dom: RelDomain,
                 protections: dict[str, frozenset[str]],
                 clusters: dict[str, tuple[frozenset[str], ...]],
                 locals_: tuple[str, ...], spec: DigestSpec):
        self.program = program
        self.cfgs = cfgs
        self.dom = dom
        self.protections = protections
        self.clusters = clusters
        self.locals = frozenset(locals_)
        self.mutexes = sorted(clusters)
        self.spec = spec

    # -- relation steps --

    def init(self) -> tuple[dict[tuple[str, frozenset[str]], Relation], Relation]:
        """Every cluster value with its globals at 0, by (mutex, cluster), and
        main's start relation."""
        values = {}
        for a in self.mutexes:
            for q in self.clusters[a]:
                r = self.dom.top()
                for g in sorted(q):
                    r = self.dom.assign_expr(r, g, IntLit(0))
                values[(a, q)] = r
        start = self.dom.assign_value(self.dom.top(), "self", frozenset({MAIN_TID}))
        return values, start

    def step(self, act: Action) -> Callable[[Relation], Relation]:
        """The successor of a local step (read, write, assign, guard,
        assert, havoc) as a function of the relation; what depends on the
        step alone is computed once."""
        dom = self.dom
        match act:
            case ReadGlobal(x, g):
                return dom.assigner(x, Var(g))
            case WriteGlobal(g, x):
                return dom.assigner(g, Var(x))
            case AssignLocal(x, e):
                return dom.assigner(x, e)
            case Guard(c):
                return dom.guarder(c)
            case Assert(_, _, _):
                return lambda r: r
            case Havoc(x):
                return lambda r: dom.havoc(r, x)
        raise TypeError(act)

    # -- solver plumbing --

    def namespace(self, key):
        if isinstance(key, MutexKey):
            return ("mutex", key.mutex)
        if isinstance(key, RetKey):
            return ("ret",)
        return None

    def constraints_for(self, key) -> list[Constraint]:
        """One constraint per outgoing edge of a point unknown.  A factory
        (``_lock_rhs``, ``_unlock_rhs``, ``_join_rhs``, ``_create_rhs``,
        ``_return_rhs``, and ``_plain_rhs`` for local steps) closes over
        (edge, source key) and returns ``body(view, value)``."""
        if not isinstance(key, PointKey):
            return []
        out = []
        for edge in self.cfgs[key.point.template].out_edges(key.point):
            act = edge.action
            if isinstance(act, Lock) and act.mutex in key.lockset:
                continue  # non-reentrant mutex: locking again deadlocks
            if isinstance(act, Unlock) and act.mutex not in key.lockset:
                continue
            factory = getattr(self, _RHS_FACTORY.get(type(act), "_plain_rhs"))
            out.append(Constraint(partial(_edge_name, key, act), factory(edge, key), key))
        return out

    def admission(self, edge: Edge, ego, cand):
        """Whether the observing ``edge`` from the ego digest ``ego`` admits
        the candidate digest ``cand``: None when ``spec.binary`` excludes
        the combination, otherwise the pair of the successor digest and the
        id a state's J accounts for (None: no id here).  It depends on the
        two digests alone."""
        d1 = self.spec.binary(edge.src, edge.action, ego, cand)
        return None if d1 is None else (d1, None)

    def _admitted(self, edge: Edge, src: PointKey, lockset: frozenset[str], ns,
                  candidate: Callable[[Any], tuple]):
        """A function of a view listing (successor key, accounted id,
        payload) for each distinct digest of the known unknowns of
        namespace ``ns``, in discovery order, where ``candidate(k)`` of the
        first key k with the digest is (candidate digest, payload) and
        ``admission`` admits the candidate digest; the successor key holds
        ``lockset``.  Reading the namespace through the view records the
        dependency.  Each digest is looked at once: a namespace's keys are
        only ever appended to, so each call looks at the keys discovered
        since the last one alone."""
        seen: set = set()
        out: list = []
        done = 0

        def entries(view: View) -> list:
            nonlocal done
            keys = view.keys_in(ns)
            if len(keys) > done:
                for k in keys[done:]:
                    if k.digest not in seen:
                        seen.add(k.digest)
                        cand, payload = candidate(k)
                        adm = self.admission(edge, src.digest, cand)
                        if adm is not None:
                            out.append((PointKey(edge.dst, lockset, adm[0]), adm[1], payload))
                done = len(keys)
            return out

        return entries

    def _lock_admitted(self, edge: Edge, src: PointKey):
        """``_admitted`` at lock(a): the payload of a digest is the keys of
        its published values by cluster."""
        a = edge.action.mutex
        qs = self.clusters[a]
        return self._admitted(
            edge, src, src.lockset | {a}, ("mutex", a),
            lambda k: (self.dkey_digest(k.digest), [MutexKey(a, q, k.digest) for q in qs]))

    # -- what a local state adds to its relation: nothing here --
    # ``s`` is the source value of a right-hand side and ``r`` a relation
    # computed from ``relation(s)``.

    def start(self, values: dict, r: Relation) -> tuple[Any, dict]:
        """Main's start value and the initial values of the mutex unknowns
        by (mutex, cluster), from the initial cluster ``values`` and main's
        start relation ``r``."""
        return r, values

    def relation(self, value) -> Relation:
        """The relation of a point or thread-return value."""
        return value

    def stepper(self, act: Action) -> Callable[[Any, Relation], Any]:
        """The value after the local step or create ``act`` from ``s``, as a
        function of ``s`` and the relation ``r`` it steps to."""
        return lambda s, r: r

    def fresh(self, s, r: Relation):
        """The start value of a thread that ``s`` creates, or the value it returns."""
        return r

    def child_tid(self, u: Point, template: str, child_digest) -> Callable[[Relation], Any]:
        """The id of the thread created at ⟨u, template⟩, as a function of
        the creator's relation: ν# composes every creator id with the create
        edge (no C tracking)."""
        edge = CreateEdge(u, template)

        def tid(r: Relation):
            creator = self.dom.unlift_tid(r, "self")
            if creator is TID_TOP:
                return TID_TOP
            return frozenset(tid_compose(t, edge) for t in creator)

        return tid

    def ret_key(self, d1) -> Callable[[Relation], RetKey]:
        """The key of a thread return with digest ``d1``, as a function of
        the returning relation: the thread's ids ("⊤" for any) and the digest."""
        def key(r: Relation) -> RetKey:
            ids = self.dom.unlift_tid(r, "self")
            return RetKey(("⊤" if ids is TID_TOP else frozenset(ids), d1))

        return key

    def ret_digest(self, key: RetKey) -> tuple:
        """The digest and the thread ids of the return ``key``."""
        (ids, d1) = key.digest
        return d1, TID_TOP if ids == "⊤" else ids

    def accounted(self, s):
        """The ids of the threads that ``s`` has definitely joined (J)."""
        return ()

    def joined(self, s, returned, ids, r: Relation):
        """The value after joining, from ``s``, a thread of ``ids`` that
        returned ``returned``, with the relation ``r``."""
        return r

    def dkey(self, digest) -> Any:
        """The digest part of the mutex keys an unlock with ``digest`` publishes."""
        return digest

    def dkey_digest(self, dk) -> Any:
        """The digest of the digest part ``dk`` of a mutex key."""
        return dk

    def published(self, s, a: str):
        """The clusters of mutex ``a`` that an unlock from ``s`` publishes."""
        return self.clusters[a]

    def unlocked(self, s, a: str, held: frozenset[str], published: dict, r: Relation):
        """The value after unlock(a) from ``s``, with ``held`` still held,
        the ``published`` values by cluster and the kept relation ``r``."""
        return r

    def render(self, key, value) -> str:
        """The text of ``value`` in a solution dump."""
        return self.dom.render(value)

    # -- relation lattice --
    # ``join`` returns its left operand itself exactly when the right one
    # adds nothing (``RelDomain.join`` does), as ``solver.System`` requires.

    def join(self, key, a, b):
        return self.dom.join(a, b)

    def widen(self, key, a, b):
        return self.dom.widen(a, b)

    def leq(self, key, a, b):
        return self.dom.leq(a, b)

    # -- constraints --

    def initial(self) -> list[Constraint]:
        def rhs(view: View):
            d = self.spec.init()
            state, published = self.start(*self.init())
            effects: dict[Any, Any] = {
                MutexKey(a, q, self.dkey(d)): v for (a, q), v in published.items()}
            effects[PointKey(self.cfgs[self.program.entry].start, frozenset(), d)] = state
            return effects

        return [Constraint("init", rhs)]

    # Non-observing actions key their side-effects and successor with the
    # digest after ``spec.unary`` (a created thread's start with the digest
    # of ``spec.new_thread``); side-effects come first in each effect dict.
    # A digest depends on the edge and the source digest alone, so each
    # factory computes its keys once.

    def _plain_rhs(self, edge: Edge, src: PointKey):
        act = edge.action
        dst = PointKey(edge.dst, src.lockset, self.spec.unary(edge.src, act, src.digest))
        step, relation, stepped = self.step(act), self.relation, self.stepper(act)

        def body(view: View, s):
            r = step(relation(s))
            if r.bot:
                return {}
            return {dst: stepped(s, r)}

        return body

    def _create_rhs(self, edge: Edge, src: PointKey):
        act = edge.action
        start = self.cfgs[act.template].start
        child_digest = self.spec.new_thread(edge.src, start, src.digest)
        child = PointKey(start, frozenset(), child_digest)
        child_tid = self.child_tid(edge.src, act.template, child_digest)
        dst = PointKey(edge.dst, src.lockset, self.spec.unary(edge.src, act, src.digest))
        stepped = self.stepper(act)

        def body(view: View, s):
            r = self.relation(s)
            tid = child_tid(r)
            # the child starts with its creator's locals and its own id
            start_r = self.dom.restrict(self.dom.assign_value(r, "self", tid), self.locals)
            return {child: self.fresh(s, start_r),
                    dst: stepped(s, self.dom.assign_value(r, act.local, tid))}

        return body

    def _return_rhs(self, edge: Edge, src: PointKey):
        act = edge.action
        d1 = self.spec.unary(edge.src, act, src.digest)
        ret = self.ret_key(d1)
        dst = PointKey(edge.dst, src.lockset, d1)
        assign_ret = self.dom.assigner("ret", Var(act.local))

        def body(view: View, s):
            r = self.relation(s)
            returned = self.dom.restrict(assign_ret(r), _RET)
            return {ret(r): self.fresh(s, returned), dst: s}

        return body

    def _unlock_rhs(self, edge: Edge, src: PointKey):
        a = edge.action.mutex
        held = src.lockset - {a}
        # the ego keeps its locals and 𝒢 of the mutexes it still holds
        keep = self.locals.union(*(protected_by(self.protections, b) for b in held))
        d1 = self.spec.unary(edge.src, edge.action, src.digest)
        keys = {q: MutexKey(a, q, self.dkey(d1)) for q in self.clusters[a]}
        dst = PointKey(edge.dst, held, d1)

        def body(view: View, s):
            r = self.relation(s)
            published = {q: self.dom.restrict(r, q) for q in self.published(s, a)}
            effects: dict[Any, Any] = {keys[q]: v for q, v in published.items()}
            effects[dst] = self.unlocked(s, a, held, published, self.dom.restrict(r, keep))
            return effects

        return body

    def _lock_rhs(self, edge: Edge, src: PointKey):
        admitted = self._lock_admitted(edge, src)
        meet_all, join = self.dom.meet_all, self.dom.join

        def body(view: View, r: Relation):
            effects: dict[Any, Relation] = {}
            for target, _j_id, keys in admitted(view):
                v = meet_all([r] + [view.get(k) for k in keys])
                if not v.bot:
                    effects[target] = join(effects[target], v) if target in effects else v
            return effects

        return body

    def _join_rhs(self, edge: Edge, src: PointKey):
        """Each admitted return of a thread the joined id may be and J does
        not account for gives a successor; successors of one key join."""
        act = edge.action
        dom, relation, join = self.dom, self.relation, self.join

        def candidate(k: RetKey):
            d1, ids = self.ret_digest(k)
            return d1, (k, ids)

        admitted = self._admitted(edge, src, src.lockset, ("ret",), candidate)

        def body(view: View, s):
            r = relation(s)
            tid_val = dom.unlift_tid(r, act.tidvar)
            j = self.accounted(s)
            effects: dict[Any, Any] = {}
            for target, j_id, (k, ids) in admitted(view):
                if j_id in j or not tid_meet(ids, tid_val):
                    continue
                returned = view.get(k)
                r1 = dom.assign_value(r, act.target, dom.unlift_var(relation(returned), "ret"))
                v = self.joined(s, returned, ids, r1)
                effects[target] = join(target, effects[target], v) if target in effects else v
            return effects

        return body


def _edge_name(key: PointKey, act) -> str:
    return f"{render_key(key)} {action_str(act)}"
