"""The base constraint system, and the base class of the thread-id system.

``BaseAnalysis`` is the digest-refined base system; every value is a
relation.  Every unknown is keyed with a digest of ``spec``, the digest
specification the constructor takes.  A non-observing action keys its
successor and its side-effects (published cluster values, thread returns)
with the digest after ``spec.unary``, and a created thread's start with the
digest of ``spec.new_thread``; the two observing actions, lock and join,
read ``MutexKey``/``RetKey`` values of each digest they may observe and
share one loop over those digests (``_observing_rhs``).  Besides
``initial`` and one right-hand side factory per action kind, the class
holds the relation steps (``init``, the initial cluster values and main's
start relation, and ``transfer``, the local steps), the solver plumbing
(key namespaces, which outgoing edges spawn a constraint, the reading of
the source value: a right-hand side runs only when it is present and not ⊥)
and the relation lattice.

The thread-id system (``improved_system.ImprovedSystem``) is this system
with local states that also carry J, L and W.  It shares the factories of
the local step, create, return and unlock, which leave what its states add
to a few small methods, each the identity or the base behaviour here:
``relation``, ``stepped``, ``fresh``, ``child_tid``, ``ret_key``, ``dkey``,
``published`` and ``unlocked``.  It overrides ``initial``, ``_lock_rhs``,
``_join_rhs``, the lattice and ``render``.
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
from ..domains.values import BOT, TID_TOP, int_join, tid_meet
from .keys import MutexKey, PointKey, RetKey, render_key
from .protections import protected_by


def freeze_tid_value(v) -> Any:
    """Hashable form of a TidAbs used as a thread-return key."""
    return "⊤" if v is TID_TOP else frozenset(v)


def thaw_tid_value(k):
    return TID_TOP if k == "⊤" else k


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
        self.locals = frozenset(locals_) | {"self"}
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

    def transfer(self, act: Action, r: Relation) -> Relation:
        """The successor of a local step (read, write, assign, guard, assert, havoc)."""
        dom = self.dom
        match act:
            case ReadGlobal(x, g):
                return dom.assign_expr(r, x, Var(g))
            case WriteGlobal(g, x):
                return dom.assign_expr(r, g, Var(x))
            case AssignLocal(x, e):
                return dom.assign_expr(r, x, e)
            case Guard(c):
                return dom.guard(r, c)
            case Assert(_, _, _):
                return r
            case Havoc(x):
                return dom.havoc(r, x)
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
            out.append(Constraint(partial(_edge_name, key, act),
                                  self._from_source(key, factory(edge, key))))
        return out

    def _from_source(self, src: PointKey, body):
        def rhs(view: View):
            value = view.get(src)
            if value is None or self.dom.is_bot(self.relation(value)):
                return {}
            return body(view, value)

        return rhs

    @staticmethod
    def mutex_digests(view: View, a: str) -> list:
        """Digests of the known unknowns of mutex ``a``, in discovery order
        (reading the namespace records the dependency)."""
        return list(dict.fromkeys(k.digest for k in view.keys_in(("mutex", a))))

    # -- what a local state adds to its relation: nothing here --
    # ``s`` is the source value of a right-hand side and ``r`` a relation
    # computed from ``relation(s)``.

    def relation(self, value) -> Relation:
        """The relation of a point or thread-return value."""
        return value

    def stepped(self, s, act: Action, r: Relation):
        """The value after the local step or create ``act`` from ``s``."""
        return r

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
        the returning relation: the thread's id and the digest."""
        return lambda r: RetKey((freeze_tid_value(self.dom.unlift_tid(r, "self")), d1))

    def dkey(self, digest) -> Any:
        """The digest part of the mutex keys an unlock with ``digest`` publishes."""
        return digest

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
            cluster_values, start = self.init()
            entry = self.cfgs[self.program.entry].start
            d = self.spec.init()
            effects: dict[Any, Relation] = {
                MutexKey(a, q, d): v for (a, q), v in cluster_values.items()}
            effects[PointKey(entry, frozenset(), d)] = start
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
        transfer, relation, stepped, is_bot = (
            self.transfer, self.relation, self.stepped, self.dom.is_bot)

        def body(view: View, s):
            r = transfer(act, relation(s))
            if is_bot(r):
                return {}
            return {dst: stepped(s, act, r)}

        return body

    def _create_rhs(self, edge: Edge, src: PointKey):
        act = edge.action
        start = self.cfgs[act.template].start
        child_digest = self.spec.new_thread(edge.src, start, src.digest)
        child = PointKey(start, frozenset(), child_digest)
        child_tid = self.child_tid(edge.src, act.template, child_digest)
        dst = PointKey(edge.dst, src.lockset, self.spec.unary(edge.src, act, src.digest))

        def body(view: View, s):
            r = self.relation(s)
            tid = child_tid(r)
            # the child starts with its creator's locals and its own id
            start_r = self.dom.restrict(self.dom.assign_value(r, "self", tid), self.locals)
            return {child: self.fresh(s, start_r),
                    dst: self.stepped(s, act, self.dom.assign_value(r, act.local, tid))}

        return body

    def _return_rhs(self, edge: Edge, src: PointKey):
        act = edge.action
        d1 = self.spec.unary(edge.src, act, src.digest)
        ret = self.ret_key(d1)
        dst = PointKey(edge.dst, src.lockset, d1)

        def body(view: View, s):
            r = self.relation(s)
            returned = self.dom.restrict(self.dom.assign_expr(r, "ret", Var(act.local)), {"ret"})
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

    def _observing_rhs(self, edge: Edge, src: PointKey, lockset: frozenset[str],
                       digests: Callable[[View], list],
                       successor: Callable[[View, Any, Relation], Relation]):
        """Observing actions (lock, join): one successor per digest ``d1``
        that ``digests`` lists and ``spec.binary`` admits, computed by
        ``successor(view, d1, r)`` and keyed with ``lockset``."""

        def body(view: View, r: Relation):
            effects: dict[Any, Relation] = {}
            for d1 in digests(view):
                succ = self.spec.binary(edge.src, edge.action, src.digest, d1)
                if succ is None:
                    continue  # infeasible trace combination
                v = successor(view, d1, r)
                if not self.dom.is_bot(v):
                    accumulate(effects, PointKey(edge.dst, lockset, succ), v, self.dom.join)
            return effects

        return body

    def _lock_rhs(self, edge: Edge, src: PointKey):
        a = edge.action.mutex
        qs = self.clusters[a]

        def meet_published(view: View, d1, r: Relation) -> Relation:
            return self.dom.meet_all([r] + [view.get(MutexKey(a, q, d1)) for q in qs])

        return self._observing_rhs(edge, src, src.lockset | {a},
                                   lambda view: self.mutex_digests(view, a), meet_published)

    def _join_rhs(self, edge: Edge, src: PointKey):
        act = edge.action

        def join_returned(view: View, d1, r: Relation) -> Relation:
            tid_val = self.dom.unlift_tid(r, act.tidvar)
            acc = BOT
            for k in view.keys_in(("ret",)):
                (tidkey, dd) = k.digest
                if dd == d1 and tid_meet(thaw_tid_value(tidkey), tid_val):
                    acc = int_join(acc, self.dom.unlift_var(view.get(k), "ret"))
            if acc is BOT:
                return self.dom.bot()  # no thread to join: execution blocks
            return self.dom.assign_value(r, act.target, acc)

        return self._observing_rhs(edge, src, src.lockset, self._ret_digests, join_returned)

    def _ret_digests(self, view: View) -> list:
        """Thread-return digests, through the view (records the namespace dependency)."""
        return list(dict.fromkeys(k.digest[1] for k in view.keys_in(("ret",))))


def _edge_name(key: PointKey, act) -> str:
    return f"{render_key(key)} {action_str(act)}"


def accumulate(effects: dict, key, value, join) -> None:
    effects[key] = join(effects[key], value) if key in effects else value
