"""The base relational analysis and its digest-refined constraint system.

The base right-hand sides (init, lock, unlock, read, write, create, return,
join, local steps) are written against abstract "base keys" — (mutex,
cluster), thread-return ids, thread start points — exactly as in the
unrefined system.  ``WrappedBaseSystem`` is the solver-facing constraint
generator: it re-keys every consulted or side-effected unknown with digests,
instantiates observing actions once per feasible incoming digest, and
redirects create side-effects through the digest's new-thread function.  The
base right-hand sides are used as black boxes.

The thread-id system (``improved_system.ImprovedSystem``) subclasses
``BaseAnalysis`` and takes from it the initial values, the local steps
(read, write, assign, guard, havoc, assert), the relation kept at an unlock,
the child's start relation and the returned value; both systems share the
solver plumbing of ``EdgeConstraints``: key namespaces, which outgoing edges
spawn a constraint, the reading of the source value (a right-hand side runs
only when it is present and not ⊥), and the enumeration of published mutex
digests.  The wrapper's two observing actions, lock and join, share one
loop over the digests they may observe (``_observing_rhs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from ..digests import CreateEdge, DigestSpec, MAIN_TID, tid_compose
from ..frontend.ast import (
    Assert, AssignLocal, Create, Guard, Havoc, IntLit, Join, Lock, Program,
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


@dataclass
class BaseEnv:
    """What a base right-hand side may consult besides its own state."""

    mutex_value: Callable[[str, frozenset], Relation | None] = lambda a, q: None
    ret_candidates: Callable[[], list[tuple[Any, Relation]]] = lambda: []


NO_ENV = BaseEnv()


class BaseAnalysis:
    """Right-hand sides of the unrefined analysis (lockset splitting only)."""

    def __init__(self, program: Program, cfgs: dict[str, Cfg], dom: RelDomain,
                 protections: dict[str, frozenset[str]],
                 clusters: dict[str, tuple[frozenset[str], ...]],
                 locals_: tuple[str, ...]):
        self.program = program
        self.cfgs = cfgs
        self.dom = dom
        self.protections = protections
        self.clusters = clusters
        self.locals = frozenset(locals_) | {"self"}
        self.mutexes = sorted(clusters)

    # -- init --

    def init(self) -> tuple[list[tuple[Any, Relation]], Relation]:
        """Every cluster value with its globals at 0, and main's start relation."""
        effects = []
        for a in self.mutexes:
            for q in self.clusters[a]:
                r = self.dom.top()
                for g in sorted(q):
                    r = self.dom.assign_expr(r, g, IntLit(0))
                effects.append((("mutex", a, q), r))
        start = self.dom.assign_value(self.dom.top(), "self", frozenset({MAIN_TID}))
        return effects, start

    # -- pieces of the transfer shared with the thread-id system --

    def unlock_keep(self, lockset: frozenset[str], a: str) -> set[str]:
        """What the ego keeps at unlock(a): its locals and 𝒢 of the other held mutexes."""
        keep = set(self.locals)
        for a2 in lockset - {a}:
            keep |= protected_by(self.protections, a2)
        return keep

    def start_relation(self, r: Relation, child_tid) -> Relation:
        """A created thread starts with its creator's locals and its own id."""
        return self.dom.restrict(self.dom.assign_value(r, "self", child_tid), self.locals)

    def returned(self, r: Relation, x: str) -> Relation:
        """The value of ``return x`` as a relation over ``ret`` alone."""
        return self.dom.restrict(self.dom.assign_expr(r, "ret", Var(x)), {"ret"})

    # -- per-edge transfer: returns (base side-effects, successor value) --

    def transfer(self, edge: Edge, lockset: frozenset[str], r: Relation,
                 env: BaseEnv) -> tuple[list[tuple[Any, Relation]], Relation]:
        dom = self.dom
        if dom.is_bot(r):
            return [], r
        act = edge.action
        match act:
            case Lock(a):
                vals = [env.mutex_value(a, q) for q in self.clusters[a]]
                if any(v is None for v in vals):
                    return [], dom.bot()
                return [], dom.meet_all([r] + vals)
            case Unlock(a):
                effects = [(("mutex", a, q), dom.restrict(r, q)) for q in self.clusters[a]]
                return effects, dom.restrict(r, self.unlock_keep(lockset, a))
            case ReadGlobal(x, g):
                return [], dom.assign_expr(r, x, Var(g))
            case WriteGlobal(g, x):
                return [], dom.assign_expr(r, g, Var(x))
            case AssignLocal(x, e):
                return [], dom.assign_expr(r, x, e)
            case Guard(c):
                return [], dom.guard(r, c)
            case Assert(_, _, _):
                return [], r
            case Havoc(x):
                return [], dom.havoc(r, x)
            case Create(x, template):
                child_tid = self._new_tid(edge.src, template, r)
                start = self.cfgs[template].start
                return ([(("start", start), self.start_relation(r, child_tid))],
                        dom.assign_value(r, x, child_tid))
            case Return(x):
                key = freeze_tid_value(dom.unlift_tid(r, "self"))
                return [(("ret", key), self.returned(r, x))], r
            case Join(x1, x):
                tid_val = dom.unlift_tid(r, x)
                if tid_val is BOT:
                    return [], dom.bot()
                acc = BOT
                for key, stored in env.ret_candidates():
                    if tid_meet(thaw_tid_value(key), tid_val):
                        acc = int_join(acc, dom.unlift_var(stored, "ret"))
                if acc is BOT:
                    return [], dom.bot()  # no thread to join: execution blocks
                return [], dom.assign_value(r, x1, acc)
        raise TypeError(act)

    def _new_tid(self, u: Point, template: str, r: Relation):
        """ν#: compose every creator id with the create edge (no C tracking)."""
        creator = self.dom.unlift_tid(r, "self")
        if creator is TID_TOP:
            return TID_TOP
        return frozenset(tid_compose(t, CreateEdge(u, template)) for t in creator)


# -- solver plumbing shared by both constraint systems -------------------------


_RHS_FACTORY = {Lock: "_lock_rhs", Unlock: "_unlock_rhs", Join: "_join_rhs",
                Create: "_create_rhs", Return: "_return_rhs"}


class EdgeConstraints:
    """Key namespaces and one constraint per outgoing edge of a point unknown.

    Subclasses provide ``cfgs``, ``dom``, ``relation`` (the relation of a
    point value) and one factory per action kind (``_lock_rhs``,
    ``_unlock_rhs``, ``_join_rhs``, ``_create_rhs``, ``_return_rhs``, and
    ``_plain_rhs`` for local steps).  A factory closes over (edge, source
    key) and returns ``body(view, value)``; the right-hand side reads the
    source unknown and calls the body only when its value is present and
    not ⊥.
    """

    cfgs: dict[str, Cfg]
    dom: RelDomain

    def namespace(self, key):
        if isinstance(key, MutexKey):
            return ("mutex", key.mutex)
        if isinstance(key, RetKey):
            return ("ret",)
        return None

    def constraints_for(self, key) -> list[Constraint]:
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


def _edge_name(key: PointKey, act) -> str:
    return f"{render_key(key)} {action_str(act)}"


def accumulate(effects: dict, key, value, join) -> None:
    effects[key] = join(effects[key], value) if key in effects else value


# -- the digest wrapper ---------------------------------------------------------


class WrappedBaseSystem(EdgeConstraints):
    """Solver-facing constraint system: base analysis × digest spec."""

    def __init__(self, base: BaseAnalysis, spec: DigestSpec):
        self.base = base
        self.spec = spec
        self.dom = base.dom
        self.cfgs = base.cfgs

    # lattice plumbing: every value is a Relation
    def relation(self, value) -> Relation:
        return value

    def join(self, key, a, b):
        return self.dom.join(a, b)

    def widen(self, key, a, b):
        return self.dom.widen(a, b)

    def leq(self, key, a, b):
        return self.dom.leq(a, b)

    # -- constraints --

    def initial(self) -> list[Constraint]:
        def rhs(view: View):
            effects: dict[Any, Relation] = {}
            base_effects, start = self.base.init()
            entry = self.cfgs[self.base.program.entry].start
            d = self.spec.init()
            for (_kind, a, q), v in base_effects:
                accumulate(effects, MutexKey(a, q, d), v, self.dom.join)
            accumulate(effects, PointKey(entry, frozenset(), d), start, self.dom.join)
            return effects

        return [Constraint("init", rhs)]

    def _unary_rhs(self, edge: Edge, src: PointKey):
        """Non-observing actions: the base side-effects and the successor are
        keyed with the digest after ``spec.unary`` (a created thread's start
        with the digest of ``spec.new_thread``)."""
        act = edge.action
        lockset = src.lockset - {act.mutex} if isinstance(act, Unlock) else src.lockset

        def body(view: View, r: Relation):
            base_effects, v = self.base.transfer(edge, src.lockset, r, NO_ENV)
            d1 = self.spec.unary(edge.src, act, src.digest)
            effects: dict[Any, Relation] = {}
            for base_key, val in base_effects:
                accumulate(effects, self._lift(base_key, d1, edge.src, src.digest), val,
                           self.dom.join)
            if not self.dom.is_bot(v):
                accumulate(effects, PointKey(edge.dst, lockset, d1), v, self.dom.join)
            return effects

        return body

    _plain_rhs = _unlock_rhs = _return_rhs = _create_rhs = _unary_rhs

    def _lift(self, base_key, d, u: Point, creator_digest):
        match base_key:
            case ("mutex", a, q):
                return MutexKey(a, q, d)
            case ("ret", tidkey):
                return RetKey((tidkey, d))
            case ("start", start):
                return PointKey(start, frozenset(), self.spec.new_thread(u, start, creator_digest))
        raise ValueError(base_key)

    def _observing_rhs(self, edge: Edge, src: PointKey, lockset: frozenset[str],
                       digests: Callable[[View], list],
                       env: Callable[[View, Any], BaseEnv]):
        """Observing actions (lock, join): one successor per digest ``d1``
        that ``digests`` lists and ``spec.binary`` admits, computed in the
        base environment ``env(view, d1)`` and keyed with ``lockset``."""

        def body(view: View, r: Relation):
            effects: dict[Any, Relation] = {}
            for d1 in digests(view):
                succ = self.spec.binary(edge.src, edge.action, src.digest, d1)
                if succ is None:
                    continue  # infeasible trace combination
                _fx, v = self.base.transfer(edge, src.lockset, r, env(view, d1))
                if not self.dom.is_bot(v):
                    accumulate(effects, PointKey(edge.dst, lockset, succ), v, self.dom.join)
            return effects

        return body

    def _lock_rhs(self, edge: Edge, src: PointKey):
        a = edge.action.mutex
        return self._observing_rhs(
            edge, src, src.lockset | {a}, lambda view: self.mutex_digests(view, a),
            lambda view, d1: BaseEnv(
                mutex_value=lambda a2, q: view.get(MutexKey(a2, q, d1))))

    def _join_rhs(self, edge: Edge, src: PointKey):
        return self._observing_rhs(
            edge, src, src.lockset, self._ret_digests,
            lambda view, d1: BaseEnv(ret_candidates=lambda: self._ret_values(view, d1)))

    # -- thread-return digests through the view (records namespace deps) --

    def _ret_digests(self, view: View) -> list:
        return list(dict.fromkeys(k.digest[1] for k in view.keys_in(("ret",))))

    def _ret_values(self, view: View, d1) -> list:
        out = []
        for k in view.keys_in(("ret",)):
            (tidkey, dd) = k.digest
            if dd == d1:
                v = view.get(k)
                if v is not None:
                    out.append((tidkey, v))
        return out
