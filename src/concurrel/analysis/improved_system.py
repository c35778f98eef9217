"""Thread-id-aware analysis: excludes reads from threads that cannot run yet,
the unique ego thread's own past writes, and writes of threads that were
definitely joined.

Local states carry, besides the relation r:
  J — thread ids for which join has definitely been called (join = ∩),
  L — per (mutex, cluster) the join-local relation, updated destructively
      at publishing unlocks (join componentwise),
  W — globals possibly written since a protecting mutex was locked (join = ∪).

A thread-return unknown holds the same kind of state, with ``r`` over
``ret`` alone and W empty, so one lattice (``state_join``/``state_leq``)
serves both; mutex unknowns hold plain relations.  ``state_join(a, b)``
returns ``a`` itself when no component changes, that is, exactly when
``state_leq(b, a)``, as the solver's ``System.join`` contract requires.

Side effects to mutex unknowns happen only when a protected global may have
been written; in clustered mode only the clusters that intersect W are
published, and locking combines, per cluster, the join-local information
with the joined contributions of all admitted, non-accounted thread ids.

``ImprovedSystem`` is the base system (``BaseAnalysis``) with these states.
Its small methods say what J, L and W add to the shared ``initial`` and the
shared factories of the local step, create, return, unlock and join: main
starts with L holding the initial cluster values, which no mutex unknown
holds (``start``); a write grows W (``stepped``); a child starts, and a
return value is stored, with the creator's J and L and W = ∅ (``fresh``); a
child's id is the thread id of its digest (``child_tid``); a return is keyed
with the digest key (``ret_key``, read back by ``ret_digest``); an unlock
publishes the clusters above (``published``), takes them into L and keeps
in W what another held mutex protects (``unlocked``); a join skips the ids
J accounts for (``accounted``, ``admission``) and takes J ∪ J′ ∪ ids and
the join of both L (``joined``).  It differs from the base system only in
the lock right-hand side, those methods, the lattice and ``render``.  Every
digest comes from its ``TidDigestSpec``: ``unary`` for a successor,
``new_thread`` for a created thread, and ``binary`` at lock and join, where
``None`` excludes a combination (a thread that cannot run yet).
"""

from __future__ import annotations

from typing import Any

from ..digests import TidDigestSpec, may_run
from ..frontend.ast import Program, WriteGlobal
from ..frontend.cfg import Cfg, Edge
from ..solver import View
from ..domains.relation import RelDomain, Relation
from .base_system import BaseAnalysis
from .keys import MutexKey, PointKey, RetKey
from .protections import protected_by


class ImprovedState:
    """The value of a point unknown, and of a thread-return unknown, where
    ``r`` relates ``ret`` alone and ``w`` is empty."""

    __slots__ = ("j", "l", "w", "r", "bot")

    def __init__(self, j: frozenset, l: dict, w: frozenset, r: Relation):
        self.j = j
        self.l = l
        self.w = w
        self.r = r
        self.bot = r.bot  # a state is ⊥ when its relation is


class ImprovedSystem(BaseAnalysis):
    """Constraint generator for the tids and clusters modes."""

    def __init__(self, program: Program, cfgs: dict[str, Cfg], dom: RelDomain,
                 protections: dict[str, frozenset[str]],
                 clusters: dict[str, tuple[frozenset[str], ...]],
                 locals_: tuple[str, ...], clustered: bool,
                 exclude_ancestor_writes: bool = False):
        super().__init__(program, cfgs, dom, protections, clusters, locals_, TidDigestSpec())
        self.clustered = clustered
        self.exclude_ancestors = exclude_ancestor_writes
        self._admissions: dict[tuple, Any] = {}  # admission by (ego, candidate)

    # -- digest keys at mutex/thread-return unknowns --

    def dkey(self, digest) -> Any:
        (i, c) = digest
        return digest if self.exclude_ancestors else i

    def dkey_digest(self, dk) -> tuple:
        return dk if self.exclude_ancestors else (dk, frozenset())

    # -- state lattice --

    # L entries often reach a join or comparison as the same object (they
    # pass unchanged along the CFG); such an entry is its own join and ⊑.
    # Both joins return their left operand itself when no entry changes.
    def _l_join(self, l1: dict, l2: dict, widen: bool = False) -> dict:
        op = self.dom.widen if widen else self.dom.join
        out = l1
        for k, a in l1.items():
            if a is not (b := l2[k]) and (c := op(a, b)) is not a:
                if out is l1:
                    out = dict(l1)
                out[k] = c
        return out

    def state_join(self, a: ImprovedState, b: ImprovedState, widen=False) -> ImprovedState:
        op = self.dom.widen if widen else self.dom.join
        j = a.j if a.j <= b.j else a.j & b.j
        l = self._l_join(a.l, b.l, widen)
        w = a.w if b.w <= a.w else a.w | b.w
        r = op(a.r, b.r)
        if j is a.j and l is a.l and w is a.w and r is a.r:
            return a
        return ImprovedState(j, l, w, r)

    def state_leq(self, a: ImprovedState, b: ImprovedState) -> bool:
        return (
            a.j >= b.j
            and a.w <= b.w
            and self.dom.leq(a.r, b.r)
            and all(x is (y := b.l[k]) or self.dom.leq(x, y) for k, x in a.l.items())
        )

    # mutex unknowns hold relations, point and thread-return unknowns states
    def relation(self, value: ImprovedState) -> Relation:
        return value.r

    def join(self, key, a, b):
        if isinstance(key, MutexKey):
            return self.dom.join(a, b)
        return self.state_join(a, b)

    def widen(self, key, a, b):
        if isinstance(key, MutexKey):
            return self.dom.widen(a, b)
        return self.state_join(a, b, widen=True)

    def leq(self, key, a, b):
        if isinstance(key, MutexKey):
            return self.dom.leq(a, b)
        return self.state_leq(a, b)

    # -- accounted-for check (I2 + I3, optionally ancestor writes) --

    def admission(self, edge: Edge, ego: tuple, cand: tuple):
        """The base admission, but None also when ``cand`` is accounted for
        (the unique ego itself, or, with ancestor writes excluded, a thread
        that cannot run yet); the id a state's J accounts for is ``i1``
        when unique: ``i1 ∈ J`` is the one test left to each evaluation.

        Every edge that asks is a lock or a join, where ``TidDigestSpec``
        reads the two digests alone, so the answer is kept per analysis by
        the digest pair; many constraints ask for one pair.  The memo holds
        only for a spec whose ``binary`` ignores the edge."""
        key = (ego, cand)
        memo = self._admissions
        if key in memo:
            return memo[key]
        adm = super().admission(edge, ego, cand)
        if adm is not None:
            (i, _c), (i1, _c1) = ego, cand
            # an ancestor's write from before the ego could run is in the
            # ego's start
            if i1.unique and i == i1 or self.exclude_ancestors and not may_run(cand, ego):
                adm = None
            else:
                adm = adm[0], i1 if i1.unique else None
        memo[key] = adm
        return adm

    # -- what a state adds to its relation --

    def stepper(self, act):
        if isinstance(act, WriteGlobal):
            w = frozenset({act.glob})
            return lambda s, r: ImprovedState(s.j, s.l, s.w | w, r)
        return lambda s, r: ImprovedState(s.j, s.l, s.w, r)

    def start(self, values: dict, r: Relation):
        # L, not the mutex unknowns, holds the initial cluster values
        return ImprovedState(frozenset(), values, frozenset(), r), {}

    def fresh(self, s: ImprovedState, r: Relation) -> ImprovedState:
        return ImprovedState(s.j, s.l, frozenset(), r)

    def child_tid(self, u, template, child_digest):
        tid = frozenset({child_digest[0]})
        return lambda r: tid

    def ret_key(self, d1):
        key = RetKey(self.dkey(d1))
        return lambda r: key

    def ret_digest(self, key: RetKey):
        cand = self.dkey_digest(key.digest)
        return cand, frozenset({cand[0]})

    def accounted(self, s: ImprovedState):
        return s.j

    def joined(self, s: ImprovedState, returned: ImprovedState, ids, r) -> ImprovedState:
        return ImprovedState(s.j | returned.j | ids, self._l_join(s.l, returned.l), s.w, r)

    def published(self, s: ImprovedState, a: str):
        """Under ``clusters`` the clusters that meet W; otherwise all of
        them iff W holds a global that ``a`` protects."""
        if self.clustered:
            return [q for q in self.clusters[a] if q & s.w]
        return self.clusters[a] if protected_by(self.protections, a) & s.w else ()

    def unlocked(self, s: ImprovedState, a, held, published, r) -> ImprovedState:
        """L takes the published values (a destructive join-local update), W
        keeps the globals that a mutex still held protects."""
        l = {**s.l, **{(a, q): v for q, v in published.items()}}
        w = frozenset(g for g in s.w if self.protections[g] & held)
        return ImprovedState(s.j, l, w, r)

    def render(self, key, v) -> str:
        dom = self.dom
        if isinstance(key, MutexKey):
            return dom.render(v)
        if isinstance(key, RetKey):
            return f"v=({dom.render(v.r)})"
        parts = [f"r=({dom.render(v.r)})"]
        if v.j:
            parts.append("J={" + ", ".join(str(i) for i in sorted(v.j)) + "}")
        if v.w:
            parts.append("W={" + ",".join(sorted(v.w)) + "}")
        ls = [
            f"L[{a},{{{','.join(sorted(q))}}}]=({dom.render(lv)})"
            for (a, q), lv in sorted(v.l.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1])))
            if dom.render(lv) != "⊤"
        ]
        return "; ".join(parts + ls)

    # -- constraints --

    def _lock_rhs(self, edge: Edge, src: PointKey):
        dom = self.dom
        act = edge.action
        a = act.mutex
        qs = self.clusters[a]
        # L stands for the ego's own past and the initial trace: the successor
        # is keyed with what ``binary`` gives for the ego's own digest
        # (``TidDigestSpec.binary`` keeps it), and every admitted digest
        # contributes to that one successor
        d1 = self.spec.binary(edge.src, act, src.digest, src.digest)
        if d1 is None:
            return lambda view, s: {}
        target = PointKey(edge.dst, src.lockset | {a}, d1)
        lq = [(a, q) for q in qs]
        candidates = self._lock_admitted(edge, src)

        def body(view: View, s: ImprovedState):
            j = s.j
            admitted = [keys for _target, j_id, keys in candidates(view) if j_id not in j]

            if self.clustered:
                # one combined constraint over all admitted digests
                r_acc = dom.top()
                for n, lk in enumerate(lq):
                    jq = dom.bot()
                    for keys in admitted:
                        v = view.get(keys[n])
                        if v is not None:
                            jq = dom.join(jq, v)
                    r_acc = dom.meet(r_acc, dom.join(jq, s.l[lk]))
                r1 = dom.meet(s.r, r_acc)
                return {} if r1.bot else {target: ImprovedState(s.j, s.l, s.w, r1)}

            # per-digest relations, joined onto the always-sound join-local
            # floor (the incoming trace may be the initial one or the ego's
            # own past, both of which L accounts for); every contribution has
            # the source's J, L and W
            l_meet = dom.meet_all([s.l[lk] for lk in lq])
            r_acc = dom.meet(s.r, l_meet)
            for keys in admitted:
                vals = [view.get(k) for k in keys]
                r1 = dom.meet(s.r, dom.join(dom.meet_all(vals), l_meet))
                if not r1.bot:
                    r_acc = r1 if r_acc.bot else dom.join(r_acc, r1)
            return {} if r_acc.bot else {target: ImprovedState(s.j, s.l, s.w, r_acc)}

        return body
