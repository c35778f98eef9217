"""Bounded concrete interleaving semantics, used as a differential oracle.

Explores all schedules (iterative DFS, state dedup) within bounds: havoc
draws from a finite value set, loops are cut by a per-(thread, point) visit
cap, and the total state count is capped.  Exploration is config-independent:
each thread carries its replayed digests (thread-id history with and without
the encountered-creates refinement, and the lock-once set) so one exploration
can be checked against any analysis configuration.

The digests are replayed through the analyzer's own specs, listed in
``SPECS`` (``TidDigestSpec`` and ``LockOnceDigest``, each with the name its
rejections carry): ``new_thread`` and ``unary`` at a create, ``binary`` at a
lock (against the digests of the mutex's last unlock) and at a join (against
the joined thread's digests).  Both specs keep their digest at every other
action.  A ``binary`` that returns ``None`` on a step the oracle just took
rejects a feasible combination of traces: it is reported in
``digest_infeasibilities``, and the thread keeps that spec's digest.

Globals start at 0; locals start at 0 (the concrete semantics allows any
initial local values, so this is one admissible choice for an
under-approximate oracle).  Mutexes are non-reentrant; join blocks until the
joined thread returned and each thread is joined at most once; reads see the
last write (sequentially consistent store).  Copies between globals and
locals are atomic: the lock/copy/unlock wrapper that lowering puts around
each access, on the mutex for which ``Program.is_atomicity_mutex`` holds,
executes as one oracle step (no user code can hold that mutex, so no
interleaving is lost at wrapper-external points).

Each thread's local state is stored once in a table, and so are the shared
slots (globals, mutex holders, the digests of each mutex's last unlock) and
the digests (one tuple per thread, a digest per spec), as in SPIN's collapse
compression (Holzmann, "State compression in SPIN", 1997).  Each CFG edge is
compiled once into a step of one of the kinds the explorer dispatches on: a
local step (assign, havoc, guard, assert, return) is a function from the
moving thread to its successors, and the other kinds (lock, unlock, copy,
create, join) hold the indices their handlers read.

Local steps are collapsed.  In an explored state each thread is its segment
origin: the thread right after its creation or its last non-local step.  A
state is a tuple of origin ids plus a shared-slots id.  An origin's segment
is every thread reachable from it by local steps, computed in one pass over
its members once per exploration.  A local step reads and writes only its
own thread and leaves the locks and the shared slots as they are, and a join
needs its thread returned, which a local step reaches; so an interleaved
state (x_1 .. x_n, s) is reachable exactly when (o_1 .. o_n, s) is, with
each x_i in the segment of o_i (Lipton, CACM 1975).  The moves of an origin
from given shared slots (the successor origin and shared-slots ids of every
non-local step of a member that can fire there) are computed once per
exploration, in one memo by (origin id, shared-slots id); the reachable rows
and global values that its members' steps reach there are recorded then, so
``reachable`` is the set the full interleaving would give.  A move taken
again from another state is a table lookup; its digest rejections are
reported again on every take.  Creates and joins, which read the other
threads, are computed at every take; a join has one successor per returned
member of its thread's segment.  Successors that were already explored are
not pushed, and the cyclic garbage collector is off during ``explore``
(states hold no reference cycles).  A reachable row is (the moving thread's
interned view, globals, lockset), turned into ``Reachable`` tuples once at
the end.

``Exploration.states`` counts the explored states plus the members of every
segment, and ``max_total_states`` bounds that sum, so a long local loop still
stops at it.  ``Exploration.schedules`` counts the distinct interleaved
states without a move.  They are found per explored state, as the
combinations of one member per origin in which no member can move: a member
that can only create or join is stuck when the create is at the thread cap
and the joined thread's member in the combination has not returned.  A
violated assert is recorded with a schedule that reaches it: the steps to
its origin, then the local steps from there.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, NamedTuple

from .digests import MAIN_TID, AbstractTid, CreateEdge, LockOnceDigest, TidDigestSpec, tid_compose
from .frontend.ast import (
    Assert, AssignLocal, BinOp, Cmp, Create, Guard, Havoc, IntLit, Join,
    Lock, Program, ReadGlobal, Return, Unlock, Var, WriteGlobal, action_str,
)
from .frontend.cfg import Cfg, Edge, Point, build_cfg, cfg_vars


@dataclass(frozen=True)
class ExploreBounds:
    max_steps_per_thread: int = 12  # per-(thread, point) visit cap: loop bound
    havoc_values: tuple[int, ...] = (0, 1, 2)
    max_threads: int = 6
    max_total_states: int = 300_000


class Reachable(NamedTuple):
    """What one thread sees in one reachable state."""

    tid: str
    point: Point
    lockset: frozenset[str]  # the mutexes the thread holds
    locals: tuple  # values of Exploration.lvars
    globals: tuple  # values of Exploration.gvars
    tdig: tuple  # TidDigestSpec digest
    tbase: AbstractTid  # thread id without the encountered-creates refinement
    lockonce: frozenset[str]  # LockOnceDigest digest


@dataclass
class Exploration:
    lvars: tuple[str, ...] = ()
    gvars: tuple[str, ...] = ()
    reachable: set[Reachable] = field(default_factory=set)
    # the reachable tuples by (point, lockset); explore fills it with ``reachable``
    groups: dict[tuple[Point, frozenset[str]], list[Reachable]] = field(
        default_factory=dict, init=False)
    violations: dict[int, list[str]] = field(default_factory=dict)
    digest_infeasibilities: list[str] = field(default_factory=list)
    schedules: int = 0  # distinct interleaved states without a move
    states: int = 0  # explored states plus the members of every segment
    segments: int = 0  # distinct segment origins
    truncated_by: set[str] = field(default_factory=set)  # ExploreBounds fields hit
    tid_abstractions: dict[str, tuple] = field(default_factory=dict)
    global_values: dict[str, set] = field(default_factory=dict)

    @property
    def truncated(self) -> bool:
        return bool(self.truncated_by)


def _compile_expr(e, lidx: dict[str, int]) -> Callable:
    match e:
        case IntLit(v):
            return lambda ls, v=v: v
        case Var(name):
            i = lidx[name]
            return lambda ls, i=i: ls[i]
        case BinOp("+", l, r):
            fl, fr = _compile_expr(l, lidx), _compile_expr(r, lidx)
            return lambda ls: fl(ls) + fr(ls)
        case BinOp("-", l, r):
            fl, fr = _compile_expr(l, lidx), _compile_expr(r, lidx)
            return lambda ls: fl(ls) - fr(ls)
        case BinOp("*", l, r):
            fl, fr = _compile_expr(l, lidx), _compile_expr(r, lidx)
            return lambda ls: fl(ls) * fr(ls)
    raise TypeError(e)


_CMP = {
    "==": lambda l, r: l == r, "!=": lambda l, r: l != r,
    "<": lambda l, r: l < r, "<=": lambda l, r: l <= r,
    ">": lambda l, r: l > r, ">=": lambda l, r: l >= r,
}


def _compile_cmp(c: Cmp, lidx) -> Callable:
    fl, fr = _compile_expr(c.left, lidx), _compile_expr(c.right, lidx)
    op = _CMP[c.op]
    return lambda ls: op(fl(ls), fr(ls))


# The digest specs each thread replays, with the names their rejections carry.
SPECS = ((TidDigestSpec(), "tid"), (LockOnceDigest(), "lock-once"))

# Thread tuple layout.  POINT is a point id (None once returned), DIGS is an
# id into the exploration's table of interned digest tuples (one digest per
# entry of SPECS), and VISITS is a sorted tuple of (point id, visits).
# Thread tuples are interned in turn, and so are the shared slots (globals,
# held, lu): held names each mutex's holder (or None) and lu holds the DIGS
# id of each mutex's last unlock.  A state is (origin ids, shared id), built
# of ints and tuples only: it hashes without Python code and holds no cycle.
TID, POINT, LOCALS, STATUS, RETVAL, DIGS, VISITS = range(7)
RUNNING, RETURNED, JOINED = 0, 1, 2

# Kinds of steps, compiled once per CFG edge (see _Explorer._compile_edge),
# evaluated once per segment member (see _Explorer._segment) and turned into
# moves once per (origin, shared slots) (see _Explorer._moves).  A LOCAL step
# reads only its thread; COPYR reads the global and the last unlock of the
# copy's mutex, COPYW and LOCK read the last unlock of their mutex, and
# UNLOCK reads nothing but its held check (see _Explorer._shared_step).
# CREATE and JOIN read the other threads.
LOCAL, COPYR, COPYW, LOCK, UNLOCK, CREATE, JOIN = range(7)

_NO_LOCKS: frozenset[str] = frozenset()  # one object: frozenset() makes a new one each call


def _set(tup: tuple, i: int, v) -> tuple:
    return tup[:i] + (v,) + tup[i + 1:]


def _cycle_points(cfg: Cfg) -> set[Point]:
    """The points of ``cfg`` that lie on a cycle: those whose strongly
    connected component has an edge (Tarjan's algorithm, without recursion)."""
    index: dict[Point, int] = {}
    low: dict[Point, int] = {}
    stack: list[Point] = []
    on_stack: set[Point] = set()
    out: set[Point] = set()
    for root in cfg.points:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(cfg.out_edges(root)))]
        while work:
            p, it = work[-1]
            for e in it:
                q = e.dst
                if q not in index:
                    index[q] = low[q] = len(index)
                    stack.append(q)
                    on_stack.add(q)
                    work.append((q, iter(cfg.out_edges(q))))
                    break
                if q in on_stack:
                    low[p] = min(low[p], index[q])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[p])
                if low[p] == index[p]:
                    component = []
                    while not component or component[-1] != p:
                        component.append(stack.pop())
                        on_stack.discard(component[-1])
                    if len(component) > 1 or any(e.dst == p for e in cfg.out_edges(p)):
                        out.update(component)
    return out


class _Explorer:
    def __init__(self, program: Program, cfgs: dict[str, Cfg], bounds: ExploreBounds):
        self.program = program
        self.cfgs = cfgs
        self.bounds = bounds
        self.ex = Exploration()
        self.ex.lvars = tuple(sorted(set(cfg_vars(cfgs)[0]) | {"self"}))
        self.ex.gvars = tuple(sorted(program.globals))
        self.lidx = {v: i for i, v in enumerate(self.ex.lvars)}
        self.gidx = {g: i for i, g in enumerate(self.ex.gvars)}
        self.mutexes = program.all_mutexes
        self.midx = {m: i for i, m in enumerate(self.mutexes)}
        self.points: list[Point] = [p for cfg in cfgs.values() for p in cfg.points]
        self.pid = {p: i for i, p in enumerate(self.points)}
        self.observing: list[Edge] = []  # lock and join edges, indexed by observation id
        self._observe_memo: dict[tuple[int, int, int], tuple[int, list[str]]] = {}
        self.steps: list[list] = [
            [self._compile_edge(cfg, e) for e in cfg.out_edges(p)]
            for cfg in cfgs.values() for p in cfg.points
        ]
        self.ex.tid_abstractions["main"] = (MAIN_TID, MAIN_TID)
        self.digs: list[tuple] = []  # interned digest tuples (one per spec), indexed by id
        self._dig_ids: dict[tuple, int] = {}
        # interned thread tuples; per thread id, the id of its view (None
        # unless running)
        self.threads: list[tuple] = []
        self._thread_ids: dict[tuple, int] = {}
        self.views: list[int | None] = []
        # interned shared slots (globals, held, lu), indexed by shared id
        self.shared: list[tuple] = []
        self._shared_ids: dict[tuple, int] = {}
        # per origin thread id, its segment (see _segment)
        self.segments: dict[int, tuple] = {}
        # the moves of origin o from the shared slots s, by (o, s)
        self.moves: dict[tuple[int, int], tuple] = {}
        # the interleaved states without a move, as (thread ids, shared id)
        self.terminals: set[tuple] = set()
        # interned views (tid, point id, locals, digs id); the reachable rows
        # are (view id, globals, lockset)
        self.view_rows: list[tuple] = []
        self._view_ids: dict[tuple, int] = {}
        self.rows: set[tuple] = set()
        # interned locksets, so that the rows share one object per lockset
        self._locksets: dict[frozenset, frozenset] = {}
        # visit counters are only kept for points that lie on a CFG cycle
        self.revisitable: set[int] = {
            self.pid[p] for cfg in cfgs.values() for p in _cycle_points(cfg)}

    # -- edge compilation --

    def _compile_edge(self, cfg: Cfg, e: Edge):
        """The step of edge ``e`` as (kind, destination point id, label, mutex
        index, global index, x).  For a LOCAL step, x maps the moved thread
        (and the schedule that reached it) to its successor threads, or to
        None when the step cannot fire; for the other kinds it holds what
        ``_shared_step``, ``_create`` and ``_join`` read."""
        act = e.action
        label = f"{action_str(act)} @ {e.src}"
        dst = self.pid[e.dst]
        match act:
            case AssignLocal(x, expr):
                i, f = self.lidx[x], _compile_expr(expr, self.lidx)
                step = lambda t, sched: [_set(t, LOCALS, _set(t[LOCALS], i, f(t[LOCALS])))]
            case Havoc(x):
                i, values = self.lidx[x], self.bounds.havoc_values
                step = lambda t, sched: [_set(t, LOCALS, _set(t[LOCALS], i, v)) for v in values]
            case Guard(c):
                f = _compile_cmp(c, self.lidx)
                step = lambda t, sched: [t] if f(t[LOCALS]) else None
            case Return(x):
                i = self.lidx[x]
                step = lambda t, sched: (
                    [t[:POINT] + (None, t[LOCALS], RETURNED, t[LOCALS][i]) + t[DIGS:]]
                    if isinstance(t[LOCALS][i], int) else None)
            case Assert(c, aid, _):
                f, violations = _compile_cmp(c, self.lidx), self.ex.violations

                def step(t, sched):
                    if not f(t[LOCALS]) and aid not in violations:
                        violations[aid] = _sched((t[TID], (label,), sched))
                    return [t]
            case Lock(m) if self.program.is_atomicity_mutex(m):
                # fold the atomic copy wrapper lock(m_g); access; unlock(m_g)
                (mid,) = cfg.out_edges(e.dst)
                (after,) = cfg.out_edges(mid.dst)
                assert isinstance(after.action, Unlock)
                kind = COPYR if isinstance(mid.action, ReadGlobal) else COPYW
                return (kind, self.pid[after.dst], label, self.midx[m], self.gidx[mid.action.glob],
                        (self.lidx[mid.action.local], self._observation(e)))
            case Lock(m):
                return (LOCK, dst, label, self.midx[m], None, (None, self._observation(e)))
            case Unlock(m):
                return (UNLOCK, dst, label, self.midx[m], None, None)
            case Create(x, template):
                start = self.cfgs[template].start
                return (CREATE, dst, label, None, None, (self.lidx[x], e, start, self.pid[start]))
            case Join(x1, x):
                return (JOIN, dst, label, None, None,
                        (self.lidx[x1], self.lidx[x], self._observation(e)))
            case ReadGlobal() | WriteGlobal():
                return None  # inside a folded copy wrapper, where no thread stops
            case _:
                raise TypeError(act)
        return (LOCAL, dst, label, None, None, step)

    def _observation(self, e: Edge) -> int:
        self.observing.append(e)
        return len(self.observing) - 1

    # -- state helpers --

    @staticmethod
    def _intern(table: list, ids: dict, v) -> int:
        i = ids.get(v)
        if i is None:
            i = ids[v] = len(table)
            table.append(v)
        return i

    def _dig(self, d: tuple) -> int:
        return self._intern(self.digs, self._dig_ids, d)

    def _thread(self, t: tuple) -> int:
        i = self._thread_ids.get(t)
        if i is None:
            i = self._thread_ids[t] = len(self.threads)
            self.threads.append(t)
            self.views.append(None if t[STATUS] != RUNNING else self._intern(
                self.view_rows, self._view_ids, (t[TID], t[POINT], t[LOCALS], t[DIGS])))
        return i

    def _lockset(self, held: tuple, tid: str) -> frozenset:
        if tid not in held:
            return _NO_LOCKS
        lockset = frozenset(m for m, h in zip(self.mutexes, held) if h == tid)
        return self._locksets.setdefault(lockset, lockset)

    def _shared_id(self, slots: tuple) -> int:
        return self._intern(self.shared, self._shared_ids, slots)

    def run(self) -> Exploration:
        locals0 = [0] * len(self.ex.lvars)
        locals0[self.lidx["self"]] = "main"
        main_digs = self._dig(tuple(spec.init() for spec, _ in SPECS))
        main = self._thread(("main", self.pid[self.cfgs[self.program.entry].start],
                             tuple(locals0), RUNNING, 0, main_digs, ()))
        globals0 = (0,) * len(self.ex.gvars)
        held0 = (None,) * len(self.mutexes)
        lu0 = (main_digs,) * len(self.mutexes)
        for g, v in zip(self.ex.gvars, globals0):
            self.ex.global_values.setdefault(g, set()).add(v)
        self.rows.add((self.views[main], globals0, self._lockset(held0, "main")))
        threads, memo = self.threads, self.moves
        infeasible = self.ex.digest_infeasibilities
        # schedules are cons lists of (tid, step labels, rest), formatted by _sched
        stack = [(((main,), self._shared_id((globals0, held0, lu0))), None)]
        bound_states = self.bounds.max_total_states
        seen: set = set()
        while stack:
            state, sched = stack.pop()
            n_seen = len(seen)
            seen.add(state)
            if len(seen) == n_seen:
                continue
            self.ex.states += 1
            if self.ex.states > bound_states:
                self.ex.truncated_by.add("max_total_states")
                break
            origins, sid = state
            succs = []
            stucks = []
            for ti, o in enumerate(origins):
                entry = memo.get((o, sid))
                if entry is None:
                    entry = memo[o, sid] = self._moves(o, sid, sched)
                moves, stuck = entry
                stucks.append(stuck)
                tid = threads[o][TID]
                before, after = origins[:ti], origins[ti + 1:]
                for labels, rejected, nt, sid2 in moves:
                    cons = (tid, labels, sched)
                    if nt is None:  # a create or a join: it reads the other threads
                        kind, source = rejected
                        if kind == CREATE:
                            rejected, states = self._create(origins, ti, sid, source)
                        else:
                            rejected, states = self._join(origins, ti, sid, labels[-1], source, sched)
                        succs.extend((s2, cons) for s2 in states if s2 not in seen)
                    else:
                        s2 = (before + (nt,) + after, sid2)
                        if s2 not in seen:  # it would be skipped when popped
                            succs.append((s2, cons))
                    if rejected:
                        infeasible.extend(rejected)
            if all(stucks):
                self._add_terminals(origins, sid, stucks)
            stack.extend(reversed(succs))
        self.ex.schedules = len(self.terminals)
        self.ex.segments = len(self.segments)
        points, digs, tids = self.points, self.digs, self.ex.tid_abstractions
        reachable, groups = self.ex.reachable, self.ex.groups
        for view, gs, lockset in self.rows:
            tid, p, ls, d = self.view_rows[view]
            (tdig, lockonce) = digs[d]  # in the order of SPECS
            reachable.add(Reachable(tid, points[p], lockset, ls, gs, tdig, tids[tid][1], lockonce))
        for rs in reachable:  # in the set's order, as a walk of ``reachable`` sees them
            groups.setdefault((rs.point, rs.lockset), []).append(rs)
        return self.ex

    # -- steps --

    def _segment(self, o: int, sched) -> tuple:
        """The segment of the origin ``o``: every thread reachable from
        ``o`` by local steps (its members, ``o`` included), found in one
        pass that evaluates each member's steps, as (the view ids of the
        members a local step reaches, the other steps of the members, the
        members without a local step).  A non-local step is (member, kind,
        labels, mutex index, global index, the compiled step's last field,
        the moved thread), where the labels are those of the local steps
        from ``o`` to the member and its own, and the moved thread is the
        member at the step's destination with its visit counted.  A leaf is
        (member, its create and join steps as (kind, the compiled step's
        last field, the moved thread)).  A step that can never fire (its
        visit cap is reached, a guard fails, an operand is a thread name) is
        left out.  ``sched`` reached ``o``; a member's violated asserts are
        recorded with ``sched`` extended by the local steps that reach it.
        Each member counts as an explored state."""
        seg = self.segments.get(o)
        if seg is not None:
            return seg
        threads, views, revisitable = self.threads, self.views, self.revisitable
        cap = self.bounds.max_steps_per_thread
        tid = threads[o][TID]
        paths = {o: ()}  # member -> labels of the local steps from o
        members = [o]
        steps, leaves = [], []
        for m in members:  # grows while it is walked
            self.ex.states += 1
            if self.ex.states > self.bounds.max_total_states:
                self.ex.truncated_by.add("max_total_states")
                break
            path, t = paths[m], threads[m]
            local, waits = False, []
            mine = self.steps[t[POINT]] if t[STATUS] == RUNNING else ()
            for kind, dst, label, mi, gi, arg in mine:
                visits = t[VISITS]
                if dst in revisitable:
                    counts = dict(visits)
                    n = counts.get(dst, 0)
                    if n >= cap:
                        self.ex.truncated_by.add("max_steps_per_thread")
                        continue
                    counts[dst] = n + 1
                    visits = tuple(sorted(counts.items()))
                moved = (tid, dst) + t[LOCALS:VISITS] + (visits,)
                if kind == LOCAL:
                    try:  # arithmetic on, or an order comparison with, a thread name
                        succs = arg(moved, (tid, path, sched) if path else sched)
                    except TypeError:
                        continue
                    if succs is None:
                        continue
                    local = True
                    for nt in map(self._thread, succs):
                        if nt not in paths:
                            paths[nt] = path + (label,)
                            members.append(nt)
                    continue
                if kind == COPYW and not isinstance(moved[LOCALS][arg[0]], int):
                    continue  # a thread name is never written to a global
                if kind == CREATE or kind == JOIN:
                    waits.append((kind, arg, moved))
                steps.append((m, kind, path + (label,), mi, gi, arg, moved))
            if not local:
                leaves.append((m, tuple(waits)))
        reached = tuple(views[m] for m in members[1:] if views[m] is not None)
        seg = self.segments[o] = (reached, tuple(steps), tuple(leaves))
        return seg

    def _moves(self, o: int, sid: int, sched) -> tuple:
        """The moves of origin ``o`` from the shared slots ``sid``, and its
        leaves (see ``_segment``) that cannot move there but by a create or
        a join.  A move is (labels, rejected digests, next origin id, next
        shared id), one per non-local step of a member that can fire there.
        The rows that the members' local steps and these moves reach, and
        the values the moves write to globals, are recorded here, once.  A
        create or a join, which reads the other threads, is (labels, (kind,
        source), None, None), and ``_create`` or ``_join`` computes it at
        every take.  ``sched`` reached the state, for ``_segment`` at the
        origin's first expansion."""
        reached, steps, leaves = self._segment(o, sched)
        slots = self.shared[sid]
        globals_, held, _ = slots
        tid = self.threads[o][TID]
        rows = self.rows
        lockset = self._lockset(held, tid)
        for view in reached:
            rows.add((view, globals_, lockset))
        out = []
        fired = set()
        for m, kind, labels, mi, gi, arg, moved in steps:
            if kind == CREATE or kind == JOIN:
                out.append((labels, (kind, (arg, moved)), None, None))
            elif held[mi] == (tid if kind == UNLOCK else None):
                fired.add(m)
                nt, slots2, rejected = self._shared_step(kind, labels[-1], mi, gi, arg, moved, slots)
                rows.add((self.views[nt], slots2[0], self._lockset(slots2[1], tid)))
                out.append((labels, rejected, nt, self._shared_id(slots2)))
        return tuple(out), tuple(leaf for leaf in leaves if leaf[0] not in fired)

    def _shared_step(self, kind: int, label: str, mi: int, gi: int, arg, moved: tuple,
                     slots: tuple) -> tuple:
        """The successor thread id, shared slots and rejected digests of a
        COPYR, COPYW, LOCK or UNLOCK step of the mutex ``mi`` that can fire
        from the shared slots ``slots``.  A copy or a lock observes the last
        unlock ``lu[mi]``; a copy and an unlock leave their digests there."""
        globals_, held, lu = slots
        tid = moved[TID]
        if kind == UNLOCK:
            return self._thread(moved), (globals_, _set(held, mi, None), _set(lu, mi, moved[DIGS])), ()
        li, obs = arg
        digs2, rejected = self._observe(moved, obs, lu[mi])
        rejected = tuple(f"{r}: {tid}: {label}" for r in rejected)
        moved = _set(moved, DIGS, digs2)
        if kind == LOCK:
            return self._thread(moved), (globals_, _set(held, mi, tid), lu), rejected
        if kind == COPYR:
            moved = _set(moved, LOCALS, _set(moved[LOCALS], li, globals_[gi]))
        else:
            v = moved[LOCALS][li]
            self.ex.global_values[self.ex.gvars[gi]].add(v)
            globals_ = _set(globals_, gi, v)
        return self._thread(moved), (globals_, held, _set(lu, mi, digs2)), rejected

    def _create(self, origins: tuple, ti: int, sid: int, source):
        """A create step of origin ``origins[ti]`` from the shared slots
        ``sid``: its rejected digests and its successor states, none at the
        thread cap."""
        if len(origins) >= self.bounds.max_threads:
            self.ex.truncated_by.add("max_threads")
            return (), ()
        (i, e, start, start_id), moved = source
        globals_, held, _ = self.shared[sid]
        ls = moved[LOCALS]
        mine = tuple(zip(SPECS, self.digs[moved[DIGS]]))
        child_digs = tuple(spec.new_thread(e.src, start, d) for (spec, _), d in mine)
        child_base = tid_compose(self.ex.tid_abstractions[moved[TID]][1],
                                 CreateEdge(e.src, e.action.template))
        prefix = f"{moved[TID]}/{e.src}#"
        n2 = sum(1 for y in origins if self.threads[y][TID].startswith(prefix))
        child_tid = f"{prefix}{n2}"
        # SPECS lists TidDigestSpec first; its digest is (abstract tid, creates)
        self.ex.tid_abstractions[child_tid] = (child_digs[0][0], child_base)
        child = self._thread((child_tid, start_id, _set(ls, self.lidx["self"], child_tid),
                              RUNNING, 0, self._dig(child_digs), ()))
        self.rows.add((self.views[child], globals_, self._lockset(held, child_tid)))
        digs2 = self._dig(tuple(spec.unary(e.src, e.action, d) for (spec, _), d in mine))
        nt = self._thread(_set(_set(moved, LOCALS, _set(ls, i, child_tid)), DIGS, digs2))
        self.rows.add((self.views[nt], globals_, self._lockset(held, moved[TID])))
        return (), [(_set(origins, ti, nt) + (child,), sid)]

    def _join(self, origins: tuple, ti: int, sid: int, label: str, source, sched):
        """A join step, as ``_create``, with one successor per returned
        member of the joined thread's segment, where that member is marked
        joined: none while no member returned."""
        (ri, xi, obs), moved = source
        target = moved[LOCALS][xi]
        tj_i = next((k for k, y in enumerate(origins) if self.threads[y][TID] == target), None)
        if tj_i is None:
            return (), ()
        globals_, held, _ = self.shared[sid]
        lockset = self._lockset(held, moved[TID])
        rejected, states = [], []
        for r, _ in self._segment(origins[tj_i], sched)[2]:
            tj = self.threads[r]
            if tj[STATUS] != RETURNED:
                continue
            digs2, rejects = self._observe(moved, obs, tj[DIGS])
            rejected += (f"{x}: {moved[TID]}: {label}" for x in rejects)
            nt = self._thread(_set(_set(moved, LOCALS, _set(moved[LOCALS], ri, tj[RETVAL])),
                                   DIGS, digs2))
            self.rows.add((self.views[nt], globals_, lockset))
            joined = self._thread(_set(tj, STATUS, JOINED))
            states.append((_set(_set(origins, ti, nt), tj_i, joined), sid))
        return rejected, states

    def _add_terminals(self, origins: tuple, sid: int, stucks: list) -> None:
        """Record the interleaved states of the collapsed state (``origins``,
        ``sid``) where no thread can move: one member per thread, among the
        leaves in ``stucks`` that can only move by a create or a join, such
        that no create is under the thread cap and no join finds its thread
        returned."""
        threads = self.threads
        capped = len(origins) >= self.bounds.max_threads
        for combo in product(*stucks):
            returned = {threads[m][TID] for m, _ in combo if threads[m][STATUS] == RETURNED}
            if not any(kind == CREATE and not capped
                       or kind == JOIN and moved[LOCALS][arg[1]] in returned
                       for _, waits in combo for kind, arg, moved in waits):
                self.terminals.add((tuple(m for m, _ in combo), sid))

    def _observe(self, t: tuple, obs: int, other: int) -> tuple[int, list[str]]:
        """The digests id of thread ``t`` after the observing edge ``obs``
        incorporates a trace with the digests id ``other`` (the last unlock
        of the locked mutex, or the joined thread), and the rejections of
        the specs that reject the combination (each keeps its digest)."""
        key = (obs, t[DIGS], other)
        r = self._observe_memo.get(key)
        if r is None:
            e = self.observing[obs]
            digs, rejected = [], []
            for (spec, name), d, d1 in zip(SPECS, self.digs[t[DIGS]], self.digs[other]):
                d2 = spec.binary(e.src, e.action, d, d1)
                if d2 is None:
                    rejected.append(
                        f"{name} digest rejects feasible {type(e.action).__name__.lower()}")
                digs.append(d if d2 is None else d2)
            r = self._observe_memo[key] = (self._dig(tuple(digs)), rejected)
        return r


def _sched(cons) -> list[str]:
    """A schedule cons list (tid, step labels, rest), as text, first step first."""
    out = []
    while cons is not None:
        tid, labels, cons = cons
        out.extend(f"{tid}: {label}" for label in reversed(labels))
    return out[::-1]


def explore(program: Program, bounds: ExploreBounds = ExploreBounds(),
            cfgs: dict[str, Cfg] | None = None) -> Exploration:
    if cfgs is None:
        cfgs = build_cfg(program)
    # states hold no reference cycles, so the cyclic collector would only
    # walk the growing state set again and again
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _Explorer(program, cfgs, bounds).run()
    finally:
        if enabled:
            gc.enable()
