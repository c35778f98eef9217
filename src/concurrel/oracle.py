"""Bounded concrete interleaving semantics, used as a differential oracle.

Explores all schedules (iterative DFS, state dedup) within bounds: havoc
draws from a finite value set, loops are cut by a per-(thread, point) visit
cap, and the total state count is capped.  Exploration is config-independent:
each thread carries its replayed digests (thread-id history with and without
the encountered-creates refinement, and the lock-once set) so one exploration
can be checked against any analysis configuration.

The digests are replayed through the analyzer's own specs,
``TidDigestSpec`` and ``LockOnceDigest``: ``new_thread`` and ``unary`` at a
create, ``binary`` at a lock (against the digests of the mutex's last
unlock) and at a join (against the joined thread's digests).  Both specs
keep their digest at every other action.  A ``binary`` that returns ``None``
on a step the oracle just took rejects a feasible combination of traces: it
is reported in ``digest_infeasibilities``, and the thread keeps its digest.

Globals start at 0; locals start at 0 (the concrete semantics allows any
initial local values, so this is one admissible choice for an
under-approximate oracle).  Mutexes are non-reentrant; join blocks until the
joined thread returned and each thread is joined at most once; reads see the
last write (sequentially consistent store).  Copies between globals and
locals are atomic: the lock/copy/unlock wrapper that lowering puts around
each access, on the mutex for which ``Program.is_atomicity_mutex`` holds,
executes as one oracle step (no user code can hold that mutex, so no
interleaving is lost at wrapper-external points).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .digests import MAIN_TID, AbstractTid, CreateEdge, LockOnceDigest, TidDigestSpec, tid_compose
from .frontend.ast import (
    Assert, AssignLocal, BinOp, Cmp, Create, Guard, Havoc, IntLit, Join,
    Lock, Program, ReadGlobal, Return, Unlock, Var, WriteGlobal, action_str,
)
from .frontend.cfg import Cfg, Edge, Point, build_cfg, collect_locals


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
    violations: dict[int, list[str]] = field(default_factory=dict)
    digest_infeasibilities: list[str] = field(default_factory=list)
    schedules: int = 0
    states: int = 0
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


# thread tuple layout.  POINT is a point id (None once returned), TDIG and
# LOCKONCE are ids into the exploration's tables of interned tid digests and
# lock-once sets, and VISITS is a sorted tuple of (point id, visits).  A state
# is thus built of ints, strings and tuples only: it hashes without Python
# code, and the garbage collector stops tracking it.
TID, POINT, LOCALS, STATUS, RETVAL, TDIG, LOCKONCE, VISITS = range(8)
RUNNING, RETURNED, JOINED = 0, 1, 2


class _Explorer:
    def __init__(self, program: Program, cfgs: dict[str, Cfg], bounds: ExploreBounds):
        self.program = program
        self.cfgs = cfgs
        self.bounds = bounds
        self.ex = Exploration()
        self.ex.lvars = tuple(sorted(set(collect_locals(cfgs)) | {"self"}))
        self.ex.gvars = tuple(sorted(program.globals))
        self.lidx = {v: i for i, v in enumerate(self.ex.lvars)}
        self.gidx = {g: i for i, g in enumerate(self.ex.gvars)}
        self.mutexes = program.all_mutexes
        self.midx = {m: i for i, m in enumerate(self.mutexes)}
        self.points: list[Point] = [p for cfg in cfgs.values() for p in cfg.points]
        self.pid = {p: i for i, p in enumerate(self.points)}
        self.tid_spec, self.lockonce_spec = TidDigestSpec(), LockOnceDigest()
        self.observing: list[Edge] = []  # lock and join edges, indexed by observation id
        self._observe_memo: dict[tuple[int, ...], tuple[tuple[int, int], list[str]]] = {}
        self.steps: list[list] = [
            [self._compile_edge(cfg, e) for e in cfg.out_edges(p)]
            for cfg in cfgs.values() for p in cfg.points
        ]
        self.ex.tid_abstractions["main"] = (MAIN_TID, MAIN_TID)
        # (tid, point id, lockset, locals, globals, tdig id, lockonce)
        self.reachable: set[tuple] = set()
        self._lockset_memo: dict = {}
        self.digs: list[tuple] = []  # interned tid digests, indexed by id
        self._dig_ids: dict[tuple, int] = {}
        self.lockonces: list[frozenset] = []  # interned lock-once sets
        self._lockonce_ids: dict[frozenset, int] = {}
        # visit counters are only kept for points that lie on a CFG cycle
        self.revisitable: set[int] = set()
        for cfg in cfgs.values():
            reach: dict[Point, set[Point]] = {p: set() for p in cfg.points}
            for e in cfg.edges:
                reach[e.src].add(e.dst)
            changed = True
            while changed:
                changed = False
                for p in cfg.points:
                    new_r = reach[p] | {q for d in reach[p] for q in reach[d]}
                    if len(new_r) != len(reach[p]):
                        reach[p] = new_r
                        changed = True
            self.revisitable |= {self.pid[p] for p in cfg.points if p in reach[p]}

    # -- edge compilation --

    def _compile_edge(self, cfg: Cfg, e: Edge):
        act = e.action
        label = f"{action_str(act)} @ {e.src}"
        dst = self.pid[e.dst]
        match act:
            case AssignLocal(x, expr):
                return ("assign", dst, label, self.lidx[x], _compile_expr(expr, self.lidx))
            case Havoc(x):
                return ("havoc", dst, label, self.lidx[x])
            case Guard(c):
                return ("guard", dst, label, _compile_cmp(c, self.lidx))
            case Assert(c, aid, _):
                return ("assert", dst, label, _compile_cmp(c, self.lidx), aid)
            case Lock(m) if self.program.is_atomicity_mutex(m):
                # fold the atomic copy wrapper lock(m_g); access; unlock(m_g)
                (mid,) = cfg.out_edges(e.dst)
                (after,) = cfg.out_edges(mid.dst)
                assert isinstance(after.action, Unlock)
                if isinstance(mid.action, ReadGlobal):
                    return ("copyr", self.pid[after.dst], label, self.lidx[mid.action.local],
                            self.gidx[mid.action.glob], self.midx[m], self._observation(e))
                return ("copyw", self.pid[after.dst], label, self.gidx[mid.action.glob],
                        self.lidx[mid.action.local], self.midx[m], self._observation(e))
            case Lock(m):
                return ("lock", dst, label, self.midx[m], self._observation(e))
            case Unlock(m):
                return ("unlock", dst, label, self.midx[m])
            case Create(x, template):
                start = self.cfgs[template].start
                return ("create", dst, label, self.lidx[x], e, start, self.pid[start])
            case Return(x):
                return ("return", dst, label, self.lidx[x])
            case Join(x1, x):
                return ("join", dst, label, self.lidx[x1], self.lidx[x], self._observation(e))
            case ReadGlobal() | WriteGlobal():
                return None  # inside a folded copy wrapper, where no thread stops
        raise TypeError(act)

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

    def _lockonce(self, s: frozenset) -> int:
        return self._intern(self.lockonces, self._lockonce_ids, s)

    def _record(self, t: tuple, globals_: tuple, held: tuple) -> None:
        if t[STATUS] != RUNNING:
            return
        key = (held, t[TID])
        lockset = self._lockset_memo.get(key)
        if lockset is None:
            lockset = frozenset(m for m, h in zip(self.mutexes, held) if h == t[TID])
            self._lockset_memo[key] = lockset
        self.reachable.add((t[TID], t[POINT], lockset, t[LOCALS], globals_,
                            t[TDIG], t[LOCKONCE]))

    def run(self) -> Exploration:
        locals0 = [0] * len(self.ex.lvars)
        locals0[self.lidx["self"]] = "main"
        main_dig = self._dig(self.tid_spec.init())
        no_locks = self._lockonce(self.lockonce_spec.init())
        main = ("main", self.pid[self.cfgs[self.program.entry].start], tuple(locals0),
                RUNNING, 0, main_dig, no_locks, ())
        globals0 = (0,) * len(self.ex.gvars)
        held0 = (None,) * len(self.mutexes)
        lu0 = ((main_dig, no_locks),) * len(self.mutexes)
        for g, v in zip(self.ex.gvars, globals0):
            self.ex.global_values.setdefault(g, set()).add(v)
        self._record(main, globals0, held0)
        stack = [((main,), globals0, held0, lu0, None)]
        bound_states = self.bounds.max_total_states
        seen: set = set()
        while stack:
            state = stack.pop()
            threads, globals_, held, lu, sched = state
            n_seen = len(seen)
            seen.add((threads, globals_, held, lu))
            if len(seen) == n_seen:
                continue
            self.ex.states += 1
            if self.ex.states > bound_states:
                self.ex.truncated_by.add("max_total_states")
                break
            succs = []
            for ti, t in enumerate(threads):
                if t[STATUS] == RUNNING:
                    for step in self.steps[t[POINT]]:
                        succs.extend(self._step(state, ti, step))
            if not succs:
                self.ex.schedules += 1
            stack.extend(reversed(succs))
        points, digs, tids = self.points, self.digs, self.ex.tid_abstractions
        self.ex.reachable = {
            Reachable(tid, points[p], lockset, ls, gs, digs[d], tids[tid][1], self.lockonces[lo])
            for tid, p, lockset, ls, gs, d, lo in self.reachable
        }
        return self.ex

    def _step(self, state, ti: int, step):
        threads, globals_, held, lu, sched = state
        t = threads[ti]
        kind = step[0]
        dst: int = step[1]
        if dst in self.revisitable:
            visits = dict(t[VISITS])
            n = visits.get(dst, 0)
            if n >= self.bounds.max_steps_per_thread:
                self.ex.truncated_by.add("max_steps_per_thread")
                return []
            visits[dst] = n + 1
            visits_f = tuple(sorted(visits.items()))
        else:
            visits_f = t[VISITS]
        # schedules are cons lists of (tid, step label), formatted by _sched
        label = (t[TID], step[2], sched)
        ls = t[LOCALS]
        out = []

        def push(point=dst, locals_=ls, status=RUNNING, retval=t[RETVAL],
                 tdig=t[TDIG], lockonce=t[LOCKONCE], others=None, g2=globals_,
                 h2=held, lu2=lu):
            nt = (t[TID], point, locals_, status, retval, tdig, lockonce, visits_f)
            ts = list(threads if others is None else others)
            ts[ti] = nt
            self._record(nt, g2, h2)
            out.append((tuple(ts), g2, h2, lu2, label))

        if kind == "assign":
            try:
                v = step[4](ls)
            except TypeError:
                return out
            i = step[3]
            push(locals_=ls[:i] + (v,) + ls[i + 1:])
        elif kind == "havoc":
            i = step[3]
            for v in self.bounds.havoc_values:
                push(locals_=ls[:i] + (v,) + ls[i + 1:])
        elif kind == "guard":
            try:
                ok = step[3](ls)
            except TypeError:
                return out
            if ok:
                push()
        elif kind == "assert":
            try:
                ok = step[3](ls)
            except TypeError:
                return out
            if not ok and step[4] not in self.ex.violations:
                self.ex.violations[step[4]] = _sched(label)
            push()
        elif kind == "copyr":
            i, gi, mi = step[3], step[4], step[5]
            if held[mi] is not None:
                return out
            digs2 = self._observe(t, step[6], lu[mi], label)
            push(locals_=ls[:i] + (globals_[gi],) + ls[i + 1:], tdig=digs2[0],
                 lockonce=digs2[1], lu2=lu[:mi] + (digs2,) + lu[mi + 1:])
        elif kind == "copyw":
            gi, i, mi = step[3], step[4], step[5]
            v = ls[i]
            if not isinstance(v, int) or held[mi] is not None:
                return out
            digs2 = self._observe(t, step[6], lu[mi], label)
            self.ex.global_values[self.ex.gvars[gi]].add(v)
            push(g2=globals_[:gi] + (v,) + globals_[gi + 1:], tdig=digs2[0],
                 lockonce=digs2[1], lu2=lu[:mi] + (digs2,) + lu[mi + 1:])
        elif kind == "lock":
            mi = step[3]
            if held[mi] is not None:
                return out
            tdig2, lockonce2 = self._observe(t, step[4], lu[mi], label)
            push(tdig=tdig2, lockonce=lockonce2, h2=held[:mi] + (t[TID],) + held[mi + 1:])
        elif kind == "unlock":
            mi = step[3]
            if held[mi] != t[TID]:
                return out
            lu2 = lu[:mi] + ((t[TDIG], t[LOCKONCE]),) + lu[mi + 1:]
            push(h2=held[:mi] + (None,) + held[mi + 1:], lu2=lu2)
        elif kind == "create":
            if len(threads) >= self.bounds.max_threads:
                self.ex.truncated_by.add("max_threads")
                return out
            i, e, start, start_id = step[3], step[4], step[5], step[6]
            tdig, lockonce = self.digs[t[TDIG]], self.lockonces[t[LOCKONCE]]
            child_digest = self.tid_spec.new_thread(e.src, start, tdig)
            child_base = tid_compose(self.ex.tid_abstractions[t[TID]][1],
                                     CreateEdge(e.src, e.action.template))
            prefix = f"{t[TID]}/{e.src}#"
            n2 = sum(1 for th in threads if th[TID].startswith(prefix))
            child_tid = f"{prefix}{n2}"
            self.ex.tid_abstractions[child_tid] = (child_digest[0], child_base)
            child_ls = ls[:self.lidx["self"]] + (child_tid,) + ls[self.lidx["self"] + 1:]
            child = (child_tid, start_id, child_ls, RUNNING, 0, self._dig(child_digest),
                     self._lockonce(self.lockonce_spec.new_thread(e.src, start, lockonce)), ())
            self._record(child, globals_, held)
            push(locals_=ls[:i] + (child_tid,) + ls[i + 1:],
                 tdig=self._dig(self.tid_spec.unary(e.src, e.action, tdig)),
                 lockonce=self._lockonce(self.lockonce_spec.unary(e.src, e.action, lockonce)),
                 others=tuple(threads) + (child,))
        elif kind == "return":
            v = ls[step[3]]
            if not isinstance(v, int):
                return out
            push(point=None, status=RETURNED, retval=v)
        elif kind == "join":
            i1, i = step[3], step[4]
            target = ls[i]
            tj_i = next((k for k, th in enumerate(threads) if th[TID] == target), None)
            if tj_i is None or threads[tj_i][STATUS] != RETURNED:
                return out
            tj = threads[tj_i]
            tdig2, lockonce2 = self._observe(t, step[5], (tj[TDIG], tj[LOCKONCE]), label)
            ts2 = list(threads)
            ts2[tj_i] = tj[:STATUS] + (JOINED,) + tj[STATUS + 1:]
            push(locals_=ls[:i1] + (tj[RETVAL],) + ls[i1 + 1:],
                 tdig=tdig2, lockonce=lockonce2, others=ts2)
        else:
            raise ValueError(kind)
        return out

    def _observe(self, t, obs: int, other: tuple[int, int], label) -> tuple[int, int]:
        """The (tid digest, lock-once) ids of thread ``t`` after the observing
        edge ``obs`` incorporates a trace with the digest ids ``other``: the
        last unlock of the locked mutex, or the joined thread."""
        key = (obs, t[TDIG], t[LOCKONCE]) + other
        r = self._observe_memo.get(key)
        if r is None:
            e = self.observing[obs]
            tdig = self.tid_spec.binary(e.src, e.action, self.digs[t[TDIG]], self.digs[other[0]])
            lockonce = self.lockonce_spec.binary(e.src, e.action, self.lockonces[t[LOCKONCE]],
                                                 self.lockonces[other[1]])
            r = self._observe_memo[key] = (
                (t[TDIG] if tdig is None else self._dig(tdig),
                 t[LOCKONCE] if lockonce is None else self._lockonce(lockonce)),
                [f"{spec} digest rejects feasible {type(e.action).__name__.lower()}"
                 for spec, d in (("tid", tdig), ("lock-once", lockonce)) if d is None],
            )
        for rejected in r[1]:
            self.ex.digest_infeasibilities.append(f"{rejected}: {_entry(label)}")
        return r[0]


def _entry(cons) -> str:
    """The last step of a schedule, as text."""
    return f"{cons[0]}: {cons[1]}"


def _sched(cons) -> list[str]:
    out = []
    while cons is not None:
        out.append(_entry(cons))
        cons = cons[2]
    return out[::-1]


def explore(program: Program, bounds: ExploreBounds = ExploreBounds(),
            cfgs: dict[str, Cfg] | None = None) -> Exploration:
    if cfgs is None:
        cfgs = build_cfg(program)
    return _Explorer(program, cfgs, bounds).run()
