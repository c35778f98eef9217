"""Lowering of parsed templates to per-thread control-flow graphs.

Lowering also enforces the atomic-copy discipline: every access to a global
g moves a single value between g and a local and is wrapped in
lock(m_g)/unlock(m_g) edges for the dedicated atomicity mutex m_g.
Compound forms (``g = y + 9``, ``assert(g == h)``, ``return 0``) are
desugared through fresh temporaries ``$tN``.

A ``Point`` is a named tuple, hashed in C at every lookup: points key the
CFG's and the oracle's tables and sit inside the solver's keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .ast import (
    Action, Assert, AssignLocal, Cmp, Create, Expr, Guard, Havoc, IntLit,
    Join, Lock, Pos, Program, ReadGlobal, Return, SAssert, SAssign, SIf,
    SLock, SReturn, SUnlock, SWhile, Stmt, Unlock, Var, WriteGlobal,
    action_str, expr_vars, negate,
)


class Point(NamedTuple):
    template: str
    idx: int

    def __str__(self) -> str:
        return f"{self.template}.{self.idx}"


@dataclass(frozen=True)
class Edge:
    src: Point
    action: Action
    dst: Point
    pos: Pos = field(default=Pos(0, 0), compare=False)  # the statement lowered here


@dataclass
class Cfg:
    template: str
    start: Point
    points: list[Point] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    # every point on a cycle, and some unreachable ones (see _Lowerer.stmt)
    loops: set[Point] = field(default_factory=set)

    @cached_property
    def _out(self) -> dict[Point, list[Edge]]:
        # built at the first query, once lowering has added every edge
        out: dict[Point, list[Edge]] = {}
        for e in self.edges:
            out.setdefault(e.src, []).append(e)
        return out

    def out_edges(self, u: Point) -> list[Edge]:
        """The edges leaving ``u``, in edge-list order (do not mutate)."""
        return self._out.get(u, [])


TRUE_GUARD = Cmp("==", IntLit(0), IntLit(0))


class _Lowerer:
    """Lowers the templates of one program in turn; temporaries and assert
    ids are numbered across the whole program."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.gset = set(prog.globals)
        self.tmps = 0
        self.aids = 0
        self.pos = Pos(0, 0)  # position of the statement being lowered

    def lower(self, template: str, body: tuple[Stmt, ...]) -> Cfg:
        self.cfg = Cfg(template, Point(template, 0), [Point(template, 0)])
        self.block(body, self.cfg.start)
        return self.cfg

    def fresh(self) -> Point:
        p = Point(self.cfg.template, len(self.cfg.points))
        self.cfg.points.append(p)
        return p

    def tmp(self) -> str:
        self.tmps += 1
        return f"$t{self.tmps - 1}"

    def edge(self, src: Point, act: Action) -> Point:
        dst = self.fresh()
        self.edge_to(src, act, dst)
        return dst

    def edge_to(self, src: Point, act: Action, dst: Point) -> None:
        self.cfg.edges.append(Edge(src, act, dst, self.pos))

    def copy(self, cur: Point, access: ReadGlobal | WriteGlobal) -> Point:
        """The copy ``access`` between a global and a local, wrapped in the
        global's atomicity mutex."""
        m = self.prog.protecting_mutex(access.glob)
        return self.edge(self.edge(self.edge(cur, Lock(m)), access), Unlock(m))

    def to_local(self, cur: Point, e: Expr) -> tuple[Point, str]:
        """Make the value of ``e`` available in a local, reading globals if needed."""
        if isinstance(e, Var) and e.name not in self.gset:
            return cur, e.name
        t = self.tmp()
        if isinstance(e, Var):  # bare global
            return self.copy(cur, ReadGlobal(t, e.name)), t
        return self.edge(cur, AssignLocal(t, e)), t

    # -- statements --

    def block(self, stmts: tuple[Stmt, ...], cur: Point) -> Point:
        for s in stmts:
            cur = self.stmt(s, cur)
        return cur

    def stmt(self, s: Stmt, cur: Point) -> Point:
        self.pos = s.pos
        match s:
            case SLock(m, _):
                return self.edge(cur, Lock(m))
            case SUnlock(m, _):
                return self.edge(cur, Unlock(m))
            case SAssign(x, e, havoc, create, join, _):
                if x in self.gset:
                    if havoc:
                        t = self.tmp()
                        cur = self.edge(cur, Havoc(t))
                        return self.copy(cur, WriteGlobal(x, t))
                    assert e is not None
                    cur, t = self.to_local(cur, e)
                    return self.copy(cur, WriteGlobal(x, t))
                if havoc:
                    return self.edge(cur, Havoc(x))
                if create:
                    return self.edge(cur, Create(x, create))
                if join:
                    return self.edge(cur, Join(x, join))
                assert e is not None
                if isinstance(e, Var) and e.name in self.gset:
                    return self.copy(cur, ReadGlobal(x, e.name))
                return self.edge(cur, AssignLocal(x, e))
            case SReturn(e, _):
                cur, t = self.to_local(cur, e)
                self.edge(cur, Return(t))
                return self.fresh()  # code after return is structurally dead
            case SAssert(c, pos):
                orig = str(c)
                cur, c = self.hoist_globals(cur, c)
                self.aids += 1
                return self.edge(cur, Assert(c, self.aids - 1, pos, orig))
            case SIf(c, then, orelse, _):
                t_in = self.edge(cur, Guard(c))
                e_in = self.edge(cur, Guard(negate(c)))
                t_out = self.block(then, t_in)
                e_out = self.block(orelse, e_in)
                self.pos = s.pos
                merge = self.fresh()
                self.edge_to(t_out, Guard(TRUE_GUARD), merge)
                self.edge_to(e_out, Guard(TRUE_GUARD), merge)
                return merge
            case SWhile(c, body, _):
                head = cur
                if cur == self.cfg.start:
                    # keep the start point free of incoming (back) edges
                    head = self.edge(cur, Guard(TRUE_GUARD))
                first = len(self.cfg.edges)
                body_in = self.edge(head, Guard(c))
                body_out = self.block(body, body_in)
                self.pos = s.pos
                self.edge_to(body_out, Guard(TRUE_GUARD), head)
                # only a back edge closes a cycle: the loop's points on one are
                # those that lead back to its head along its edges, and the
                # others that do are unreachable
                self.cfg.loops |= _leading_to(self.cfg.edges[first:], head)
                return self.edge(head, Guard(negate(c)))
        raise TypeError(s)

    def hoist_globals(self, cur: Point, c: Cmp) -> tuple[Point, Cmp]:
        """Replace globals in an assert condition by freshly read locals."""
        subst: dict[str, str] = {}
        for v in sorted(expr_vars(c) & self.gset):
            t = self.tmp()
            cur = self.copy(cur, ReadGlobal(t, v))
            subst[v] = t

        def sub(e):
            match e:
                case Var(name) if name in subst:
                    return Var(subst[name])
                case Cmp(op, l, r):
                    return Cmp(op, sub(l), sub(r))
                case _ if hasattr(e, "left"):
                    return type(e)(e.op, sub(e.left), sub(e.right))
                case _:
                    return e

        return cur, sub(c)


def _leading_to(edges: list[Edge], target: Point) -> set[Point]:
    """The points from which a path of one or more of ``edges`` leads to ``target``."""
    preds: dict[Point, set[Point]] = {}
    for e in edges:
        preds.setdefault(e.dst, set()).add(e.src)
    found, todo = set(), [target]
    while todo:
        new = preds.get(todo.pop(), set()) - found
        found |= new
        todo += new
    return found


def build_cfg(program: Program) -> dict[str, Cfg]:
    """Lower every template; deterministic point numbering per template.

    A ``Program`` is lowered once, at the first call, and every later call
    returns the same CFGs: the oracle and every analysis of one program
    share them, so they are read-only to every caller.  A program built
    anew, by the parser or by ``dataclasses.replace``, is lowered anew."""
    cfgs = program.derived.get("cfgs")
    if cfgs is None:
        lo = _Lowerer(program)
        cfgs = program.derived["cfgs"] = {
            name: lo.lower(name, body) for name, body in program.threads.items()}
    return cfgs


# -- derived metadata ---------------------------------------------------------

def cfg_vars(cfgs: dict[str, Cfg]) -> tuple[tuple[str, ...], frozenset[str]]:
    """All local variables (temporaries included) in a stable order, and the
    locals holding thread ids: create targets and join sources, plus self."""
    names: set[str] = set()
    tids = {"self"}
    for cfg in cfgs.values():
        for e in cfg.edges:
            match e.action:
                case ReadGlobal(x, _) | Havoc(x) | Return(x) | WriteGlobal(_, x):
                    names.add(x)
                case AssignLocal(x, expr):
                    names.add(x)
                    names |= expr_vars(expr)
                case Guard(c) | Assert(c, _, _):
                    names |= expr_vars(c)
                case Create(x, _):
                    names.add(x)
                    tids.add(x)
                case Join(x1, x):
                    names.update((x1, x))
                    tids.add(x)
    return tuple(sorted(names)), frozenset(tids)


@dataclass(frozen=True)
class AssertSite:
    aid: int
    template: str
    point: Point  # source point of the assert edge
    cond: Cmp
    pos: Pos
    orig: str


def assert_sites(cfgs: dict[str, Cfg]) -> list[AssertSite]:
    sites = []
    for cfg in cfgs.values():
        for e in cfg.edges:
            if isinstance(e.action, Assert):
                sites.append(AssertSite(e.action.aid, cfg.template, e.src,
                                        e.action.cond, e.action.pos, e.action.orig))
    sites.sort(key=lambda s: s.aid)
    return sites


def cfg_dump(cfgs: dict[str, Cfg]) -> str:
    """Stable text rendering used by golden/determinism tests."""
    lines = []
    for name in sorted(cfgs):
        cfg = cfgs[name]
        lines.append(f"template {name} start={cfg.start}")
        for e in cfg.edges:
            lines.append(f"  {e.src} --[{action_str(e.action)}]--> {e.dst}")
    return "\n".join(lines) + "\n"
