"""Assert verdicts, lock-point invariants and stable solution dumps."""

from __future__ import annotations

from dataclasses import dataclass

from ..frontend.ast import Lock, negate
from ..frontend.cfg import assert_sites
from ..domains.relation import Relation
from .driver import AnalysisResult, local_vars
from .improved_system import ImprovedState
from .keys import PointKey, RetKey, render_key
from .protections import protected_by


@dataclass(frozen=True)
class AssertVerdict:
    aid: int
    template: str
    line: int
    col: int
    verdict: str  # 'PROVEN' | 'UNKNOWN'
    cond: str


def check_asserts(result: AnalysisResult) -> list[AssertVerdict]:
    """PROVEN iff at every instantiated unknown of the assert's program point
    the negated condition is unsatisfiable; vacuously PROVEN if unreachable."""
    out = []
    for site in assert_sites(result.cfgs):
        verdict = "PROVEN"
        neg = negate(site.cond)
        for k in result.point_keys(site.point):
            r = result.system.relation(result.solver.values[k])
            if not result.dom.is_bot(result.dom.guard(r, neg)):
                verdict = "UNKNOWN"
                break
        out.append(AssertVerdict(site.aid, site.template, site.pos.line,
                                 site.pos.col, verdict, site.orig or str(site.cond)))
    return out


@dataclass(frozen=True)
class LockInvariant:
    point: str
    mutex: str
    invariant: str


def derive_lock_invariants(result: AnalysisResult) -> list[LockInvariant]:
    """Relation after each lock edge, restricted to the mutex's globals and
    the locals, joined over locksets and digests."""
    out = []
    locals_ = set(local_vars(result.universe, result.program))
    for name in sorted(result.cfgs):
        cfg = result.cfgs[name]
        for e in cfg.edges:
            if not isinstance(e.action, Lock):
                continue
            v = result.point_value(e.dst)
            if result.dom.is_bot(v):
                out.append(LockInvariant(str(e.src), e.action.mutex, "unreachable"))
                continue
            keep = locals_ | protected_by(result.protections, e.action.mutex)
            v = result.dom.restrict(v, keep)
            out.append(LockInvariant(str(e.src), e.action.mutex, result.dom.render(v)))
    return out


def _render_value(result: AnalysisResult, key, v) -> str:
    dom = result.dom
    if isinstance(v, ImprovedState):
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
    return dom.render(v)


def dump_solution(result: AnalysisResult) -> str:
    lines = []
    for k in result.solver.values:
        if isinstance(k, PointKey):
            key_s = render_key(k, result.spec.render)
        else:
            key_s = render_key(k)
        lines.append(f"{key_s} := {_render_value(result, k, result.solver.values[k])}")
    return "\n".join(sorted(lines)) + "\n"
