"""Assert verdicts, lock-point invariants and stable solution dumps.

The reports read the solved assignment through the constraint system: its
``relation`` of a value and, in a dump, its ``render`` of a key's value.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frontend.ast import Lock, negate
from ..frontend.cfg import assert_sites
from .driver import AnalysisResult, local_vars
from .keys import PointKey, render_key
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


def dump_solution(result: AnalysisResult) -> str:
    lines = []
    for k in result.solver.values:
        if isinstance(k, PointKey):
            key_s = render_key(k, result.spec.render)
        else:
            key_s = render_key(k)
        lines.append(f"{key_s} := {result.system.render(k, result.solver.values[k])}")
    return "\n".join(sorted(lines)) + "\n"
