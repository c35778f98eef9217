"""Front door of the analysis: program + config -> solved assignment + reports."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from ..digests import DigestSpec, LockOnceDigest
from ..frontend.ast import IntLit, Program
from ..frontend.cfg import Cfg, Point, build_cfg, cfg_vars
from ..frontend.validate import Diagnostic, validate
from ..solver import DEFAULT_BUDGET, Solver
from ..domains.relation import RelDomain, Relation, Universe
from .base_system import WrappedBaseSystem
from .config import AnalysisConfig, ConfigError
from .improved_system import ImprovedSystem
from .keys import MutexKey, PointKey
from .protections import compute_protections, protected_by


class ProgramError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass
class AnalysisResult:
    program: Program
    config: AnalysisConfig
    cfgs: dict[str, Cfg]
    dom: RelDomain
    universe: Universe
    protections: dict[str, frozenset[str]]
    solver: Solver
    system: Any
    spec: DigestSpec
    wall_ms: float = 0.0
    diagnostics: list[Diagnostic] = field(default_factory=list)

    # -- uniform views over the assignment --

    @cached_property
    def _point_index(self) -> dict[Point, list[PointKey]]:
        out: dict[Point, list[PointKey]] = {}
        for k in self.solver.values:
            if isinstance(k, PointKey):
                out.setdefault(k.point, []).append(k)
        return out

    def point_keys(self, point: Point, lockset: frozenset[str] | None = None) -> list[PointKey]:
        """The unknowns of a point (of one lockset), in discovery order."""
        keys = self._point_index.get(point, [])
        return keys if lockset is None else [k for k in keys if k.lockset == lockset]

    def point_value(self, point: Point, lockset: frozenset[str] | None = None) -> Relation:
        """Abstract value at a point, joined over digests (and locksets)."""
        return self.dom.join_all(
            self.system.relation(self.solver.values[k]) for k in self.point_keys(point, lockset))

    @cached_property
    def _published(self) -> dict[str, Relation]:
        """Every global's published values, built in one pass over the
        solver values (each global's joins in the solver's order)."""
        dom = self.dom
        out = {g: dom.restrict(dom.assign_expr(dom.top(), g, IntLit(0)), {g})
               for g in self.program.globals}
        for k, v in self.solver.values.items():
            if isinstance(k, MutexKey):
                for g in k.cluster:
                    out[g] = dom.join(out[g], dom.restrict(v, {g}))
        return out

    def published_values(self, g: str) -> Relation:
        """Join of everything published for clusters containing g, plus the
        initial value 0 (which improved modes keep in L, not at unknowns)."""
        return self._published[g]

    def stats(self) -> dict:
        return {
            "unknowns": len(self.solver.values),
            "evaluations": self.solver.stats.evaluations,
            "constraints": len(self.solver.constraints),
            "widenings": self.solver.stats.widened,
            "relations": self.dom.relations,
            "memo_hits": self.dom.memo_hits,
            "wall_ms": round(self.wall_ms, 1),
        }


def build_universe(cfgs: dict[str, Cfg], program: Program) -> Universe:
    locals_, tids = cfg_vars(cfgs)
    ints = sorted((set(locals_) | set(program.globals) | {"ret"}) - {"self"})
    return Universe(tuple(ints), tuple(sorted(tids)))


def local_vars(universe: Universe, program: Program) -> tuple[str, ...]:
    """Every variable of the universe that is neither a global nor ``ret``."""
    return tuple(v for v in universe.all_vars if v not in program.globals and v != "ret")


def run_analysis(program: Program, config: AnalysisConfig) -> AnalysisResult:
    cfgs = build_cfg(program)
    diags = validate(program, cfgs)
    if any(d.severity == "error" for d in diags):
        raise ProgramError([d for d in diags if d.severity == "error"])

    protections = compute_protections(program, cfgs, config.protections)
    clusters = {a: config.clusters.clusters_for(a, protected_by(protections, a))
                for a in program.all_mutexes}
    universe = build_universe(cfgs, program)
    dom = RelDomain(universe, config.domain)
    locals_ = local_vars(universe, program)

    if config.mode == "base":
        spec = LockOnceDigest() if config.lock_once else DigestSpec()
        system = WrappedBaseSystem(program, cfgs, dom, protections, clusters, locals_, spec)
    else:
        system = ImprovedSystem(
            program, cfgs, dom, protections, clusters, locals_,
            clustered=(config.mode == "clusters"),
            exclude_ancestor_writes=config.exclude_ancestor_writes,
        )

    raw_budget = os.environ.get("CONCURREL_STEP_BUDGET")
    try:
        budget = DEFAULT_BUDGET if raw_budget is None else int(raw_budget)
    except ValueError:
        raise ConfigError(
            f"CONCURREL_STEP_BUDGET must be an integer, not {raw_budget!r}") from None
    solver = Solver(system, budget=budget)
    t0 = time.perf_counter()
    solver.solve()
    wall = (time.perf_counter() - t0) * 1000.0
    return AnalysisResult(
        program, config, cfgs, dom, universe, protections, solver, system, system.spec, wall,
        diags,
    )
