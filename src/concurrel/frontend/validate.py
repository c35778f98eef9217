"""Post-parse validation: diagnostics, never aborts.

One walk per template, ``held_locksets``, follows the mutexes held along
every CFG path.  It finds re-entrant locks and unlocks of un-held mutexes,
and gives the held sets at each global write, from which ``validate``
checks declared protections and ``analysis.protections`` infers them.
Diagnostics render as ``file:line:col: severity: message``; the ones about
a statement carry the statement's position, the declaration-level warnings
(uncovered global, no protecting mutex) point at 1:1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import Lock, Program, Unlock, WriteGlobal
from .cfg import Cfg, Edge, build_cfg


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    severity: str  # 'error' | 'warning'
    message: str
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}: {self.severity}: {self.message}"


def held_locksets(cfg: Cfg) -> tuple[dict[Edge, list[frozenset[str]]], list[tuple[Edge, str]]]:
    """DFS over the (point, held-set) states of one template.

    Returns the held sets at each global-write edge, one per state that
    reaches it, and the lock-discipline problems as (edge, 're-entrant lock'
    | 'unlock of un-held mutex').  Like the analysis and the oracle, the
    walk does not follow such a step: re-locking deadlocks and unlocking a
    free mutex is an error."""
    problems: list[tuple[Edge, str]] = []
    write_held: dict[Edge, list[frozenset[str]]] = {}
    stack = [(cfg.start, frozenset())]
    seen = set()
    while stack:
        u, held = stack.pop()
        if (u, held) in seen:
            continue
        seen.add((u, held))
        for e in cfg.out_edges(u):
            nxt = held
            match e.action:
                case Lock(m):
                    if m in held:
                        problems.append((e, "re-entrant lock"))
                        continue
                    nxt = held | {m}
                case Unlock(m):
                    if m not in held:
                        problems.append((e, "unlock of un-held mutex"))
                        continue
                    nxt = held - {m}
                case WriteGlobal(_, _):
                    write_held.setdefault(e, []).append(held)
                case _:
                    pass
            stack.append((e.dst, nxt))
    return write_held, problems


def validate(program: Program) -> list[Diagnostic]:
    """The diagnostics of ``program`` lowered by ``build_cfg``.  A program is
    checked once, and later calls return a copy of the first list."""
    diags = program.derived.get("diagnostics")
    if diags is None:
        diags = program.derived["diagnostics"] = _diagnostics(program, build_cfg(program))
    return list(diags)


def _diagnostics(program: Program, cfgs: dict[str, Cfg]) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    fn = program.filename

    if program.protections is not None:
        for g in program.globals:
            if g not in program.protections:
                diags.append(Diagnostic(1, 1, "warning", f"declared protections do not cover global '{g}'", fn))

    unprotected_writes: set[str] = set()
    for name in program.threads:
        cfg = cfgs[name]
        write_held, problems = held_locksets(cfg)
        for e, what in sorted(problems, key=lambda t: (t[0].src, t[0].action.mutex, t[1])):
            diags.append(Diagnostic(e.pos.line, e.pos.col, "warning",
                                    f"{what} '{e.action.mutex}' at {e.src}", fn))
        for e in cfg.edges:  # in edge order, for a stable diagnostic order
            if e not in write_held:
                continue
            g = e.action.glob
            declared = (program.protections or {}).get(g)
            for held in write_held[e]:
                if declared is None:
                    if all(program.is_atomicity_mutex(m) for m in held):
                        unprotected_writes.add(g)
                elif missing := sorted(declared - held):
                    diags.append(Diagnostic(
                        e.pos.line, e.pos.col, "error",
                        f"write to '{g}' at {e.src} without declared protecting "
                        f"mutex(es) {', '.join(missing)}", fn))

    for g in sorted(unprotected_writes):
        diags.append(Diagnostic(1, 1, "warning", f"no protecting mutex for {g}", fn))
    return list(dict.fromkeys(diags))  # a step reached with several held sets reports once
