"""Protecting-mutex sets 𝓜[g], declared or inferred.

Inference reuses validation's lockset walk (``validate.held_locksets``):
𝓜[g] is the intersection of the mutexes held at every write of g along
every path the walk follows.  Like the analysis, the walk does not go past
a re-lock of a held mutex or an unlock of a free one, so writes behind such
a step do not shrink 𝓜[g].  The implicit atomicity mutex m_g is always
included.  A global nobody writes is vacuously protected by every mutex.
"""

from __future__ import annotations

from ..frontend.ast import Program
from ..frontend.cfg import Cfg
from ..frontend.validate import held_locksets


def infer_protections(program: Program, cfgs: dict[str, Cfg]) -> dict[str, frozenset[str]]:
    all_mutexes = frozenset(program.all_mutexes)
    prot = {g: all_mutexes for g in program.globals}
    for cfg in cfgs.values():
        write_held, _problems = held_locksets(cfg)
        for e, helds in write_held.items():
            prot[e.action.glob] = prot[e.action.glob].intersection(*helds)
    for g in program.globals:
        prot[g] |= {program.protecting_mutex(g)}
    return prot


def declared_protections(program: Program) -> dict[str, frozenset[str]]:
    out = {}
    for g in program.globals:
        base = (program.protections or {}).get(g, frozenset())
        out[g] = frozenset(base) | {program.protecting_mutex(g)}
    return out


def compute_protections(
    program: Program, cfgs: dict[str, Cfg], source: str
) -> dict[str, frozenset[str]]:
    if source == "inferred" or program.protections is None:
        return infer_protections(program, cfgs)
    return declared_protections(program)


def protected_by(protections: dict[str, frozenset[str]], mutex: str) -> frozenset[str]:
    """𝒢[a]: the globals a given mutex protects."""
    return frozenset(g for g, ms in protections.items() if mutex in ms)
