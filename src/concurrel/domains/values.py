"""Per-type abstract value lattices.

Integers are abstracted by intervals over the extended integers (a constant
is a one-point interval); thread ids by finite sets of abstract thread ids
with an explicit Top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

INF = math.inf


class _Constant:
    """A lattice element outside the value types, compared by identity;
    copies and pickles of it are the module-level instance itself."""

    def __init__(self, name: str, text: str):
        self.name = name
        self.text = text

    def __repr__(self):
        return self.text

    def __reduce__(self):
        return self.name


BOT = _Constant("BOT", "⊥")
TID_TOP = _Constant("TID_TOP", "⊤")


@dataclass(frozen=True)
class IntAbs:
    """Interval [lo, hi]; lo ≤ hi.  Bot is represented by the shared BOT."""

    lo: float
    hi: float

    def __post_init__(self):
        assert self.lo <= self.hi

    @staticmethod
    def top() -> "IntAbs":
        return IntAbs(-INF, INF)

    @staticmethod
    def const(c: int) -> "IntAbs":
        return IntAbs(c, c)

    @property
    def is_top(self) -> bool:
        return self.lo == -INF and self.hi == INF

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    def __repr__(self):
        if self.is_top:
            return "⊤"
        if self.is_const:
            return str(int(self.lo))
        lo = "-∞" if self.lo == -INF else str(int(self.lo))
        hi = "+∞" if self.hi == INF else str(int(self.hi))
        return f"[{lo},{hi}]"


# TidAbs: frozenset of abstract thread ids, or TID_TOP; the empty set is Bot.
TidAbs = Any  # frozenset | TID_TOP


def tid_meet(a, b):
    if a is TID_TOP:
        return b
    if b is TID_TOP:
        return a
    return a & b


def tid_join(a, b):
    if a is TID_TOP or b is TID_TOP:
        return TID_TOP
    return a | b


def tid_leq(a, b) -> bool:
    if b is TID_TOP:
        return True
    if a is TID_TOP:
        return False
    return a <= b


def tid_render(a) -> str:
    if a is TID_TOP:
        return "⊤"
    return "{" + ", ".join(sorted(str(t) for t in a)) + "}"
