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


class _Bot:
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "⊥"


BOT = _Bot()


class _TidTop:
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "⊤"


TID_TOP = _TidTop()


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


def int_join(a, b):
    if a is BOT:
        return b
    if b is BOT:
        return a
    return IntAbs(min(a.lo, b.lo), max(a.hi, b.hi))


def int_leq(a, b) -> bool:
    if a is BOT:
        return True
    if b is BOT:
        return False
    return a.lo >= b.lo and a.hi <= b.hi


def int_widen(a, b):
    if a is BOT:
        return b
    if b is BOT:
        return a
    return IntAbs(a.lo if a.lo <= b.lo else -INF, a.hi if a.hi >= b.hi else INF)


# TidAbs: frozenset of abstract thread ids, or TID_TOP; the empty set is Bot.
TidAbs = Any  # frozenset | _TidTop


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
