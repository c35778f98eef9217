"""Satisfiable conjunctions of equalities x=y and x=c, ordered by implication.

Canonical form: ``rep[i]`` is the least variable equal to i (i itself when no
other variable is), and ``consts`` maps a representative to the constant of
its class.  Classes with equal constants are merged, so i = j holds iff
``rep[i] == rep[j]``.  False is the least element; the empty conjunction
(every variable its own representative, no constant) is Top.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

import numpy as np

from .values import BOT, IntAbs


# ``str`` refuses integers of more decimal digits than this (0: no limit).
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _printable(c: int) -> bool:
    """Whether ``str(c)`` works; larger constants are forgotten, so that
    every relation can be rendered.  A b-bit integer has at most
    b·log10(2) + 1 decimal digits."""
    return not _MAX_DIGITS or abs(c).bit_length() * 0.302 <= _MAX_DIGITS - 1


class EqRel:
    """Immutable; ``consts`` is keyed by representatives only."""

    __slots__ = ("rep", "consts", "bot")

    def __init__(self, rep: tuple[int, ...], consts: dict[int, int] | None = None,
                 bot: bool = False):
        self.rep = rep
        self.consts = consts or {}
        self.bot = bot

    @property
    def is_bot(self) -> bool:
        return self.bot


def _canon(n: int, pairs: Iterable[tuple[int, int]],
           consts: Iterable[tuple[int, int]]) -> EqRel:
    """Union-find over the equalities ``pairs`` and the (variable, constant)
    pairs ``consts``; ⊥ when a class gets two constants."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)  # a root stays the least of its class

    for i, j in pairs:
        union(i, j)
    cls_const: dict[int, int] = {}
    for i, c in consts:
        if cls_const.setdefault(find(i), c) != c:
            return EqRel(tuple(range(n)), bot=True)
    by_const: dict[int, int] = {}  # classes sharing a constant are logically equal
    for r, c in cls_const.items():
        union(by_const.setdefault(c, r), r)
    return EqRel(tuple(find(i) for i in range(n)), {find(r): c for c, r in by_const.items()})


class EqBackend:
    def __init__(self, n: int):
        self.n = n
        self._top = EqRel(tuple(range(n)))
        self._bot = EqRel(tuple(range(n)), bot=True)

    def top(self) -> EqRel:
        return self._top

    def bot(self) -> EqRel:
        return self._bot

    def is_bot(self, r: EqRel) -> bool:
        return r.bot

    def key(self, r: EqRel):
        return None if r.bot else (r.rep, tuple(r.consts.items()))

    # -- views --

    def _const_of(self, r: EqRel, i: int) -> int | None:
        return r.consts.get(r.rep[i])

    def _eval(self, r: EqRel, coeffs: dict[int, int], const: int) -> int | None:
        """Value of ``sum(coeffs) + const``; None unless every variable is a constant."""
        total = const
        for y, cy in coeffs.items():
            c = self._const_of(r, y)
            if c is None:
                return None
            total += cy * c
        return total

    def implies_eq(self, r: EqRel, i: int, j: int) -> bool:
        return r.bot or r.rep[i] == r.rep[j]

    # -- lattice --

    def meet(self, a: EqRel, b: EqRel) -> EqRel:
        if a.bot or b.bot:
            return self._bot
        return _canon(self.n, [*enumerate(a.rep), *enumerate(b.rep)],
                      [*a.consts.items(), *b.consts.items()])

    def join(self, a: EqRel, b: EqRel) -> EqRel:
        """Variables stay equal where they share a class in both a and b, and
        keep the constants a and b agree on.  Canonical as built: a class
        keeps a constant c only if it is a's class of c and b's class of c."""
        if a.bot:
            return b
        if b.bot:
            return a
        first: dict[tuple[int, int], int] = {}
        rep = tuple(first.setdefault(key, i) for i, key in enumerate(zip(a.rep, b.rep)))
        consts = {i: c for (ra, rb), i in first.items()
                  if (c := a.consts.get(ra)) is not None and c == b.consts.get(rb)}
        return EqRel(rep, consts)

    def widen(self, a: EqRel, b: EqRel) -> EqRel:
        return self.join(a, b)  # finite height

    def leq(self, a: EqRel, b: EqRel) -> bool:
        """a ⊑ b iff a implies every constraint of b."""
        if a.bot:
            return True
        if b.bot:
            return False
        return (all(a.rep[i] == a.rep[r] for i, r in enumerate(b.rep) if i != r)
                and all(self._const_of(a, r) == c for r, c in b.consts.items()))

    # -- transfer functions --

    def restrict(self, r: EqRel, keep: set[int]) -> EqRel:
        """Each kept variable's representative becomes the least kept member
        of its class; the others are left alone and unconstrained."""
        if r.bot:
            return r
        least: dict[int, int] = {}
        rep = tuple(least.setdefault(r.rep[i], i) if i in keep else i for i in range(self.n))
        return EqRel(rep, {least[x]: c for x, c in r.consts.items() if x in least})

    def forget(self, r: EqRel, xs: list[int]) -> EqRel:
        return self.restrict(r, set(range(self.n)) - set(xs))

    def set_interval(self, r: EqRel, x: int, lo: float, hi: float) -> EqRel:
        if lo > hi:
            return self._bot
        f = self.forget(r, [x])
        if f.bot or lo != hi or not _printable(int(lo)):
            return f
        return _canon(self.n, enumerate(f.rep), [*f.consts.items(), (x, int(lo))])

    def assign_linear(self, r: EqRel, x: int, coeffs: dict[int, int], const: int) -> EqRel:
        if r.bot:
            return r
        if coeffs == {x: 1} and const == 0:
            return r
        if not coeffs:
            return self.set_interval(r, x, const, const)
        if len(coeffs) == 1 and const == 0:
            (y, cy) = next(iter(coeffs.items()))
            if cy == 1 and y != x:
                return self.guard_eq(self.forget(r, [x]), {x: 1, y: -1}, 0)
        # known-constant right-hand side still yields a constant
        val = self._eval(r, coeffs, const)
        if val is None:
            return self.forget(r, [x])
        return self.set_interval(r, x, val, val)

    def guard_leq0(self, r: EqRel, coeffs: dict[int, int], const: int) -> EqRel:
        """Refine by sum+const ≤ 0; exact only when enough is known."""
        if r.bot:
            return r
        total = self._eval(r, coeffs, const)
        return self._bot if total is not None and total > 0 else r

    def guard_eq(self, r: EqRel, coeffs: dict[int, int], const: int) -> EqRel:
        """Refine by sum(coeffs) + const == 0."""
        if r.bot:
            return r
        items = sorted(coeffs.items())
        if len(items) == 1:
            (y, cy) = items[0]
            if cy in (1, -1) and _printable(const):
                return self.meet(r, _canon(self.n, (), [(y, -const * cy)]))
        if len(items) == 2 and const == 0:
            (y, cy), (z, cz) = items
            if {cy, cz} == {1, -1}:
                return self.meet(r, _canon(self.n, [(y, z)], ()))
        total = self._eval(r, coeffs, const)
        return self._bot if total is not None and total != 0 else r

    def guard_neq(self, r: EqRel, coeffs: dict[int, int], const: int) -> EqRel:
        """Refine by sum(coeffs) + const != 0 (⊥ when equality is implied)."""
        if r.bot:
            return r
        items = sorted(coeffs.items())
        if len(items) == 2 and const == 0:
            (y, cy), (z, cz) = items
            if {cy, cz} == {1, -1} and self.implies_eq(r, y, z):
                return self._bot
        return self._bot if self._eval(r, coeffs, const) == 0 else r

    # -- queries --

    def unlift1(self, r: EqRel, x: int):
        if r.bot:
            return BOT
        c = self._const_of(r, x)
        return IntAbs.top() if c is None else IntAbs.const(c)

    def support(self, r: EqRel) -> set[int]:
        shared = {x for i, x in enumerate(r.rep) if x != i}
        return {i for i, x in enumerate(r.rep) if x in shared or x in r.consts}

    def contains(self, r: EqRel, vals: np.ndarray) -> np.ndarray:
        """Which rows of ``vals`` satisfy every equality of r: one column
        comparison against the representatives and one against the constants."""
        if r.bot:
            return np.zeros(len(vals), dtype=bool)
        ok = (vals == vals[:, list(r.rep)]).all(axis=1)
        if r.consts:
            ok &= (vals[:, list(r.consts)] == list(r.consts.values())).all(axis=1)
        return ok

    def render(self, r: EqRel, names: list[str]) -> list[str]:
        if r.bot:
            return ["⊥"]
        out = [f"{names[x]}={names[i]}" for i, x in enumerate(r.rep) if x != i]
        out += [f"{names[x]}={c}" for x, c in r.consts.items()]
        return sorted(out) or ["⊤"]
