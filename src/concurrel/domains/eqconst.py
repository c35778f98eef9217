"""Satisfiable conjunctions of equalities x=y and x=c, ordered by implication,
packed to the variables they constrain.

Canonical form: ``rep`` maps each constrained variable (one that shares its
class with another variable, or whose class has a constant) to the least
member of its class, and ``consts`` maps a class's least member to the
constant of the class; both dicts are in increasing key order.  Classes with
equal constants are merged, so i = j holds iff i == j or both are
constrained with ``rep[i] == rep[j]``.  A variable outside ``rep`` is
unconstrained.  So equal values have equal ``rep`` and ``consts``, item for
item, and ``key`` identifies a value.  The empty conjunction (``rep`` and
``consts`` empty) is ⊤.  Every ``EqRel`` is satisfiable: an operation whose
result is unsatisfiable returns None, and ⊥ itself belongs to ``RelDomain``.

Each operation reads and builds only the constrained variables of its
operands: its cost grows with their support, not with the universe.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

import numpy as np

from .values import IntAbs


# ``str`` refuses integers of more decimal digits than this (0: no limit).
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _printable(c: int) -> bool:
    """Whether ``str(c)`` works; larger constants are forgotten, so that
    every relation can be rendered.  A b-bit integer has at most
    b·log10(2) + 1 decimal digits."""
    return not _MAX_DIGITS or abs(c).bit_length() * 0.302 <= _MAX_DIGITS - 1


class EqRel:
    """Immutable; ``rep`` and ``consts`` as in the module docstring."""

    __slots__ = ("rep", "consts")

    def __init__(self, rep: dict[int, int], consts: dict[int, int]):
        self.rep = rep
        self.consts = consts


_TOP = EqRel({}, {})


def _pack(root: dict[int, int], consts: dict[int, int]) -> EqRel:
    """The value whose classes map each variable of ``root`` (in increasing
    order, least members included) to its class's least member, with
    ``consts`` on least members; classes of one variable and no constant
    are left out."""
    shared = {r for x, r in root.items() if x != r}
    rep = {x: r for x, r in root.items() if r in shared or r in consts}
    if not rep:
        return _TOP
    return EqRel(rep, consts if len(consts) < 2 else dict(sorted(consts.items())))


def _canon(pairs: Iterable[tuple[int, int]], consts: Iterable[tuple[int, int]]) -> EqRel | None:
    """Union-find over the equalities ``pairs`` and the (variable, constant)
    pairs ``consts``; None when a class gets two constants."""
    parent: dict[int, int] = {}

    def find(i):
        p = parent.setdefault(i, i)
        while p != i:
            parent[i] = i = parent[p]
            p = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)  # a root stays the least of its class

    for i, j in pairs:
        union(i, j)
    cls_const: dict[int, int] = {}
    for i, c in consts:
        if cls_const.setdefault(find(i), c) != c:
            return None
    by_const: dict[int, int] = {}  # classes sharing a constant are logically equal
    for r, c in cls_const.items():
        union(by_const.setdefault(c, r), r)
    root = {i: find(i) for i in sorted(parent)}
    return _pack(root, {root[r]: c for c, r in by_const.items()})


class EqBackend:
    def __init__(self, n: int):
        self.n = n

    def top(self) -> EqRel:
        return _TOP

    def key(self, r: EqRel):
        """The items of ``rep`` and ``consts``."""
        return tuple(r.rep.items()), tuple(r.consts.items())

    # -- views --

    def _const_of(self, r: EqRel, i: int) -> int | None:
        return r.consts.get(r.rep.get(i, i))

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
        return i == j or r.rep.get(i, i) == r.rep.get(j, j)

    # -- lattice --

    def meet(self, a: EqRel, b: EqRel) -> EqRel | None:
        if not b.rep:
            return a
        if not a.rep:
            return b
        return _canon([*a.rep.items(), *b.rep.items()], [*a.consts.items(), *b.consts.items()])

    def join(self, a: EqRel, b: EqRel) -> EqRel:
        """Variables stay equal where they share a class in both a and b, and
        keep the constants a and b agree on.  Canonical as built: a class
        keeps a constant c only if it is a's class of c and b's class of c.
        A variable unconstrained in a or b is unconstrained in the join."""
        brep = b.rep
        first: dict[tuple[int, int], int] = {}
        root = {x: first.setdefault((ra, rb), x)
                for x, ra in a.rep.items() if (rb := brep.get(x)) is not None}
        consts = {i: c for (ra, rb), i in first.items()
                  if (c := a.consts.get(ra)) is not None and c == b.consts.get(rb)}
        return _pack(root, consts)

    def widen(self, a: EqRel, b: EqRel) -> EqRel:
        return self.join(a, b)  # finite height

    def leq(self, a: EqRel, b: EqRel) -> bool:
        """a ⊑ b iff a implies every constraint of b."""
        arep = a.rep
        return (all(x == r or arep.get(x, x) == arep.get(r, r) for x, r in b.rep.items())
                and all(a.consts.get(arep.get(r, r)) == c for r, c in b.consts.items()))

    # -- transfer functions --

    def restrict(self, r: EqRel, keep: set[int]) -> EqRel:
        """Each kept variable's representative becomes the least kept member
        of its class; the others are left alone and unconstrained."""
        if keep.issuperset(r.rep):
            return r
        least: dict[int, int] = {}
        root = {x: least.setdefault(rx, x) for x, rx in r.rep.items() if x in keep}
        return _pack(root, {least[x]: c for x, c in r.consts.items() if x in least})

    def forget(self, r: EqRel, xs: list[int]) -> EqRel:
        if not any(x in r.rep for x in xs):
            return r
        return self.restrict(r, set(r.rep).difference(xs))

    def set_interval(self, r: EqRel, x: int, lo: float, hi: float) -> EqRel:
        f = self.forget(r, [x])
        if lo != hi or not _printable(int(lo)):
            return f
        return _canon(f.rep.items(), [*f.consts.items(), (x, int(lo))])

    def assign_linear(self, r: EqRel, x: int, coeffs: dict[int, int], const: int) -> EqRel:
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

    def guard_leq0(self, r: EqRel, coeffs: dict[int, int], const: int) -> EqRel | None:
        """Refine by sum+const ≤ 0; exact only when enough is known."""
        total = self._eval(r, coeffs, const)
        return None if total is not None and total > 0 else r

    def guard_eq(self, r: EqRel, coeffs: dict[int, int], const: int) -> EqRel | None:
        """Refine by sum(coeffs) + const == 0."""
        items = sorted(coeffs.items())
        if len(items) == 1:
            (y, cy) = items[0]
            if cy in (1, -1) and _printable(const):
                return self.meet(r, _canon((), [(y, -const * cy)]))
        if len(items) == 2 and const == 0:
            (y, cy), (z, cz) = items
            if {cy, cz} == {1, -1}:
                return self.meet(r, _canon([(y, z)], ()))
        total = self._eval(r, coeffs, const)
        return None if total is not None and total != 0 else r

    def guard_neq(self, r: EqRel, coeffs: dict[int, int], const: int) -> EqRel | None:
        """Refine by sum(coeffs) + const != 0 (None when equality is implied)."""
        items = sorted(coeffs.items())
        if len(items) == 2 and const == 0:
            (y, cy), (z, cz) = items
            if {cy, cz} == {1, -1} and self.implies_eq(r, y, z):
                return None
        return None if self._eval(r, coeffs, const) == 0 else r

    # -- queries --

    def unlift1(self, r: EqRel, x: int) -> IntAbs:
        c = self._const_of(r, x)
        return IntAbs.top() if c is None else IntAbs.const(c)

    def support(self, r: EqRel) -> set[int]:
        return set(r.rep)

    def contains(self, r: EqRel, vals: np.ndarray) -> np.ndarray:
        """Which rows of ``vals`` satisfy every equality of r: one column
        comparison against the representatives and one against the constants."""
        ok = np.ones(len(vals), dtype=bool)
        shared = [(x, rx) for x, rx in r.rep.items() if x != rx]
        if shared:
            xs, roots = zip(*shared)
            ok &= (vals[:, list(xs)] == vals[:, list(roots)]).all(axis=1)
        if r.consts:
            ok &= (vals[:, list(r.consts)] == list(r.consts.values())).all(axis=1)
        return ok

    def render(self, r: EqRel, names: list[str]) -> list[str]:
        out = [f"{names[rx]}={names[x]}" for x, rx in r.rep.items() if x != rx]
        out += [f"{names[x]}={c}" for x, c in r.consts.items()]
        return sorted(out) or ["⊤"]
