"""Satisfiable conjunctions of equalities x=y and x=c, ordered by implication.

Canonical form: a partition of the variable indices (union-find collapsed to
frozensets, classes with equal constants merged) plus one optional constant
per class.  False is the least element; the empty conjunction is Top.
"""

from __future__ import annotations

import numpy as np

from .values import BOT, IntAbs


class EqRel:
    """Immutable; ``classes`` only lists classes of size ≥ 2 or with a constant."""

    __slots__ = ("n", "classes", "consts", "bot")

    def __init__(self, n: int, classes: frozenset[frozenset[int]] = frozenset(),
                 consts: tuple[tuple[frozenset[int], int], ...] = (), bot: bool = False):
        self.n = n
        self.classes = classes
        self.consts = dict(consts)
        self.bot = bot

    @property
    def is_bot(self) -> bool:
        return self.bot


def _canon(n: int, pairs: set[tuple[int, int]], consts: dict[int, int]) -> EqRel:
    """Union-find canonicalization; returns ⊥ on constant contradiction."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for i, j in pairs:
        union(i, j)
    cls_const: dict[int, int] = {}
    for i, c in consts.items():
        r = find(i)
        if r in cls_const and cls_const[r] != c:
            return EqRel(n, bot=True)
        cls_const[r] = c
    # classes sharing a constant are logically equal
    by_const: dict[int, int] = {}
    for r, c in sorted(cls_const.items()):
        if c in by_const:
            union(by_const[c], r)
        else:
            by_const[c] = r
    members: dict[int, set[int]] = {}
    for i in range(n):
        members.setdefault(find(i), set()).add(i)
    out_classes = set()
    out_consts = []
    for r, mem in members.items():
        const = next((cls_const[x] for x in mem if x in cls_const), None)
        if len(mem) >= 2 or const is not None:
            fs = frozenset(mem)
            if len(mem) >= 2:
                out_classes.add(fs)
            if const is not None:
                out_consts.append((fs, const))
    return EqRel(n, frozenset(out_classes), tuple(out_consts))


def _class_of(r: EqRel) -> dict[int, frozenset[int]]:
    """The class of each variable that is not alone and unconstrained in r;
    in canonical form, i and j are equal in r iff they share a class."""
    return {i: cls for cls in (*r.classes, *r.consts) for i in cls}


class EqBackend:
    def __init__(self, n: int):
        self.n = n
        self._top = EqRel(n)
        self._bot = EqRel(n, bot=True)

    def top(self) -> EqRel:
        return self._top

    def bot(self) -> EqRel:
        return self._bot

    def is_bot(self, r: EqRel) -> bool:
        return r.bot

    # -- views --

    def _pairs(self, r: EqRel) -> set[tuple[int, int]]:
        out = set()
        for cls in r.classes:
            mem = sorted(cls)
            out.update((mem[0], x) for x in mem[1:])
        return out

    def _const_of(self, r: EqRel, i: int) -> int | None:
        for cls, c in r.consts.items():
            if i in cls:
                return c
        return None

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
        if r.bot:
            return True
        if i == j or any(i in cls and j in cls for cls in r.classes):
            return True
        ci, cj = self._const_of(r, i), self._const_of(r, j)
        return ci is not None and ci == cj

    # -- lattice --

    def meet(self, a: EqRel, b: EqRel) -> EqRel:
        if a.bot or b.bot:
            return self._bot
        consts: dict[int, int] = {}
        for r in (a, b):
            for cls, c in r.consts.items():
                for i in cls:
                    if i in consts and consts[i] != c:
                        return self._bot
                    consts[i] = c
        return _canon(self.n, self._pairs(a) | self._pairs(b), consts)

    def join(self, a: EqRel, b: EqRel) -> EqRel:
        """Variables stay equal where they share a class in both a and b, and
        keep the constants a and b agree on."""
        if a.bot:
            return b
        if b.bot:
            return a
        ka, kb = _class_of(a), _class_of(b)
        first: dict[tuple, int] = {}
        pairs = set()
        for i in range(self.n):
            j = first.setdefault((ka.get(i, i), kb.get(i, i)), i)
            if j != i:
                pairs.add((j, i))
        b_consts = {i: c for cls, c in b.consts.items() for i in cls}
        consts = {i: c for cls, c in a.consts.items() for i in cls if b_consts.get(i) == c}
        return _canon(self.n, pairs, consts)

    def widen(self, a: EqRel, b: EqRel) -> EqRel:
        return self.join(a, b)  # finite height

    def leq(self, a: EqRel, b: EqRel) -> bool:
        """a ⊑ b iff a implies every constraint of b."""
        if a.bot:
            return True
        if b.bot:
            return False
        for cls in b.classes:
            mem = sorted(cls)
            if not all(self.implies_eq(a, mem[0], x) for x in mem[1:]):
                return False
        for cls, c in b.consts.items():
            if not all(self._const_of(a, i) == c for i in cls):
                return False
        return True

    # -- transfer functions --

    def restrict(self, r: EqRel, keep: set[int]) -> EqRel:
        if r.bot:
            return r
        pairs = {(i, j) for (i, j) in self._pairs(r) if i in keep and j in keep}
        # transitivity within keep: classes restricted to keep stay classes
        for cls in r.classes:
            mem = sorted(cls & keep)
            pairs.update((mem[0], x) for x in mem[1:])
        consts = {i: c for cls, c in r.consts.items() for i in cls if i in keep}
        return _canon(self.n, pairs, consts)

    def forget(self, r: EqRel, xs: list[int]) -> EqRel:
        return self.restrict(r, set(range(self.n)) - set(xs))

    def set_interval(self, r: EqRel, x: int, lo: float, hi: float) -> EqRel:
        if lo > hi:
            return self._bot
        f = self.forget(r, [x])
        if f.bot or lo != hi:
            return f
        consts = {i: c for cls, c in f.consts.items() for i in cls}
        consts[x] = int(lo)
        return _canon(self.n, self._pairs(f), consts)

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
            if cy in (1, -1):
                return self.meet(r, _canon(self.n, set(), {y: -const * cy}))
        if len(items) == 2 and const == 0:
            (y, cy), (z, cz) = items
            if {cy, cz} == {1, -1}:
                return self.meet(r, _canon(self.n, {(y, z)}, {}))
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
        return {i for cls in (*r.classes, *r.consts) for i in cls}

    def contains(self, r: EqRel, vals: np.ndarray) -> np.ndarray:
        """Which rows of ``vals`` satisfy every equality of r: one column
        comparison for all classes and one for all constants."""
        if r.bot:
            return np.zeros(len(vals), dtype=bool)
        ok = np.ones(len(vals), dtype=bool)
        members = [i for cls in r.classes for i in cls]
        if members:
            firsts = [min(cls) for cls in r.classes for _ in cls]
            ok &= (vals[:, members] == vals[:, firsts]).all(axis=1)
        if r.consts:
            fixed = [i for cls in r.consts for i in cls]
            ok &= (vals[:, fixed] == [c for cls, c in r.consts.items() for _ in cls]).all(axis=1)
        return ok

    def render(self, r: EqRel, names: list[str]) -> list[str]:
        if r.bot:
            return ["⊥"]
        out = []
        for cls in r.classes:
            mem = sorted(cls)
            out.extend(f"{names[mem[0]]}={names[x]}" for x in mem[1:])
        for cls, c in r.consts.items():
            out.append(f"{names[min(cls)]}={c}")
        return sorted(out) or ["⊤"]
