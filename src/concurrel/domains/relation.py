"""The relational domain used by the analyses.

A relation is a product of a numeric component (octagon or eqconst over the
integer-typed variables) and a non-relational map from thread-id-typed
variables to ``TidAbs`` values.  assign_value/unlift_var/restrict act
componentwise; the whole relation is ⊥ as soon as either component is.  ⊥
is the domain's alone: it has no numeric component, every operation returns
early on it, and a numeric backend sees satisfiable values only and returns
None for an empty result.

The operations follow the standard relational-domain contract, with the
lift of a single binding and the unlift read one variable at a time:

    assign_value(r, x, v) = restrict(r, Vars∖{x}) ⊓ lift(⊤⊕{x↦v}),
        so assign_value(⊤, x, v) = lift(⊤⊕{x↦v})
    unlift_var(r, x) = unlift(r) x      (⊥ for ⊥; unlift_tid for thread ids)
    assign_expr, guard, restrict, meet, join, widen, leq

with restriction satisfying  r|Vars = r,  r|∅ = ⊤,  (r|Y1)|Y2 = r|Y1∩Y2,
and  unlift_var(r|Y, x) = ⊤  for x ∉ Y.

A ``RelDomain`` hash-conses its relations: every non-⊥ relation it builds
is interned under the backend ``key`` of its numeric component and the
items of its thread-id map in sorted variable order (``Relation.tkey``),
so values with equal keys are one object.  A thread-id map is kept in that
canonical form (no ⊤ entry, variables in sorted order), and a transfer that
leaves it alone passes the operand's map and ``tkey`` on unchanged.

``join(a, b)`` returns ``a`` itself exactly when b ⊑ a, which the solver
relies on: the numeric join is then a's value, with a's key.  ``join``,
``widen`` and ``meet`` are memoized by the identity of their operands
(``leq`` is not: no analysis step calls it).  A memo key holds both
operands, so their ids are never reused and a hit is exact.  The intern
table and the memo tables live as long as the domain, that is, one
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..frontend.ast import Cmp, Expr, linear_form
from .eqconst import EqBackend
from ._closure_py import EXACT_LIMIT
from .octagon import OctBackend
from .values import (
    BOT, INF, IntAbs, TID_TOP, tid_join, tid_leq, tid_meet, tid_render,
)


@dataclass(frozen=True)
class Universe:
    """Variable universe of a relation.

    ``int_vars`` take part in the numeric component.  ``tid_vars`` (create
    targets, join sources, self) own an entry in the thread-id map; a name may
    appear in both (the toy language passes all locals to created threads, so
    one local can hold an integer in one template and a thread id in another).
    Only ``self`` is exclusively tid-typed.
    """

    int_vars: tuple[str, ...]
    tid_vars: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "index", {v: i for i, v in enumerate(self.int_vars)})

    @property
    def all_vars(self) -> tuple[str, ...]:
        return self.int_vars + tuple(v for v in self.tid_vars if v not in self.index)


_MISS = object()


class Relation:
    """Immutable product value; compare/inspect through its RelDomain."""

    __slots__ = ("num", "tids", "tkey", "bot")

    def __init__(self, num, tids: dict[str, object], tkey: tuple = (), bot: bool = False):
        self.num = num  # None for ⊥
        self.tids = tids  # tid var -> TidAbs, missing entries are ⊤
        self.tkey = tkey  # tuple(tids.items())
        self.bot = bot


@runtime_checkable
class NumericBackend(Protocol):
    """What ``RelDomain`` uses of a numeric component over the variables
    0..n-1, whose immutable values it never inspects.  Every operand is
    satisfiable, and an operation that finds its result unsatisfiable
    (``meet``, the guards) returns None.  ``set_interval`` takes lo ≤ hi.
    ``guard_*`` refine by ``sum(coeffs[i]·x_i) + const ⋈ 0``,
    over-approximating where inexact.  ``support`` lists the variables a
    value may constrain.  ``contains`` is batched: ``vals`` is a 2-D array
    with one row of integer values per store (column i holds x_i), and the
    result is a boolean vector with one entry per row; a 1-row array tests
    one store.  ``key`` is a hashable image of a value: values with equal
    keys behave alike under every operation, and equal values have equal
    keys where the representation is canonical.  Eqconst's is; an octagon's
    key is its representation (its variables and its closed and widened
    matrices), so two octagons of one meaning may differ in key.
    ``join(a, b)`` returns a value with a's key when b ⊑ a, and only then."""

    def top(self): ...
    def key(self, r) -> object: ...
    def leq(self, a, b) -> bool: ...
    def meet(self, a, b): ...
    def join(self, a, b): ...
    def widen(self, a, b): ...
    def restrict(self, r, keep: set[int]): ...
    def set_interval(self, r, x: int, lo: float, hi: float): ...
    def assign_linear(self, r, x: int, coeffs: dict[int, int], const: int): ...
    def guard_leq0(self, r, coeffs: dict[int, int], const: int): ...
    def guard_eq(self, r, coeffs: dict[int, int], const: int): ...
    def guard_neq(self, r, coeffs: dict[int, int], const: int): ...
    def unlift1(self, r, x: int): ...
    def support(self, r) -> Iterable[int]: ...
    def contains(self, r, vals: np.ndarray) -> np.ndarray: ...
    def render(self, r, names: list[str]) -> list[str]: ...


def _unchanged(r: Relation) -> Relation:
    return r


class RelDomain:
    def __init__(self, universe: Universe, numeric: str = "octagon"):
        self.universe = universe
        self.numeric = numeric
        n = len(universe.int_vars)
        self.nb: NumericBackend
        if numeric == "octagon":
            self.nb = OctBackend(n)
        elif numeric == "interval":
            self.nb = OctBackend(n, intervalize=True)
        elif numeric == "eqconst":
            self.nb = EqBackend(n)
        else:
            raise ValueError(f"unknown numeric domain {numeric!r}")
        self._bot = Relation(None, {}, bot=True)
        self._interned: dict[tuple, Relation] = {}
        self._kept: dict[frozenset, frozenset[int]] = {}  # restrict: keep -> int indices
        self._joins: dict[tuple[Relation, Relation], Relation] = {}
        self._widens: dict[tuple[Relation, Relation], Relation] = {}
        self._meets: dict[tuple[Relation, Relation], Relation] = {}
        self.memo_hits = 0
        self._top = self._intern(self.nb.top(), {}, ())

    # -- construction --

    def top(self) -> Relation:
        return self._top

    def bot(self) -> Relation:
        return self._bot

    def _intern(self, num, tids: dict[str, object], tkey: tuple) -> Relation:
        """The interned relation of ``num`` and the canonical thread-id map
        ``tids``, whose items are ``tkey``; ⊥ when ``num`` is None."""
        if num is None:
            return self._bot
        key = (self.nb.key(num), tkey)
        r = self._interned.get(key)
        if r is None:
            r = self._interned[key] = Relation(num, tids, tkey)
        return r

    def _mk(self, num, tids: dict[str, object]) -> Relation:
        """``_intern`` of a thread-id map in any variable order, which may
        hold ⊤ entries (dropped) and empty ones (⊥)."""
        if any(t is not TID_TOP and not t for t in tids.values()):
            return self._bot
        tids = {k: tids[k] for k in sorted(tids) if tids[k] is not TID_TOP}
        return self._intern(num, tids, tuple(tids.items()))

    def is_bot(self, r: Relation) -> bool:
        return r.bot

    @property
    def relations(self) -> int:
        """The number of interned relations."""
        return len(self._interned)

    # -- lattice: join, widen and meet computed once per pair of operands --

    def leq(self, a: Relation, b: Relation) -> bool:
        if a.bot:
            return True
        if b.bot:
            return False
        if not self.nb.leq(a.num, b.num):
            return False
        return all(tid_leq(a.tids.get(v, TID_TOP), t) for v, t in b.tids.items())

    def meet(self, a: Relation, b: Relation) -> Relation:
        out = self._meets.get((a, b), _MISS)
        if out is _MISS:
            out = self._meets[a, b] = self._meet(a, b)
        else:
            self.memo_hits += 1
        return out

    def join(self, a: Relation, b: Relation) -> Relation:
        """An upper bound of a and b; ``a`` itself exactly when b ⊑ a."""
        out = self._joins.get((a, b), _MISS)
        if out is _MISS:
            out = self._joins[a, b] = self._upper(a, b, self.nb.join)
        else:
            self.memo_hits += 1
        return out

    def widen(self, a: Relation, b: Relation) -> Relation:
        out = self._widens.get((a, b), _MISS)
        if out is _MISS:
            out = self._widens[a, b] = self._upper(a, b, self.nb.widen)
        else:
            self.memo_hits += 1
        return out

    def _meet(self, a: Relation, b: Relation) -> Relation:
        if a.bot or b.bot:
            return self._bot
        num = self.nb.meet(a.num, b.num)
        if a.tkey == b.tkey or not b.tids:
            return self._intern(num, a.tids, a.tkey)
        if not a.tids:
            return self._intern(num, b.tids, b.tkey)
        tids = dict(a.tids)
        for v, t in b.tids.items():
            tids[v] = tid_meet(tids.get(v, TID_TOP), t)
        return self._mk(num, tids)

    def _upper(self, a: Relation, b: Relation, num_op) -> Relation:
        """``num_op`` (join or widen) on the numbers, join on the thread ids
        (of two sets, a set: the canonical order and form hold)."""
        if a.bot:
            return b
        if b.bot:
            return a
        if a.tkey == b.tkey:
            return self._intern(num_op(a.num, b.num), a.tids, a.tkey)
        tids = {v: tid_join(t, b.tids[v]) for v, t in a.tids.items() if v in b.tids}
        return self._intern(num_op(a.num, b.num), tids, tuple(tids.items()))

    def join_all(self, rs) -> Relation:
        out = self._bot
        for r in rs:
            out = self.join(out, r)
        return out

    def meet_all(self, rs) -> Relation:
        out = self._top
        for r in rs:
            out = self.meet(out, r)
        return out

    # -- unlift --

    def unlift_var(self, r: Relation, x: str):
        if r.bot:
            return BOT
        if x in self.universe.index:
            return self.nb.unlift1(r.num, self.universe.index[x])
        return r.tids.get(x, TID_TOP)

    def unlift_tid(self, r: Relation, x: str):
        """Thread-id component of a (possibly dually tracked) variable."""
        if r.bot:
            return BOT
        return r.tids.get(x, TID_TOP)

    # -- transfer functions --

    def restrict(self, r: Relation, keep) -> Relation:
        if r.bot:
            return r
        keep = frozenset(keep)
        ids = self._kept.get(keep)
        if ids is None:
            index = self.universe.index
            ids = self._kept[keep] = frozenset(index[v] for v in keep if v in index)
        num = self.nb.restrict(r.num, ids)
        if not r.tids or keep.issuperset(r.tids):
            return self._intern(num, r.tids, r.tkey)
        tids = {v: t for v, t in r.tids.items() if v in keep}
        return self._intern(num, tids, tuple(tids.items()))

    def assign_value(self, r: Relation, x: str, v) -> Relation:
        """Assign an abstract value; the other slot of a dual variable is
        forgotten (the concrete variable holds one kind of value at a time)."""
        if r.bot:
            return r
        if v is BOT:
            return self._bot
        num = r.num
        if isinstance(v, IntAbs):
            return self._mk_without(self.nb.set_interval(num, self.universe.index[x], v.lo, v.hi),
                                    r, x)
        if x in self.universe.index:
            num = self.nb.set_interval(num, self.universe.index[x], -INF, INF)
        if v is TID_TOP:
            return self._mk_without(num, r, x)
        return self._mk(num, {**r.tids, x: v})

    def _mk_without(self, num, r: Relation, x: str) -> Relation:
        """``_intern`` of ``num`` and the thread-id map of ``r`` without ``x``."""
        if x not in r.tids:
            return self._intern(num, r.tids, r.tkey)
        tids = dict(r.tids)
        del tids[x]
        return self._intern(num, tids, tuple(tids.items()))

    def assign_expr(self, r: Relation, x: str, e: Expr) -> Relation:
        """Numeric assignment x := e (e over the numeric slots)."""
        return self.assigner(x, e)(r)

    def assigner(self, x: str, e: Expr) -> Callable[[Relation], Relation]:
        """``assign_expr(·, x, e)`` as a function of the relation, with the
        linear form of ``e`` over variable indices computed once."""
        lf = linear_form(e)
        if lf is None:
            top = IntAbs.top()
            return lambda r: self.assign_value(r, x, top)
        coeffs, const = lf
        index = self.universe.index
        i, idx_coeffs = index[x], {index[v]: c for v, c in coeffs.items()}
        assign_linear = self.nb.assign_linear

        def assign(r: Relation) -> Relation:
            if r.bot:
                return r
            # x no longer holds a thread id
            return self._mk_without(assign_linear(r.num, i, idx_coeffs, const), r, x)

        return assign

    def havoc(self, r: Relation, x: str) -> Relation:
        """Forget both slots of ``x``: every havoc target is a local, and
        every local but the reserved ``self`` is an int variable."""
        return self.assign_value(r, x, IntAbs.top())

    def guard(self, r: Relation, c: Cmp) -> Relation:
        return self.guarder(c)(r)

    def guarder(self, c: Cmp) -> Callable[[Relation], Relation]:
        """``guard(·, c)`` as a function of the relation, with the linear
        form of ``c`` over variable indices computed once."""
        lhs, rhs = linear_form(c.left), linear_form(c.right)
        if lhs is None or rhs is None:
            return _unchanged
        coeffs = dict(lhs[0])
        for v, k in rhs[0].items():
            coeffs[v] = coeffs.get(v, 0) - k
        coeffs = {v: k for v, k in coeffs.items() if k != 0}
        const = lhs[1] - rhs[1]
        idx = {self.universe.index[v]: k for v, k in coeffs.items()}

        # left − right  ⋈  0, with const folded into the left side
        neg = {v: -k for v, k in idx.items()}
        nb = self.nb
        match c.op:
            case "<=":
                refine = nb.guard_leq0
            case "<":
                refine, const = nb.guard_leq0, const + 1
            case ">=":
                refine, idx, const = nb.guard_leq0, neg, -const
            case ">":
                refine, idx, const = nb.guard_leq0, neg, -const + 1
            case "==":
                refine = nb.guard_eq
            case "!=":
                refine = nb.guard_neq
            case _:
                raise ValueError(c.op)

        def guard(r: Relation) -> Relation:
            if r.bot:
                return r
            return self._intern(refine(r.num, idx, const), r.tids, r.tkey)

        return guard

    # -- queries --

    def support(self, r: Relation) -> set[str]:
        """The variables r constrains.  Whether a store lies in γ(r) depends
        on the values of these variables only."""
        if r.bot:
            return set()
        ints = self.universe.int_vars
        return {ints[i] for i in self.nb.support(r.num)} | r.tids.keys()

    def contains(self, r: Relation, store: dict[str, object]) -> bool:
        """Is the concrete store inside γ(r)?  Store values are ints or opaque
        thread ids; variables absent from the store are unconstrained, and a
        variable currently holding a thread id is unconstrained numerically.
        The one-store case of ``contains_many``."""
        return bool(self.contains_many(r, {v: (x,) for v, x in store.items()}, 1)[0])

    def contains_many(self, r: Relation, columns: dict[str, Sequence], count: int) -> np.ndarray:
        """Which of ``count`` stores lie inside γ(r), as a boolean vector.
        Store i maps each variable v of ``columns`` to ``columns[v][i]``;
        each store is read as in ``contains``.

        The stores are grouped by which dual variables hold a thread id in
        them; each group takes one numeric restriction and one backend call.
        The thread-id map is tested once per distinct value of a column."""
        if r.bot or not count:
            return np.zeros(count, dtype=bool)
        ok = self._numeric_contains(r, columns, count)
        for v, t in r.tids.items():
            if t is TID_TOP or v not in columns:
                continue
            col = columns[v]
            good = {x: not isinstance(x, int) and x in t for x in set(col)}
            if not all(good.values()):
                ok &= np.fromiter(map(good.__getitem__, col), bool, count)
        return ok

    def _numeric_contains(self, r: Relation, columns, count: int) -> np.ndarray:
        """The numeric part of ``contains_many``: with int64 values when every
        int lies within ±``EXACT_LIMIT``, where the backends compare them
        exactly, and with Python ints otherwise."""
        index = self.universe.index
        distinct = {index[v]: set(col) for v, col in columns.items() if v in index}
        exact = all(-EXACT_LIMIT <= x <= EXACT_LIMIT
                    for xs in distinct.values() for x in xs if isinstance(x, int))
        vals = np.zeros((count, len(self.universe.int_vars)), dtype=np.int64 if exact else object)
        ints: set[int] = set()  # variables holding an int in every store
        duals: list[tuple[int, np.ndarray]] = []  # (variable, stores where it holds an int)
        for v, col in columns.items():
            i = index.get(v)
            if i is None:
                continue
            kinds = {isinstance(x, int) for x in distinct[i]}
            if kinds == {True}:
                ints.add(i)
                vals[:, i] = col
            elif True in kinds:
                mask = np.fromiter((isinstance(x, int) for x in col), bool, count)
                vals[mask, i] = [x for x in col if isinstance(x, int)]
                duals.append((i, mask))
        if not duals:
            return self.nb.contains(self.nb.restrict(r.num, ints), vals)
        pattern = np.zeros(count, dtype=np.int64)
        for bit, (_, mask) in enumerate(duals):
            pattern[mask] |= 1 << bit
        ok = np.empty(count, dtype=bool)
        for p in np.unique(pattern).tolist():
            keep = ints | {i for bit, (i, _) in enumerate(duals) if p >> bit & 1}
            sel = pattern == p
            ok[sel] = self.nb.contains(self.nb.restrict(r.num, keep), vals[sel])
        return ok

    def render(self, r: Relation) -> str:
        if r.bot:
            return "⊥"
        parts = self.nb.render(r.num, list(self.universe.int_vars))
        if parts == ["⊤"]:
            parts = []
        for v in sorted(r.tids):
            parts.append(f"{v}∈{tid_render(r.tids[v])}")
        return ", ".join(parts) if parts else "⊤"
