"""Octagon relations as difference-bound matrices packed to their own variables.

Encoding (Miné): an ``OctRel`` carries ``vars``, a sorted tuple of universe
indices, and a 2k×2k matrix over them; pack variable k (universe variable
``vars[k]``) owns matrix indices 2k (+x) and 2k+1 (−x), and entry m[i][j] is
an upper bound on v_j − v_i.  A variable outside ``vars`` is unconstrained,
so ⊤ is ``vars=()`` with a 0×0 matrix.  Matrices are kept *coherent*
(m[i][j] == m[j^1][i^1]); the canonical form is the tight closure for integer
octagons.

A pack is the full-universe matrix with the rows and columns of its
unconstrained variables left out: those rows are +∞ off the diagonal, and
closure never changes them, so the closure of a pack is the pack of the
full-universe closure, bit for bit.  ``forget`` and ``restrict`` drop rows
and columns; ``set_interval``, ``assign_linear`` and the guards add the
variables they bound.  Binary operations align environments as Apron does:
``meet`` works over the union of the two, ``join`` and ``widen`` keep the
shared variables (a variable missing from one operand is ⊤ there), and
a ⊑ b needs b unconstrained on the variables outside a's environment.

Restriction, unlift, join, comparison and decomposition are performed on
closed matrices only; widened values are deliberately left unclosed so that
ascending chains terminate.  ``join`` returns its closed left operand, and
``meet`` and ``widen`` their closed or left operand, when the other operand
adds nothing, so callers can skip values that are the same object.

Every closure is the full tight closure, ``tight_close_inplace(m)``.  Both
kernels offer that one function: the hand-written C extension ``_closure.c``,
which ``_build.load_compiled`` compiles into the package's ``__pycache__/``
on the first import, and the numpy kernel ``_closure_py`` when that build or
load fails or when ``CONCURREL_PURE`` is set.  ``KERNEL`` names the one in
use.

Soundness needs float64 arithmetic that never rounds a bound inward; Apron
rounds outward (Jeannet & Miné, CAV 2009), and here every float64 operation
on the matrices is exact.  Finite entries are integers within
±``EXACT_LIMIT`` (2^52), where the sum of two is exact.  A bound above
``BOUND_LIMIT`` (2^40) in magnitude is dropped (set to +∞, which only loses
precision) where a constant enters (``_set``, and the shift in
``assign_linear``) and by each kernel before it closes, so that path sums
stay within 2^52 for packs of up to 2^11 variables.  ``contains`` compares
int64 values within ±2^52, or Python ints, against the entries, both
exactly.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from ._build import load_compiled
from ._closure_py import BOUND_LIMIT
from .values import BOT, INF, IntAbs

_compiled = None if os.environ.get("CONCURREL_PURE") else load_compiled()
if _compiled is None:
    from ._closure_py import tight_close_inplace

    KERNEL = "python"
else:
    tight_close_inplace = _compiled.tight_close_inplace
    KERNEL = "compiled"


# Bound on the bytes of one temporary of ``OctBackend.contains``.
CONTAINS_CHUNK_BYTES = 4 << 20

EXACT_LIMIT = 2.0 ** 52  # finite entries stay within ±EXACT_LIMIT


class OctRel:
    """Immutable octagon over the universe variables ``vars``; None matrix
    means ⊥."""

    __slots__ = ("vars", "m", "closed", "_closed_cache")

    def __init__(self, vars: tuple[int, ...], m: np.ndarray | None, closed: bool = False):
        self.vars = vars
        self.m = m
        self.closed = closed
        self._closed_cache: OctRel | None = None
        if m is not None:
            m.setflags(write=False)

    @property
    def is_bot(self) -> bool:
        return self.m is None


# -- environments --

def _union(xs, ys) -> tuple[int, ...]:
    return xs if xs == ys else tuple(sorted({*xs, *ys}))


def _shared(xs, ys) -> tuple[int, ...]:
    return xs if xs == ys else tuple(x for x in xs if x in ys)


def _indices(vars: tuple[int, ...], sub) -> np.ndarray:
    """Matrix indices, in a pack over ``vars``, of the variables ``sub``."""
    out = []
    for x in sub:
        k = vars.index(x)
        out += (2 * k, 2 * k + 1)
    return np.array(out, dtype=np.intp)


@lru_cache(maxsize=None)
def _top_matrix(k: int) -> np.ndarray:
    """⊤ over k variables: +∞ off the diagonal (read-only, shared)."""
    m = np.full((2 * k, 2 * k), INF)
    np.fill_diagonal(m, 0.0)
    m.setflags(write=False)
    return m


def _embed(r: OctRel, vars: tuple[int, ...]) -> np.ndarray:
    """A fresh matrix of ``r`` over ``vars`` ⊇ ``r.vars``."""
    if r.vars == vars:
        return np.array(r.m)
    m = np.array(_top_matrix(len(vars)))
    idx = _indices(vars, r.vars)
    m[idx[:, None], idx] = r.m
    return m


def _drop(m: np.ndarray, limit: float) -> None:
    """Set the entries of ``m`` above ``limit`` in magnitude to +∞."""
    np.putmask(m, np.abs(m) > limit, INF)


def _project(m: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows and columns ``idx`` of ``m``."""
    return m.take(idx, 0).take(idx, 1)


def _octagonal(coeffs: dict[int, int]) -> bool:
    """Is ``sum(coeffs) ≤ c`` an octagonal constraint (±x or ±x ± y)?"""
    return 0 < len(coeffs) <= 2 and all(cf in (1, -1) for cf in coeffs.values())


@lru_cache(maxsize=1024)
def _signed_columns(vars: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The universe column of each index of a pack over ``vars`` (+x at 2k,
    −x at 2k+1), and the sign it takes there."""
    return np.repeat(vars, 2), np.tile([1, -1], len(vars))


@lru_cache(maxsize=None)
def _cross_variable(k: int) -> np.ndarray:
    """Mask of the entries of a 2k×2k pack that relate two variables."""
    var = np.arange(2 * k) // 2
    return var[:, None] != var[None, :]


class OctBackend:
    """Factory/operations for octagons over the universe variables 0..n-1.

    ``intervalize=True`` degrades the domain to plain intervals by dropping
    every cross-variable bound during canonicalization (the interval
    configuration shares this one DBM engine).
    """

    def __init__(self, n: int, intervalize: bool = False):
        self.n = n
        self.intervalize = intervalize
        self._bot = OctRel((), None, True)
        self._top = OctRel((), np.zeros((0, 0)), True)

    # -- basics --

    def top(self) -> OctRel:
        return self._top

    def bot(self) -> OctRel:
        return self._bot

    def close(self, r: OctRel) -> OctRel:
        if r.is_bot or r.closed:
            return r
        if r._closed_cache is not None:
            return r._closed_cache
        m = np.array(r.m)
        if tight_close_inplace(m) != 0:
            c = self._bot
        else:
            if self.intervalize:
                m[_cross_variable(len(r.vars))] = INF
            c = OctRel(r.vars, m, True)
        r._closed_cache = c
        return c

    def is_bot(self, r: OctRel) -> bool:
        return self.close(r).is_bot

    def key(self, r: OctRel):
        """``(vars, matrix bytes)`` of a closed, non-⊥ octagon; None for the
        others, which are not interned (see ``relation.py``)."""
        if r.closed and r.m is not None:
            return r.vars, r.m.tobytes()
        return None

    def _norm(self, r: OctRel) -> OctRel:
        """Intervalized octagons must drop cross-variable bounds immediately,
        or raw matrices would transiently denote a smaller γ than their
        canonical form."""
        return self.close(r) if self.intervalize else r

    def leq(self, a: OctRel, b: OctRel) -> bool:
        ca = self.close(a)
        if ca.is_bot:
            return True
        if b.is_bot:
            return False
        if ca.vars == b.vars:
            return bool((ca.m <= b.m).all())
        vars = _union(ca.vars, b.vars)
        return bool((_embed(ca, vars) <= _embed(b, vars)).all())

    def meet(self, a: OctRel, b: OctRel) -> OctRel:
        if a.is_bot or b.is_bot:
            return self._bot
        if not b.vars:  # ⊤
            return a
        if not a.vars:
            return b
        vars = _union(a.vars, b.vars)
        am = a.m if a.vars == vars else _embed(a, vars)
        bm = b.m if b.vars == vars else _embed(b, vars)
        m = np.minimum(am, bm)
        base, base_m = (a, am) if a.closed else (b, bm) if b.closed else (None, None)
        if base is not None and (m == base_m).all():
            return base
        return OctRel(vars, m)

    def join(self, a: OctRel, b: OctRel) -> OctRel:
        """Entrywise maximum over the shared variables; the closed ``a``
        itself when ``b`` ⊑ ``a``."""
        ca, cb = self.close(a), self.close(b)
        if ca.is_bot:
            return cb
        if cb.is_bot:
            return ca
        if ca.vars == cb.vars:
            # 99% of joins; testing ⊑ inline rather than through leq is
            # worth about 3% of scaled-analyze throughput
            if (cb.m <= ca.m).all():
                return ca
            return OctRel(ca.vars, np.maximum(ca.m, cb.m), True)
        if self.leq(cb, ca):
            return ca
        vars = _shared(ca.vars, cb.vars)
        return OctRel(vars, np.maximum(self._pack(ca, vars).m, self._pack(cb, vars).m), True)

    def widen(self, a: OctRel, b: OctRel) -> OctRel:
        """Keep stable bounds, drop grown ones; result stays unclosed.

        Returns ``a`` itself when every bound is stable."""
        if a.is_bot:
            return b
        cb = self.close(b)
        if cb.is_bot:
            return a
        # a variable of one operand only is unconstrained in the result
        vars = _union(a.vars, cb.vars)
        am = _embed(a, vars)
        stable = _embed(cb, vars) <= am
        if stable.all():
            return a
        keep = _shared(a.vars, cb.vars)
        m = np.where(stable, am, INF)
        return OctRel(keep, m if keep == vars else _project(m, _indices(vars, keep)))

    # -- constraint plumbing --

    def _set(self, m: np.ndarray, i: int, j: int, c: float) -> None:
        if -BOUND_LIMIT <= c <= BOUND_LIMIT:  # a larger bound is dropped
            v = min(m[i, j], c)
            m[i, j] = v
            m[j ^ 1, i ^ 1] = v

    def _add_oct_constraint(self, m, coeffs: dict[int, int], bound: float) -> None:
        """Record sum(coeffs) ≤ bound, an octagonal constraint (see
        ``_octagonal``) over the pack indices of ``m``."""
        items = sorted(coeffs.items())
        if len(items) == 1:
            (x, cx) = items[0]
            if cx == 1:  # x ≤ bound
                self._set(m, 2 * x + 1, 2 * x, 2 * bound)
            else:  # −x ≤ bound
                self._set(m, 2 * x, 2 * x + 1, 2 * bound)
            return
        (x, cx), (y, cy) = items
        # v_j − v_i ≤ bound with v_j the positive occurrence of x
        if cx == 1 and cy == -1:  # x − y
            self._set(m, 2 * y, 2 * x, bound)
        elif cx == -1 and cy == 1:  # y − x
            self._set(m, 2 * x, 2 * y, bound)
        elif cx == 1 and cy == 1:  # x + y
            self._set(m, 2 * y + 1, 2 * x, bound)
        else:  # −x − y
            self._set(m, 2 * y, 2 * x + 1, bound)

    def _bounded(self, c: OctRel, constraints: list[tuple[dict[int, int], float]]) -> OctRel:
        """The closed ``c`` plus each octagonal ``sum(coeffs) ≤ bound``, over
        the universe variables of the first; unclosed."""
        vars = _union(c.vars, constraints[0][0])
        m = _embed(c, vars)
        for coeffs, bound in constraints:
            self._add_oct_constraint(m, {vars.index(x): cf for x, cf in coeffs.items()}, bound)
        return self._norm(OctRel(vars, m))

    def bounds(self, r: OctRel, x: int) -> tuple[float, float]:
        c = self.close(r)
        if c.is_bot:
            raise ValueError("bounds of ⊥")
        if x not in c.vars:
            return -INF, INF
        k = c.vars.index(x)
        hi = c.m[2 * k + 1, 2 * k] / 2.0
        lo = -c.m[2 * k, 2 * k + 1] / 2.0
        return lo, hi

    def _eval_linear(self, r: OctRel, coeffs: dict[int, int], const: int) -> tuple[float, float]:
        """The bounds of ``sum(coeffs) + const`` from those of each variable:
        the finite parts summed in Python ints, so none rounds or overflows,
        and a side with a missing bound in any term ±∞."""
        lo = hi = const
        lo_open = hi_open = False
        for x, cx in coeffs.items():
            xlo, xhi = self.bounds(r, x)
            if cx < 0:
                xlo, xhi = xhi, xlo
            if abs(xlo) == INF:
                lo_open = True
            else:
                lo += cx * int(xlo)
            if abs(xhi) == INF:
                hi_open = True
            else:
                hi += cx * int(xhi)
        return -INF if lo_open else lo, INF if hi_open else hi

    # -- transfer functions --

    def _pack(self, c: OctRel, vars: tuple[int, ...]) -> OctRel:
        """The closed ``c`` over its variables ``vars``, the others forgotten."""
        if len(vars) == len(c.vars):
            return c
        return OctRel(vars, _project(c.m, _indices(c.vars, vars)), True)

    def forget(self, r: OctRel, xs: list[int]) -> OctRel:
        c = self.close(r)
        if c.is_bot:
            return c
        return self._pack(c, tuple(x for x in c.vars if x not in xs))

    def restrict(self, r: OctRel, keep: set[int]) -> OctRel:
        c = self.close(r)
        if c.is_bot:
            return c
        return self._pack(c, tuple(x for x in c.vars if x in keep))

    def set_interval(self, r: OctRel, x: int, lo: float, hi: float) -> OctRel:
        """Assign the abstract value [lo, hi] to x (forget, then bound)."""
        if lo > hi:
            return self._bot
        f = self.forget(r, [x])
        if f.is_bot or (lo == -INF and hi == INF):
            return f
        vars = _union(f.vars, (x,))
        m = _embed(f, vars)
        k = vars.index(x)
        if hi < INF:
            self._set(m, 2 * k + 1, 2 * k, 2 * hi)
        if lo > -INF:
            self._set(m, 2 * k, 2 * k + 1, -2 * lo)
        return OctRel(vars, m)

    def assign_linear(self, r: OctRel, x: int, coeffs: dict[int, int], const: int) -> OctRel:
        c = self.close(r)
        if c.is_bot:
            return c
        if coeffs == {x: 1} and -BOUND_LIMIT <= const <= BOUND_LIMIT:  # x := x + const
            if x not in c.vars:
                return c
            k = c.vars.index(x)
            m = np.array(c.m)
            m[:, 2 * k] += const
            m[2 * k, :] -= const
            m[:, 2 * k + 1] -= const
            m[2 * k + 1, :] += const
            m[2 * k, 2 * k] = m[2 * k + 1, 2 * k + 1] = 0.0
            _drop(m, EXACT_LIMIT)  # sound, though the result may no longer be tight
            return OctRel(c.vars, m, True)
        if not coeffs:
            return self.set_interval(c, x, const, const)
        if len(coeffs) == 1:
            (y, cy) = next(iter(coeffs.items()))
            if y != x and cy in (1, -1):  # x := ±y + const, i.e. x ∓ y − const == 0
                return self.guard_eq(self.forget(c, [x]), {x: 1, y: -cy}, -const)
            if y == x and cy == -1:  # x := −x + const
                if x not in c.vars:
                    return c
                k = c.vars.index(x)
                m = np.array(c.m)
                m[[2 * k, 2 * k + 1], :] = m[[2 * k + 1, 2 * k], :]
                m[:, [2 * k, 2 * k + 1]] = m[:, [2 * k + 1, 2 * k]]
                return self.assign_linear(OctRel(c.vars, m, True), x, {x: 1}, const)
        lo, hi = self._eval_linear(c, coeffs, const)
        return self.set_interval(c, x, lo, hi)

    def guard_leq0(self, r: OctRel, coeffs: dict[int, int], const: int) -> OctRel:
        """Refine by ``sum(coeffs·v) + const ≤ 0``; sound fallback otherwise."""
        c = self.close(r)
        if c.is_bot:
            return c
        work = {x: cf for x, cf in coeffs.items() if cf != 0}
        if _octagonal(work):
            return self._bounded(c, [(work, -const)])
        lo, _hi = self._eval_linear(c, work, const)
        return self._bot if lo > 0 else c

    def guard_eq(self, r: OctRel, coeffs: dict[int, int], const: int) -> OctRel:
        """Refine by ``sum + const == 0``: both bounds on one copy, then one
        closure."""
        c = self.close(r)
        if c.is_bot:
            return c
        work = {x: cf for x, cf in coeffs.items() if cf != 0}
        if _octagonal(work):
            return self._bounded(c, [(work, -const), ({x: -cf for x, cf in work.items()}, const)])
        lo, hi = self._eval_linear(c, work, const)
        return self._bot if lo > 0 or hi < 0 else c

    def guard_neq(self, r: OctRel, coeffs: dict[int, int], const: int) -> OctRel:
        """Refine by ``sum + const != 0``: the join of ``< 0`` and ``> 0``."""
        lo = self.guard_leq0(r, coeffs, const + 1)
        hi = self.guard_leq0(r, {x: -cf for x, cf in coeffs.items()}, -const + 1)
        if self.is_bot(lo):
            return hi
        if self.is_bot(hi):
            return lo
        return self.join(lo, hi)

    def support(self, r: OctRel) -> tuple[int, ...]:
        return r.vars

    def contains(self, r: OctRel, vals: np.ndarray) -> np.ndarray:
        """Which rows of ``vals`` lie in γ(r): one broadcast of
        w[j] − w[i] ≤ m[i][j] over the rows' ±x vectors, in chunks whose
        temporaries stay under ``CONTAINS_CHUNK_BYTES``."""
        if r.is_bot:
            return np.zeros(len(vals), dtype=bool)
        if not r.vars:
            return np.ones(len(vals), dtype=bool)
        idx, sign = _signed_columns(r.vars)
        w = vals[:, idx] * sign
        step = max(1, CONTAINS_CHUNK_BYTES // (8 * r.m.size))
        out = np.empty(len(vals), dtype=bool)
        for s in range(0, len(vals), step):
            c = w[s:s + step]
            out[s:s + step] = (c[:, None, :] - c[:, :, None] <= r.m).reshape(len(c), -1).all(1)
        return out

    # -- rendering --

    def render(self, r: OctRel, names: list[str]) -> list[str]:
        c = self.close(r)
        if c.is_bot:
            return ["⊥"]
        out = []
        names = [names[x] for x in c.vars]  # by pack index
        box = [self.bounds(c, x) for x in c.vars]
        for k, (lo, hi) in enumerate(box):
            if lo == hi:
                out.append(f"{names[k]}={int(lo)}")
            else:
                if hi < INF:
                    out.append(f"{names[k]}<={int(hi)}")
                if lo > -INF:
                    out.append(f"{names[k]}>={int(lo)}")
        for i in range(len(box)):
            (ilo, ihi) = box[i]
            for j in range(i + 1, len(box)):
                (jlo, jhi) = box[j]
                # bounds not already implied by the unary ones
                b = c.m[2 * i, 2 * j]  # x_j − x_i ≤ b
                if b < INF and not jhi - ilo <= b:
                    out.append(f"{names[j]}-{names[i]}<={int(b)}")
                b = c.m[2 * j, 2 * i]  # x_i − x_j ≤ b
                if b < INF and not ihi - jlo <= b:
                    out.append(f"{names[i]}-{names[j]}<={int(b)}")
                b = c.m[2 * i + 1, 2 * j]  # x_i + x_j ≤ b
                if b < INF and not ihi + jhi <= b:
                    out.append(f"{names[i]}+{names[j]}<={int(b)}")
                b = c.m[2 * i, 2 * j + 1]  # −x_i − x_j ≤ b
                if b < INF and not -(ilo + jlo) <= b:
                    out.append(f"{names[i]}+{names[j]}>={int(-b)}")
        return sorted(out) or ["⊤"]

    def unlift1(self, r: OctRel, x: int):
        c = self.close(r)
        if c.is_bot:
            return BOT
        lo, hi = self.bounds(c, x)
        if lo == -INF and hi == INF:
            return IntAbs.top()
        return IntAbs(lo, hi)

