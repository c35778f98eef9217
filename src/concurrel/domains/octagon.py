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

Every ``OctRel`` holds its closed matrix from the moment it is built:
``close`` is the one path from a fresh raw matrix to a value, and the other
transfers (``join``, ``forget``, the shift of ``assign_linear``) keep a closed
matrix closed.  The one unclosed matrix is the ``widened`` slot of a
widening's result, the matrix the widening computed when it is not closed
already; the next ``widen`` reads it as its left operand, so that ascending chains terminate (Miné,
HOSC 2006), and no other operation does.  ``join``, ``meet`` and ``widen``
return their left operand itself, and ``meet`` its right one, when the
other operand adds nothing, so callers can skip values that are the same
object.

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

    __slots__ = ("vars", "m", "widened")

    def __init__(self, vars: tuple[int, ...], m: np.ndarray | None,
                 widened: np.ndarray | None = None):
        self.vars = vars
        self.m = m  # closed
        self.widened = widened  # the unclosed matrix a widening computed
        for a in (m, widened):
            if a is not None:
                a.setflags(write=False)

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


def _embed(r: OctRel, vars: tuple[int, ...], rm: np.ndarray | None = None) -> np.ndarray:
    """A fresh matrix of ``r`` (of ``rm`` over ``r.vars``, when given) over
    ``vars`` ⊇ ``r.vars``."""
    rm = r.m if rm is None else rm
    if r.vars == vars:
        return np.array(rm)
    m = np.array(_top_matrix(len(vars)))
    idx = _indices(vars, r.vars)
    m[idx[:, None], idx] = rm
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
        self._bot = OctRel((), None)
        self._top = OctRel((), np.zeros((0, 0)))

    # -- basics --

    def top(self) -> OctRel:
        return self._top

    def bot(self) -> OctRel:
        return self._bot

    def close(self, vars: tuple[int, ...], m: np.ndarray) -> OctRel:
        """The value of the fresh raw matrix ``m`` over ``vars``: ⊥, or ``m``
        tightly closed in place, without its cross-variable bounds when the
        domain is intervalized."""
        if tight_close_inplace(m) != 0:
            return self._bot
        if self.intervalize:
            m[_cross_variable(len(vars))] = INF
        return OctRel(vars, m)

    def is_bot(self, r: OctRel) -> bool:
        return r.is_bot

    def key(self, r: OctRel):
        """``(vars, matrix bytes, widened matrix bytes or None)`` of a non-⊥ ``r``."""
        return r.vars, r.m.tobytes(), None if r.widened is None else r.widened.tobytes()

    def leq(self, a: OctRel, b: OctRel) -> bool:
        if a.is_bot:
            return True
        if b.is_bot:
            return False
        if a.vars == b.vars:
            return bool((a.m <= b.m).all())
        vars = _union(a.vars, b.vars)
        return bool((_embed(a, vars) <= _embed(b, vars)).all())

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
        if (m == am).all():
            return a
        if (m == bm).all():
            return b
        return self.close(vars, m)

    def join(self, a: OctRel, b: OctRel) -> OctRel:
        """Entrywise maximum over the shared variables; ``a`` itself when
        ``b`` ⊑ ``a``."""
        if a.is_bot:
            return b
        if b.is_bot:
            return a
        if a.vars == b.vars:
            # 99% of joins; testing ⊑ inline rather than through leq is
            # worth about 3% of scaled-analyze throughput
            if (b.m <= a.m).all():
                return a
            return OctRel(a.vars, np.maximum(a.m, b.m))
        if self.leq(b, a):
            return a
        vars = _shared(a.vars, b.vars)
        return OctRel(vars, np.maximum(self._pack(a, vars).m, self._pack(b, vars).m))

    def widen(self, a: OctRel, b: OctRel) -> OctRel:
        """Keep the bounds of ``a`` that ``b`` keeps, drop the others.  The
        bounds of ``a`` are those of the matrix its own widening computed,
        if any, and the result keeps its own as ``widened`` unless it is
        already closed.

        Returns ``a`` itself when every bound is stable."""
        if a.is_bot:
            return b
        if b.is_bot:
            return a
        # a variable of one operand only is unconstrained in the result
        vars = _union(a.vars, b.vars)
        am = _embed(a, vars, a.widened)
        stable = _embed(b, vars) <= am
        if stable.all():
            return a
        keep = _shared(a.vars, b.vars)
        m = np.where(stable, am, INF)
        if keep != vars:
            m = _project(m, _indices(vars, keep))
        c = self.close(keep, np.array(m))
        if c.is_bot or np.array_equal(c.m, m):
            return c
        return OctRel(keep, c.m, m)

    # -- constraint plumbing --

    def _set(self, m: np.ndarray, i: int, j: int, c: float) -> None:
        if -BOUND_LIMIT <= c <= BOUND_LIMIT:  # a larger bound is dropped
            v = min(m[i, j], c)
            m[i, j] = v
            m[j ^ 1, i ^ 1] = v

    def _add_oct_constraint(self, m, coeffs: dict[int, int], bound: float) -> None:
        """Record sum(coeffs) ≤ bound, an octagonal constraint (see
        ``_octagonal``) over the pack indices of ``m``: index 2k is +x_k and
        2k+1 is −x_k, and ``m[i, j]`` bounds v_j − v_i."""
        (x, cx), *rest = coeffs.items()
        if rest:
            ((y, cy),) = rest
            self._set(m, 2 * y + (cy > 0), 2 * x + (cx < 0), bound)
        else:
            self._set(m, 2 * x + (cx > 0), 2 * x + (cx < 0), 2 * bound)

    def _bounded(self, r: OctRel, constraints: list[tuple[dict[int, int], float]]) -> OctRel:
        """``r`` plus each octagonal ``sum(coeffs) ≤ bound``, over the
        universe variables of the first."""
        vars = _union(r.vars, constraints[0][0])
        m = _embed(r, vars)
        for coeffs, bound in constraints:
            self._add_oct_constraint(m, {vars.index(x): cf for x, cf in coeffs.items()}, bound)
        return self.close(vars, m)

    def bounds(self, r: OctRel, x: int) -> tuple[float, float]:
        if r.is_bot:
            raise ValueError("bounds of ⊥")
        if x not in r.vars:
            return -INF, INF
        k = r.vars.index(x)
        hi = r.m[2 * k + 1, 2 * k] / 2.0
        lo = -r.m[2 * k, 2 * k + 1] / 2.0
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

    def _pack(self, r: OctRel, vars: tuple[int, ...]) -> OctRel:
        """``r`` over its variables ``vars``, the others forgotten."""
        if len(vars) == len(r.vars):
            return r
        return OctRel(vars, _project(r.m, _indices(r.vars, vars)))

    def forget(self, r: OctRel, xs: list[int]) -> OctRel:
        if r.is_bot:
            return r
        return self._pack(r, tuple(x for x in r.vars if x not in xs))

    def restrict(self, r: OctRel, keep: set[int]) -> OctRel:
        if r.is_bot:
            return r
        return self._pack(r, tuple(x for x in r.vars if x in keep))

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
        return self.close(vars, m)

    def assign_linear(self, r: OctRel, x: int, coeffs: dict[int, int], const: int) -> OctRel:
        if r.is_bot:
            return r
        if coeffs == {x: 1} and -BOUND_LIMIT <= const <= BOUND_LIMIT:  # x := x + const
            if x not in r.vars:
                return r
            k = r.vars.index(x)
            m = np.array(r.m)
            m[:, 2 * k] += const
            m[2 * k, :] -= const
            m[:, 2 * k + 1] -= const
            m[2 * k + 1, :] += const
            m[2 * k, 2 * k] = m[2 * k + 1, 2 * k + 1] = 0.0
            _drop(m, EXACT_LIMIT)  # sound, though the result may no longer be tight
            return OctRel(r.vars, m)
        if not coeffs:
            return self.set_interval(r, x, const, const)
        if len(coeffs) == 1:
            (y, cy) = next(iter(coeffs.items()))
            if y != x and cy in (1, -1):  # x := ±y + const, i.e. x ∓ y − const == 0
                return self.guard_eq(self.forget(r, [x]), {x: 1, y: -cy}, -const)
            if y == x and cy == -1:  # x := −x + const
                if x not in r.vars:
                    return r
                k = r.vars.index(x)
                m = np.array(r.m)
                m[[2 * k, 2 * k + 1], :] = m[[2 * k + 1, 2 * k], :]
                m[:, [2 * k, 2 * k + 1]] = m[:, [2 * k + 1, 2 * k]]
                return self.assign_linear(OctRel(r.vars, m), x, {x: 1}, const)
        lo, hi = self._eval_linear(r, coeffs, const)
        return self.set_interval(r, x, lo, hi)

    def guard_leq0(self, r: OctRel, coeffs: dict[int, int], const: int) -> OctRel:
        """Refine by ``sum(coeffs·v) + const ≤ 0``; sound fallback otherwise."""
        if r.is_bot:
            return r
        work = {x: cf for x, cf in coeffs.items() if cf != 0}
        if _octagonal(work):
            return self._bounded(r, [(work, -const)])
        lo, _hi = self._eval_linear(r, work, const)
        return self._bot if lo > 0 else r

    def guard_eq(self, r: OctRel, coeffs: dict[int, int], const: int) -> OctRel:
        """Refine by ``sum + const == 0``: both bounds on one copy, then one
        closure."""
        if r.is_bot:
            return r
        work = {x: cf for x, cf in coeffs.items() if cf != 0}
        if _octagonal(work):
            return self._bounded(r, [(work, -const), ({x: -cf for x, cf in work.items()}, const)])
        lo, hi = self._eval_linear(r, work, const)
        return self._bot if lo > 0 or hi < 0 else r

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
        if r.is_bot:
            return ["⊥"]
        out = []
        names = [names[x] for x in r.vars]  # by pack index
        box = [self.bounds(r, x) for x in r.vars]
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
                b = r.m[2 * i, 2 * j]  # x_j − x_i ≤ b
                if b < INF and not jhi - ilo <= b:
                    out.append(f"{names[j]}-{names[i]}<={int(b)}")
                b = r.m[2 * j, 2 * i]  # x_i − x_j ≤ b
                if b < INF and not ihi - jlo <= b:
                    out.append(f"{names[i]}-{names[j]}<={int(b)}")
                b = r.m[2 * i + 1, 2 * j]  # x_i + x_j ≤ b
                if b < INF and not ihi + jhi <= b:
                    out.append(f"{names[i]}+{names[j]}<={int(b)}")
                b = r.m[2 * i, 2 * j + 1]  # −x_i − x_j ≤ b
                if b < INF and not -(ilo + jlo) <= b:
                    out.append(f"{names[i]}+{names[j]}>={int(-b)}")
        return sorted(out) or ["⊤"]

    def unlift1(self, r: OctRel, x: int):
        if r.is_bot:
            return BOT
        lo, hi = self.bounds(r, x)
        if lo == -INF and hi == INF:
            return IntAbs.top()
        return IntAbs(lo, hi)

