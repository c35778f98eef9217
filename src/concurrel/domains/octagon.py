"""Octagon relations as difference-bound matrices packed to their own variables.

Encoding (Miné): an ``OctRel`` carries ``vars``, a sorted tuple of universe
indices, and a 2k×2k matrix over them; pack variable k (universe variable
``vars[k]``) owns matrix indices 2k (+x) and 2k+1 (−x), and entry m[i][j] is
an upper bound on v_j − v_i.  A variable outside ``vars`` is unconstrained,
so ⊤ is ``vars=()`` with a 0×0 matrix.  Matrices are kept *coherent*
(m[i][j] == m[j^1][i^1]); the canonical form is the tight closure for integer
octagons.  Every ``OctRel`` is satisfiable: an operation whose result is
empty returns None, and ⊥ itself belongs to ``RelDomain``.

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
transfers (``join``, ``forget``, the shift of ``assign_linear``) keep a
closed matrix closed.  The one unclosed matrix is the ``widened`` slot of a
widening's result, the matrix the widening computed when it is not closed
already; the next ``widen`` reads it as its left operand, so that ascending
chains terminate (Miné, HOSC 2006), and no other operation does.  ``join``,
``meet`` and ``widen`` return their left operand itself, and ``meet`` its
right one, when the other operand adds nothing, so callers can skip values
that are the same object.

The matrix work of each operation is done by the kernel, whose eight entry
points are listed in the header of ``_closure.c``: ``leq``, ``join``,
``meet`` and ``widen`` on two matrices of one size, ``bound`` (a gathered
copy plus the entries of new bounds; with no entries it embeds a pack into
other variables or projects it onto some), ``shift`` (``x := ±x + c``),
``contains`` (which rows of an array of values lie in a pack: one call per
batch of the differential check) and the full tight closure
``tight_close_inplace(m)``, which every closure runs.  The kernel hands back fresh writable matrices, or one of its
arguments; ``OctRel.__init__`` makes the matrices a value holds read-only,
and no other code does.  This module keeps the variable bookkeeping: it
turns the variables of two packs into the gather maps that ``bound`` reads,
and ``_over`` aligns the operands of a binary operation with it when their
variables differ.
There are two kernels with one contract: the
hand-written C extension ``_closure.c``, which ``_build.load_compiled``
compiles into the package's ``__pycache__/`` on the first import, and its
numpy twin ``_closure_py`` when that build or load fails or when
``CONCURREL_PURE`` is set.  ``KERNEL`` names the one in use.

Soundness needs float64 arithmetic that never rounds a bound inward; Apron
rounds outward (Jeannet & Miné, CAV 2009), and here every float64 operation
on the matrices is exact.  Finite entries are integers within
±``EXACT_LIMIT`` (2^52), where the sum of two is exact.  A bound above
``BOUND_LIMIT`` (2^40) in magnitude is dropped (set to +∞, which only loses
precision) where a constant enters (``_entries``, and the shift of
``assign_linear``, which takes no larger constant) and by each kernel before
it closes, so that path sums stay within 2^52 for packs of up to 2^11
variables; the shift drops the entries it takes beyond 2^52.  ``contains``
compares int64 values within ±2^52 (in either kernel), or Python ints (in
the numpy kernel alone), against the entries, both exactly.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from . import _closure_py
from ._build import load_compiled
from ._closure_py import BOUND_LIMIT
from .values import INF, IntAbs

_kernel = (None if os.environ.get("CONCURREL_PURE") else load_compiled()) or _closure_py
KERNEL = "python" if _kernel is _closure_py else "compiled"
tight_close_inplace = _kernel.tight_close_inplace


class OctRel:
    """Immutable satisfiable octagon over the universe variables ``vars``;
    it makes the matrices it holds read-only."""

    __slots__ = ("vars", "m", "widened")

    def __init__(self, vars: tuple[int, ...], m: np.ndarray,
                 widened: np.ndarray | None = None):
        m.setflags(write=False)
        if widened is not None:
            widened.setflags(write=False)
        self.vars = vars
        self.m = m  # closed
        self.widened = widened  # the unclosed matrix a widening computed


# -- environments --

def _union(xs, ys) -> tuple[int, ...]:
    return xs if xs == ys else tuple(sorted({*xs, *ys}))


def _shared(xs, ys) -> tuple[int, ...]:
    return xs if xs == ys else tuple(x for x in xs if x in ys)


@lru_cache(maxsize=4096)
def _pos(src: tuple[int, ...], dst: tuple[int, ...], drop: int = -1) -> tuple[int, ...]:
    """The kernel's gather map from a pack over ``src`` to one over ``dst``:
    the pack index in ``src`` of each variable of ``dst``, or −1 for one
    that ``src`` leaves unconstrained (and for ``drop``)."""
    return tuple(src.index(x) if x in src and x != drop else -1 for x in dst)


def _over(m: np.ndarray, src: tuple[int, ...], dst: tuple[int, ...]) -> np.ndarray:
    """The matrix ``m`` of a pack over ``src`` as one over ``dst``: ``m``
    itself when they are the same, else a fresh gathered copy."""
    return m if src == dst else _kernel.bound(m, _pos(src, dst), ())


def _entries(vars: tuple[int, ...], constraints) -> list:
    """The kernel's ``bound`` entries ``i, j, c`` (flat) that record each
    octagonal ``sum(coeffs) ≤ bound`` (see ``_octagonal``) in a pack over
    ``vars``: index 2k is +x_k and 2k+1 is −x_k, and m[i][j] bounds
    v_j − v_i.  A bound beyond ``BOUND_LIMIT`` in magnitude is dropped."""
    out = []
    for coeffs, bound in constraints:
        if len(coeffs) == 2:
            (x, cx), (y, cy) = coeffs.items()
            i, j, c = 2 * vars.index(y) + (cy > 0), 2 * vars.index(x) + (cx < 0), bound
        else:
            ((x, cx),) = coeffs.items()
            k = 2 * vars.index(x)
            i, j, c = k + (cx > 0), k + (cx < 0), 2 * bound
        if -BOUND_LIMIT <= c <= BOUND_LIMIT:
            out += (i, j, c)
    return out


def _octagonal(coeffs: dict[int, int]) -> bool:
    """Is ``sum(coeffs) ≤ c`` an octagonal constraint (±x or ±x ± y)?"""
    return 0 < len(coeffs) <= 2 and all(cf in (1, -1) for cf in coeffs.values())


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
        self._top = OctRel((), np.zeros((0, 0)))

    # -- basics --

    def top(self) -> OctRel:
        return self._top

    def close(self, vars: tuple[int, ...], m: np.ndarray) -> OctRel | None:
        """The value of the fresh raw matrix ``m`` over ``vars``: None when it
        is unsatisfiable, else ``m`` tightly closed in place, without its
        cross-variable bounds when the domain is intervalized."""
        if tight_close_inplace(m) != 0:
            return None
        if self.intervalize:
            m[_cross_variable(len(vars))] = INF
        return OctRel(vars, m)

    def key(self, r: OctRel):
        """``(vars, matrix bytes, widened matrix bytes or None)``."""
        return r.vars, r.m.tobytes(), None if r.widened is None else r.widened.tobytes()

    def leq(self, a: OctRel, b: OctRel) -> bool:
        vars = _union(a.vars, b.vars)
        return _kernel.leq(_over(a.m, a.vars, vars), _over(b.m, b.vars, vars))

    def meet(self, a: OctRel, b: OctRel) -> OctRel | None:
        if not b.vars:  # ⊤
            return a
        if not a.vars:
            return b
        vars = _union(a.vars, b.vars)
        am, bm = _over(a.m, a.vars, vars), _over(b.m, b.vars, vars)
        m = _kernel.meet(am, bm)
        if m is am:
            return a
        if m is bm:
            return b
        return self.close(vars, m)

    def join(self, a: OctRel, b: OctRel) -> OctRel:
        """Entrywise maximum over the shared variables; ``a`` itself when
        ``b`` ⊑ ``a``."""
        if a.vars == b.vars:  # 99% of joins
            m = _kernel.join(a.m, b.m)
            return a if m is a.m else OctRel(a.vars, m)
        if self.leq(b, a):
            return a
        vars = _shared(a.vars, b.vars)
        return OctRel(vars, _kernel.join(_over(a.m, a.vars, vars), _over(b.m, b.vars, vars)))

    def widen(self, a: OctRel, b: OctRel) -> OctRel | None:
        """Keep the bounds of ``a`` that ``b`` keeps, drop the others.  The
        bounds of ``a`` are those of the matrix its own widening computed,
        if any, and the result keeps its own as ``widened`` unless it is
        already closed.

        Returns ``a`` itself when every bound is stable."""
        # a variable of one operand only is unconstrained in the result
        vars = _union(a.vars, b.vars)
        am = _over(a.m if a.widened is None else a.widened, a.vars, vars)
        m = _kernel.widen(am, _over(b.m, b.vars, vars))
        if m is am:
            return a
        keep = _shared(a.vars, b.vars)
        m = _over(m, vars, keep)
        c = self.close(keep, np.array(m))
        if c is None or _kernel.leq(c.m, m) and _kernel.leq(m, c.m):  # closed already
            return c
        return OctRel(keep, c.m, m)

    # -- constraint plumbing --

    def _bounded(self, r: OctRel, constraints: list[tuple[dict[int, int], float]],
                 drop: int = -1) -> OctRel | None:
        """``r`` with the variable ``drop`` forgotten, plus each octagonal
        ``sum(coeffs) ≤ bound``, over the universe variables of the first."""
        vars = _union(r.vars, constraints[0][0])
        return self.close(vars, _kernel.bound(r.m, _pos(r.vars, vars, drop),
                                              _entries(vars, constraints)))

    def bounds(self, r: OctRel, x: int) -> tuple[float, float]:
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
        return OctRel(vars, _kernel.bound(r.m, _pos(r.vars, vars), ()))

    def forget(self, r: OctRel, xs: list[int]) -> OctRel:
        return self._pack(r, tuple(x for x in r.vars if x not in xs))

    def restrict(self, r: OctRel, keep: set[int]) -> OctRel:
        return self._pack(r, tuple(filter(keep.__contains__, r.vars)))

    def set_interval(self, r: OctRel, x: int, lo: float, hi: float) -> OctRel:
        """Assign the abstract value [lo, hi] (lo ≤ hi) to x (forget, then
        bound)."""
        if lo == -INF and hi == INF:
            return self.forget(r, [x])
        return self._bounded(r, [({x: 1}, hi), ({x: -1}, -lo)], drop=x)

    def assign_linear(self, r: OctRel, x: int, coeffs: dict[int, int], const: int) -> OctRel:
        if not coeffs:
            return self.set_interval(r, x, const, const)
        if len(coeffs) == 1:
            ((y, cy),) = coeffs.items()
            if y == x and cy in (1, -1) and -BOUND_LIMIT <= const <= BOUND_LIMIT:
                # x := ±x + const; sound, though the result may no longer be tight
                if x not in r.vars:
                    return r
                return OctRel(r.vars, _kernel.shift(r.m, r.vars.index(x), const, cy < 0))
            if y != x and cy in (1, -1):  # x := ±y + const, i.e. x ∓ y − const == 0
                return self._bounded(r, [({x: 1, y: -cy}, const), ({x: -1, y: cy}, -const)],
                                     drop=x)
        lo, hi = self._eval_linear(r, coeffs, const)
        return self.set_interval(r, x, lo, hi)

    def guard_leq0(self, r: OctRel, coeffs: dict[int, int], const: int) -> OctRel | None:
        """Refine by ``sum(coeffs·v) + const ≤ 0``; sound fallback otherwise."""
        work = {x: cf for x, cf in coeffs.items() if cf != 0}
        if _octagonal(work):
            return self._bounded(r, [(work, -const)])
        lo, _hi = self._eval_linear(r, work, const)
        return None if lo > 0 else r

    def guard_eq(self, r: OctRel, coeffs: dict[int, int], const: int) -> OctRel | None:
        """Refine by ``sum + const == 0``: both bounds on one copy, then one
        closure."""
        work = {x: cf for x, cf in coeffs.items() if cf != 0}
        if _octagonal(work):
            return self._bounded(r, [(work, -const), ({x: -cf for x, cf in work.items()}, const)])
        lo, hi = self._eval_linear(r, work, const)
        return None if lo > 0 or hi < 0 else r

    def guard_neq(self, r: OctRel, coeffs: dict[int, int], const: int) -> OctRel | None:
        """Refine by ``sum + const != 0``: the join of ``< 0`` and ``> 0``."""
        lo = self.guard_leq0(r, coeffs, const + 1)
        hi = self.guard_leq0(r, {x: -cf for x, cf in coeffs.items()}, -const + 1)
        if lo is None:
            return hi
        if hi is None:
            return lo
        return self.join(lo, hi)

    def support(self, r: OctRel) -> tuple[int, ...]:
        return r.vars

    def contains(self, r: OctRel, vals: np.ndarray) -> np.ndarray:
        """Which rows of ``vals`` lie in γ(r): one kernel call.  Rows of
        Python ints (an object array, for values beyond ±``EXACT_LIMIT``)
        go to the numpy kernel, which compares them exactly."""
        kernel = _closure_py if vals.dtype == object else _kernel
        return kernel.contains(r.m, vals, r.vars)

    # -- rendering --

    def render(self, r: OctRel, names: list[str]) -> list[str]:
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

    def unlift1(self, r: OctRel, x: int) -> IntAbs:
        lo, hi = self.bounds(r, x)
        if lo == -INF and hi == INF:
            return IntAbs.top()
        return IntAbs(lo, hi)

