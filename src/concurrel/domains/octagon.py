"""Octagon relations as difference-bound matrices over ±x variables.

Encoding (Miné): variable k owns matrix indices 2k (+x_k) and 2k+1 (−x_k);
entry m[i][j] is an upper bound on v_j − v_i.  Matrices are kept *coherent*
(m[i][j] == m[j^1][i^1]); the canonical form is the tight closure for integer
octagons.

Restriction, unlift, join, comparison and decomposition are performed on
closed matrices only; widened values are deliberately left unclosed so that
ascending chains terminate.

Closure can be incremental.  An unclosed ``OctRel`` may carry ``dirty``, a
tuple of variables with the invariant: ``m`` equals a closed matrix except
for entries whose row and column both lie in the indices ``2x, 2x+1`` of
these variables.  Transfers that tighten a closed input (``set_interval``,
``assign_linear`` of ``x := ±y + c``, ``guard_leq0``, ``meet`` with a closed
operand) record it, and ``close`` then runs Floyd-Warshall pivots over
those indices only, which yields the same matrix as the full closure.
Without that provenance (``dirty`` is None: widened values, meets of two
unclosed operands) ``close`` runs the full closure, ``tight_close_inplace``.

Both closure kernels offer the one function ``tight_close_pivots(m,
pivots)``: the hand-written C extension ``_closure.c`` when it is built, and
the numpy kernel ``_closure_py`` otherwise or when ``CONCURREL_PURE`` is set.
``KERNEL`` names the one in use.
"""

from __future__ import annotations

import os

import numpy as np

from .values import BOT, INF, IntAbs

if os.environ.get("CONCURREL_PURE"):
    from ._closure_py import tight_close_pivots

    KERNEL = "python"
else:
    try:
        from ._closure import tight_close_pivots  # type: ignore[no-redef]

        KERNEL = "compiled"
    except ImportError:
        from ._closure_py import tight_close_pivots

        KERNEL = "python"


def tight_close_inplace(m: np.ndarray) -> int:
    """Full tight closure of ``m`` in place: pivots over every index.

    Returns 0, or 1 when the constraints are unsatisfiable."""
    return tight_close_pivots(m, range(m.shape[0]))


class OctRel:
    """Immutable octagon over n integer variables; None matrix means ⊥.

    ``dirty`` (unclosed values only) names the variables whose entries may
    differ from a closed matrix; None means unknown provenance.
    """

    __slots__ = ("n", "m", "closed", "dirty", "_closed_cache")

    def __init__(self, n: int, m: np.ndarray | None, closed: bool = False,
                 dirty: tuple[int, ...] | None = None):
        self.n = n
        self.m = m
        self.closed = closed
        self.dirty = dirty
        self._closed_cache: OctRel | None = None
        if m is not None:
            m.setflags(write=False)

    @property
    def is_bot(self) -> bool:
        return self.m is None


class OctBackend:
    """Factory/operations for octagons over a fixed number of variables.

    ``intervalize=True`` degrades the domain to plain intervals by dropping
    every cross-variable bound during canonicalization (the interval
    configuration shares this one DBM engine).
    """

    def __init__(self, n: int, intervalize: bool = False):
        self.n = n
        self.intervalize = intervalize
        var = np.arange(2 * n) // 2
        self._relational = var[:, None] != var[None, :]  # cross-variable entries
        self._bot = OctRel(n, None, True)
        top = np.full((2 * n, 2 * n), INF)
        np.fill_diagonal(top, 0.0)
        self._top = OctRel(n, top, True)

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
        if r.dirty is None:
            status = tight_close_inplace(m)
        else:
            status = tight_close_pivots(m, [i for x in r.dirty for i in (2 * x, 2 * x + 1)])
        if status != 0:
            c = self._bot
        else:
            if self.intervalize:
                m[self._relational] = INF
            c = OctRel(self.n, m, True)
        r._closed_cache = c
        return c

    def is_bot(self, r: OctRel) -> bool:
        return self.close(r).is_bot

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
        return bool((ca.m <= b.m).all())

    def meet(self, a: OctRel, b: OctRel) -> OctRel:
        if a.is_bot or b.is_bot:
            return self._bot
        m = np.minimum(a.m, b.m)
        base = a if a.closed else b if b.closed else None
        if base is None:
            return OctRel(self.n, m)
        lt = m < base.m
        touched = (lt.any(axis=0) | lt.any(axis=1)).reshape(self.n, 2).any(axis=1)
        if not touched.any():
            return base
        return OctRel(self.n, m, dirty=tuple(np.flatnonzero(touched).tolist()))

    def join(self, a: OctRel, b: OctRel) -> OctRel:
        ca, cb = self.close(a), self.close(b)
        if ca.is_bot:
            return cb
        if cb.is_bot:
            return ca
        return OctRel(self.n, np.maximum(ca.m, cb.m), True)

    def widen(self, a: OctRel, b: OctRel) -> OctRel:
        """Keep stable bounds, drop grown ones; result stays unclosed.

        Returns ``a`` itself when every bound is stable."""
        if a.is_bot:
            return b
        cb = self.close(b)
        if cb.is_bot:
            return a
        stable = cb.m <= a.m
        if stable.all():
            return a
        m = np.where(stable, a.m, INF)
        return OctRel(self.n, m)

    # -- constraint plumbing --

    def _set(self, m: np.ndarray, i: int, j: int, c: float) -> None:
        v = min(m[i, j], c)
        m[i, j] = v
        m[j ^ 1, i ^ 1] = v

    def _add_oct_constraint(self, m, coeffs: dict[int, int], bound: float) -> bool:
        """Record sum(coeffs) ≤ bound when octagonal; False if unsupported."""
        items = sorted(coeffs.items())
        if len(items) == 1:
            (x, cx) = items[0]
            if cx == 1:  # x ≤ bound
                self._set(m, 2 * x + 1, 2 * x, 2 * bound)
            elif cx == -1:  # −x ≤ bound
                self._set(m, 2 * x, 2 * x + 1, 2 * bound)
            else:
                return False
            return True
        if len(items) == 2:
            (x, cx), (y, cy) = items
            if abs(cx) != 1 or abs(cy) != 1:
                return False
            # v_j − v_i ≤ bound with v_j the positive occurrence of x
            if cx == 1 and cy == -1:  # x − y
                self._set(m, 2 * y, 2 * x, bound)
            elif cx == -1 and cy == 1:  # y − x
                self._set(m, 2 * x, 2 * y, bound)
            elif cx == 1 and cy == 1:  # x + y
                self._set(m, 2 * y + 1, 2 * x, bound)
            else:  # −x − y
                self._set(m, 2 * y, 2 * x + 1, bound)
            return True
        return False

    def bounds(self, r: OctRel, x: int) -> tuple[float, float]:
        c = self.close(r)
        if c.is_bot:
            raise ValueError("bounds of ⊥")
        hi = c.m[2 * x + 1, 2 * x] / 2.0
        lo = -c.m[2 * x, 2 * x + 1] / 2.0
        return lo, hi

    def _eval_linear(self, r: OctRel, coeffs: dict[int, int], const: int) -> tuple[float, float]:
        lo, hi = float(const), float(const)
        for x, cx in coeffs.items():
            xlo, xhi = self.bounds(r, x)
            if cx >= 0:
                lo, hi = lo + cx * xlo, hi + cx * xhi
            else:
                lo, hi = lo + cx * xhi, hi + cx * xlo
        return lo, hi

    # -- transfer functions --

    def forget(self, r: OctRel, xs: list[int]) -> OctRel:
        c = self.close(r)
        if c.is_bot or not xs:
            return c
        m = np.array(c.m)
        for x in xs:
            m[2 * x : 2 * x + 2, :] = INF
            m[:, 2 * x : 2 * x + 2] = INF
            m[2 * x, 2 * x] = m[2 * x + 1, 2 * x + 1] = 0.0
        return OctRel(self.n, m, True)

    def restrict(self, r: OctRel, keep: set[int]) -> OctRel:
        return self.forget(r, [x for x in range(self.n) if x not in keep])

    def set_interval(self, r: OctRel, x: int, lo: float, hi: float) -> OctRel:
        """Assign the abstract value [lo, hi] to x (forget, then bound)."""
        if lo > hi:
            return self._bot
        f = self.forget(r, [x])
        if f.is_bot:
            return f
        m = np.array(f.m)
        if hi < INF:
            self._set(m, 2 * x + 1, 2 * x, 2 * hi)
        if lo > -INF:
            self._set(m, 2 * x, 2 * x + 1, -2 * lo)
        return OctRel(self.n, m, dirty=(x,))

    def assign_linear(self, r: OctRel, x: int, coeffs: dict[int, int], const: int) -> OctRel:
        c = self.close(r)
        if c.is_bot:
            return c
        if coeffs == {x: 1}:  # x := x + const, an exact shift
            m = np.array(c.m)
            m[:, 2 * x] += const
            m[2 * x, :] -= const
            m[:, 2 * x + 1] -= const
            m[2 * x + 1, :] += const
            m[2 * x, 2 * x] = m[2 * x + 1, 2 * x + 1] = 0.0
            return OctRel(self.n, m, True)
        if not coeffs:
            return self.set_interval(c, x, const, const)
        if len(coeffs) == 1:
            (y, cy) = next(iter(coeffs.items()))
            if y != x and cy in (1, -1):
                f = self.forget(c, [x])
                m = np.array(f.m)
                if cy == 1:  # x − y = const
                    self._set(m, 2 * y, 2 * x, const)
                    self._set(m, 2 * x, 2 * y, -const)
                else:  # x + y = const
                    self._set(m, 2 * y + 1, 2 * x, const)
                    self._set(m, 2 * y, 2 * x + 1, -const)
                return self._norm(OctRel(self.n, m, dirty=(x, y)))
            if y == x and cy == -1:  # x := −x + const
                m = np.array(c.m)
                m[[2 * x, 2 * x + 1], :] = m[[2 * x + 1, 2 * x], :]
                m[:, [2 * x, 2 * x + 1]] = m[:, [2 * x + 1, 2 * x]]
                return self.assign_linear(OctRel(self.n, m, True), x, {x: 1}, const)
        lo, hi = self._eval_linear(c, coeffs, const)
        return self.set_interval(c, x, lo, hi)

    def guard_leq0(self, r: OctRel, coeffs: dict[int, int], const: int) -> OctRel:
        """Refine by ``sum(coeffs·v) + const ≤ 0``; sound fallback otherwise."""
        c = self.close(r)
        if c.is_bot:
            return c
        work = {x: cf for x, cf in coeffs.items() if cf != 0}
        m = np.array(c.m)
        if self._add_oct_constraint(m, work, -const):
            return self._norm(OctRel(self.n, m, dirty=tuple(work)))
        lo, _hi = self._eval_linear(c, work, const)
        return self._bot if lo > 0 else c

    def guard_eq(self, r: OctRel, coeffs: dict[int, int], const: int) -> OctRel:
        """Refine by ``sum + const == 0``: the meet of ``≤ 0`` and ``≥ 0``."""
        lo = self.guard_leq0(r, coeffs, const)
        hi = self.guard_leq0(r, {x: -cf for x, cf in coeffs.items()}, -const)
        if self.is_bot(lo) or self.is_bot(hi):
            return self._bot
        return self.meet(lo, hi)

    def guard_neq(self, r: OctRel, coeffs: dict[int, int], const: int) -> OctRel:
        """Refine by ``sum + const != 0``: the join of ``< 0`` and ``> 0``."""
        lo = self.guard_leq0(r, coeffs, const + 1)
        hi = self.guard_leq0(r, {x: -cf for x, cf in coeffs.items()}, -const + 1)
        if self.is_bot(lo):
            return hi
        if self.is_bot(hi):
            return lo
        return self.join(lo, hi)

    def contains(self, r: OctRel, vals: list[int]) -> bool:
        if r.is_bot:
            return False
        v = np.empty(2 * self.n)
        v[0::2] = vals
        v[1::2] = [-x for x in vals]
        diff = v[None, :] - v[:, None]
        return bool((diff <= r.m).all())

    # -- rendering --

    def render(self, r: OctRel, names: list[str]) -> list[str]:
        c = self.close(r)
        if c.is_bot:
            return ["⊥"]
        out = []
        box = [self.bounds(c, k) for k in range(self.n)]
        for k, (lo, hi) in enumerate(box):
            if lo == hi:
                out.append(f"{names[k]}={int(lo)}")
            else:
                if hi < INF:
                    out.append(f"{names[k]}<={int(hi)}")
                if lo > -INF:
                    out.append(f"{names[k]}>={int(lo)}")
        for i in range(self.n):
            (ilo, ihi) = box[i]
            for j in range(i + 1, self.n):
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
