"""The numpy octagon kernel: the numpy twin of every entry point of ``_closure.c``.

Both kernels keep one contract (the header of ``_closure.c`` lists it): each
function here returns, on the same input, the same matrix bit for bit as the
C function of its name, or the same argument.  This one is the fallback
when the C kernel cannot be built, selected at import in ``octagon.py``, and
the reference the tests compare the C kernel against.  It does not check its
input.  As there, every fresh matrix is writable and the caller's to keep:
``OctRel`` makes the matrices it holds read-only.

A matrix is a square C-contiguous float64 matrix of even size 2k over k
variables; entry m[i][j] bounds v_j − v_i, with +inf for "no bound" (-inf
and -0.0 never appear).  The binary entry points (``leq``, ``join``,
``meet``, ``widen``) take two matrices of one size, over the same variables.
Only ``bound`` reads a gather map ``pos``, which puts a matrix over other
variables: target variable u reads variable ``pos[u]`` of the matrix, or is
unconstrained when it is −1; None keeps the matrix as it is.  ``contains``
also takes rows of Python ints (an object array), which it compares with
the entries exactly: the values beyond ±``EXACT_LIMIT`` take this path.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Larger bounds are dropped (set to +inf, which only loses precision) before
# each closure, whose path sums then stay within 2^52, where float64 is exact,
# for packs of up to 2^11 variables.  ``_closure.c`` repeats the value.
BOUND_LIMIT = 2.0 ** 40

# Finite entries stay within ±EXACT_LIMIT, where the sum of two is exact;
# ``shift`` drops larger ones.  ``_closure.c`` repeats the value.
EXACT_LIMIT = 2.0 ** 52

# Bound on the bytes of one temporary of ``contains``.
CONTAINS_CHUNK_BYTES = 4 << 20

_LAYOUT: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _layout(n2: int) -> tuple[np.ndarray, np.ndarray]:
    """For a 2k×2k matrix: the flat indices of the entries m[i][i^1], and
    the index i^1 of each i."""
    if n2 not in _LAYOUT:
        bar = np.arange(n2) ^ 1
        _LAYOUT[n2] = (np.arange(n2) * n2 + bar, bar)
    return _LAYOUT[n2]


def tight_close_inplace(m: np.ndarray) -> int:
    """Entries above ``BOUND_LIMIT`` in magnitude become +inf, then
    Floyd-Warshall over every index, then integer tightening and
    strengthening, in place on a C-contiguous matrix.

    Returns 0, or 1 when the constraints are unsatisfiable (matrix contents
    are then unspecified).
    """
    if not m.flags.c_contiguous:
        raise ValueError("m must be a writable, C-contiguous float64 matrix")
    n2 = m.shape[0]
    if n2 == 0:
        return 0
    np.putmask(m, np.abs(m) > BOUND_LIMIT, np.inf)
    for k in range(n2):
        np.minimum(m, m[:, k : k + 1] + m[k : k + 1, :], out=m)
    flat = m.reshape(-1)
    diag = flat[:: n2 + 1]
    if (diag < 0).any():
        return 1
    diag[:] = 0.0
    # m[i][i^1] bounds twice a variable: round it down to an even number 2h
    ibar, bar = _layout(n2)
    h = np.floor(flat[ibar] * 0.5)
    if (h + h[bar] < 0).any():
        return 1
    # strengthening; it also writes the rounded 2h into each m[i][i^1]
    np.minimum(m, h[:, None] + h[bar][None, :], out=m)
    return 0


@lru_cache(maxsize=None)
def _top(k: int) -> np.ndarray:
    """⊤ over k variables: +inf off the diagonal (read-only, shared)."""
    m = np.full((2 * k, 2 * k), np.inf)
    np.fill_diagonal(m, 0.0)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=1024)
def _gather_indices(pos: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The matrix indices that ``pos`` reads from, and those it writes to."""
    src = [2 * p + s for p in pos if p >= 0 for s in (0, 1)]
    dst = [2 * u + s for u, p in enumerate(pos) if p >= 0 for s in (0, 1)]
    return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)


def _copy(m: np.ndarray, pos) -> np.ndarray:
    """A fresh writable ``m`` over the target of ``pos``."""
    if pos is None:
        return np.array(m)
    src, dst = _gather_indices(tuple(pos))
    if len(dst) == 2 * len(pos):  # a projection
        return m.take(src, 0).take(src, 1)
    out = np.array(_top(len(pos)))
    out[dst[:, None], dst] = m[src[:, None], src]
    return out


def leq(a: np.ndarray, b: np.ndarray) -> bool:
    """Is every entry of ``a`` at most that of ``b``?"""
    return bool((a <= b).all())


def join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` itself when ``b`` ≤ ``a``; else a fresh entrywise maximum."""
    if (b <= a).all():
        return a
    return np.maximum(a, b)


def meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` itself when the entrywise minimum equals ``a``, else ``b``
    itself when it equals ``b``, else a fresh (unclosed) minimum."""
    m = np.minimum(a, b)
    if (m == a).all():
        return a
    if (m == b).all():
        return b
    return m


def widen(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` itself when ``b`` ≤ ``a``; else a fresh matrix of the entries
    of ``a`` that ``b`` keeps, +inf elsewhere."""
    stable = b <= a
    if stable.all():
        return a
    return np.where(stable, a, np.inf)


def bound(m: np.ndarray, pos, entries) -> np.ndarray:
    """A fresh ``m`` over the target of ``pos``; then each ``(i, j, c)`` of
    the flat list ``entries`` sets m[i][j] and m[j^1][i^1] to their minimum
    with c, in order."""
    m = _copy(m, pos)
    for t in range(0, len(entries), 3):
        i, j, c = entries[t : t + 3]
        v = min(m[i, j], c)
        m[i, j] = v
        m[j ^ 1, i ^ 1] = v
    return m


def shift(m: np.ndarray, k: int, c, neg) -> np.ndarray:
    """A fresh ``m`` with variable ``k`` negated (when ``neg``), then
    increased by ``c``; entries above ``EXACT_LIMIT`` in magnitude become
    +inf."""
    m = np.array(m)
    p, q = 2 * k, 2 * k + 1
    if neg:
        m[[p, q], :] = m[[q, p], :]
        m[:, [p, q]] = m[:, [q, p]]
    m[:, p] += c
    m[p, :] -= c
    m[:, q] -= c
    m[q, :] += c
    m[p, p] = m[q, q] = 0.0
    np.putmask(m, np.abs(m) > EXACT_LIMIT, np.inf)
    return m


@lru_cache(maxsize=1024)
def _signed_columns(pos: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The column of each matrix index (+x at 2k, −x at 2k+1), and the sign
    it takes there."""
    return np.repeat(pos, 2), np.tile([1, -1], len(pos))


def contains(m: np.ndarray, vals: np.ndarray, pos) -> np.ndarray:
    """A fresh bool vector: whether each row of ``vals`` satisfies every
    bound of ``m``, where column ``pos[k]`` holds variable k of ``m``.  One
    broadcast of w[j] − w[i] ≤ m[i][j] over the rows' ±x vectors, in chunks
    whose temporaries stay under ``CONTAINS_CHUNK_BYTES``."""
    if not len(pos):
        return np.ones(len(vals), dtype=bool)
    idx, sign = _signed_columns(tuple(pos))
    w = vals[:, idx] * sign
    step = max(1, CONTAINS_CHUNK_BYTES // (8 * m.size))
    out = np.empty(len(vals), dtype=bool)
    for s in range(0, len(vals), step):
        c = w[s:s + step]
        out[s:s + step] = (c[:, None, :] - c[:, :, None] <= m).reshape(len(c), -1).all(1)
    return out
