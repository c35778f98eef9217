"""Pure-numpy tight closure for integer octagon DBMs.

The fallback for the compiled kernel in ``_closure.c``, with the same
contract; selected at import in ``octagon.py``, and the reference the tests
compare the compiled kernel against.  Entries are float64 with +inf for "no
bound"; -inf never appears (all entries are upper bounds).
"""

from __future__ import annotations

import numpy as np

# Larger bounds are dropped (set to +inf, which only loses precision) before
# each closure, whose path sums then stay within 2^52, where float64 is exact,
# for packs of up to 2^11 variables.  ``_closure.c`` repeats the value.
BOUND_LIMIT = 2.0 ** 40

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
