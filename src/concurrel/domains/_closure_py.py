"""Pure-numpy tight closure for integer octagon DBMs.

The fallback for the compiled kernel in ``_closure.c``, with the same
contract; selected at import in ``octagon.py``, and the reference the tests
compare the compiled kernel against.  Entries are float64 with +inf for "no
bound"; -inf never appears (all entries are upper bounds).
"""

from __future__ import annotations

import numpy as np


def tight_close_inplace(m: np.ndarray) -> int:
    """Floyd-Warshall over every index, then integer tightening and
    strengthening, in place.

    Returns 0, or 1 when the constraints are unsatisfiable (matrix contents
    are then unspecified).
    """
    n2 = m.shape[0]
    if n2 == 0:
        return 0
    for k in range(n2):
        np.minimum(m, m[:, k : k + 1] + m[k : k + 1, :], out=m)
    if (np.diagonal(m) < 0).any():
        return 1
    np.fill_diagonal(m, 0.0)
    idx = np.arange(n2)
    bar = idx ^ 1
    m[idx, bar] = 2.0 * np.floor(m[idx, bar] / 2.0)
    if ((m[idx, bar] + m[bar, idx]) < 0).any():
        return 1
    half = np.floor(m[idx, bar] / 2.0)
    np.minimum(m, half[:, None] + half[bar][None, :], out=m)
    return 0
