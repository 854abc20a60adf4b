"""Test-only reference: the numpy echelon form that ``linalg.rref`` replaced.

It eliminates with whole-array operations (one ``outer`` and ``%`` per
pivot); ``tests/test_linalg.py`` checks that the list kernel in
``lrlab.linalg`` returns the same ``(R, pivots)``.  ``mat`` reads the
package's rows into arrays.
"""

from __future__ import annotations

import numpy as np


def rref(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivots) where R has unit pivots with zeros above and
    below, zero rows dropped, and pivots lists the pivot columns.
    """
    R = M.astype(np.int64) % p
    nrows, ncols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = pow(int(R[r, c]), p - 2, p)
        R[r] = (R[r] * inv) % p
        col = R[:, c].copy()
        col[r] = 0
        R = (R - np.outer(col, R[r])) % p
        pivots.append(c)
        r += 1
    return R[: len(pivots)], pivots


def mat(rows, ncols: int) -> np.ndarray:
    """Rows of integers (tuples, lists or an array) as an int64 array with
    ``ncols`` columns, also when there are no rows."""
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
