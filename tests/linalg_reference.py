"""Test-only references: the two echelon forms that ``linalg.extend``
replaced, and the membership test on an echelon form that
``Embedding.contains`` replaced by a reduction at the kept leads.

``rref`` is the numpy one, which eliminates with whole-array operations
(one ``outer`` and ``%`` per pivot).  ``sweep_rref`` is the list kernel
that came after it, which sweeps the columns left to right and clears
each pivot from every other row.  ``tests/test_linalg.py`` checks that
``lrlab.linalg`` returns the same ``(R, pivots)`` as both.  ``mat`` reads
the package's rows into arrays.  ``in_space`` asks whether a vector
reduces to 0 modulo an rref.
"""

from __future__ import annotations

import numpy as np

from lrlab import linalg


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


def sweep_rref(M, p: int) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Reduced row echelon form over F_p of the rows of M, column by
    column: each pivot row is scaled to a unit pivot and cleared from
    every other row; left of its pivot column a pivot row is zero, so only
    the columns from there on are touched."""
    rows = [[x % p for x in row] for row in M]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        row = rows[i]
        rows[i] = rows[r]
        rows[r] = row
        inv = pow(row[c], p - 2, p)
        if inv != 1:
            row[c:] = [x * inv % p for x in row[c:]]
        tail = row[c:]
        for j in range(nrows):
            other = rows[j]
            f = other[c]
            if f and j != r:
                other[c:] = [(x - f * y) % p for x, y in zip(other[c:], tail)]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, rows[:r])), pivots


def in_space(v, R, pivots: list[int], p: int) -> bool:
    """Whether v lies in the row space of R, which must be rref (see
    ``linalg.reduce_vec``)."""
    return not any(linalg.reduce_vec(v, R, pivots, p))
