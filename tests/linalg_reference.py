"""Test-only references: the two echelon forms that ``linalg.extend``
replaced, the one-pass reduction on an echelon form that
``linalg.reduce_vec`` replaced by a reduction at any distinct leads, and
membership by rank.

``rref`` is the numpy one, which eliminates with whole-array operations
(one ``outer`` and ``%`` per pivot).  ``sweep_rref`` is the list kernel
that came after it, which sweeps the columns left to right and clears
each pivot from every other row.  ``tests/test_linalg.py`` checks that
``lrlab.linalg`` returns the same ``(R, pivots)`` as both.  ``mat`` reads
the package's rows into arrays.  ``reduce_vec`` takes every row of an
rref off a vector at once, scaled by the vector's original entries at
the pivots.  ``in_space`` asks whether a vector adds nothing to the rank
of some rows, by ``rref``, so it shares no code with the package.
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


def reduce_vec(v, R, pivots: list[int], p: int) -> tuple[int, ...]:
    """Residual of v after elimination against the basis R.

    R must be in reduced row echelon form with these pivots: each pivot
    column is then a unit vector, so subtracting every row at once,
    scaled by v's pivot entries, equals eliminating one row at a time.
    """
    out = list(v)
    for row, c in zip(R, pivots):
        f = v[c]
        if f:
            out = [x - f * y for x, y in zip(out, row)]
    return tuple([x % p for x in out])


def in_space(v, R, p: int) -> bool:
    """Whether v lies in the row space of the rows R, any rows at all:
    whether stacking v on them leaves the rank, by ``rref``, as it is."""
    n = len(v)
    return len(rref(mat([*R, v], n), p)[1]) == len(rref(mat(R, n), p)[1])
