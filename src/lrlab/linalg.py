"""Dense exact linear algebra over a small prime field.

Vectors are 1-D numpy int64 arrays with entries in [0, p); a "space" is
the row space of a 2-D array.  Canonical form is the reduced row echelon
form with zero rows dropped, which doubles as a dictionary key for
subspace deduplication.

Elimination runs on Python int rows.  The matrices this package reduces
are tiny, mostly a few rows by ten columns and seldom beyond a few
hundred entries, and at that size a numpy call per pivot step costs more
than the arithmetic.  Callers still get int64 arrays.
"""

from __future__ import annotations

import numpy as np


def as_mat(rows, width: int | None = None, p: int = 2) -> np.ndarray:
    """Coerce to a 2-D int64 array reduced mod p."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows.astype(np.int64) % p
    rows = list(rows)
    if not rows:
        return np.zeros((0, width if width is not None else 0), dtype=np.int64)
    return np.array(rows, dtype=np.int64) % p


def _echelon(M: np.ndarray, p: int) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of the reduced row echelon form of M over F_p, as
    lists of Python ints, and the pivot columns.

    Each pivot row is scaled to a unit pivot and cleared from every other
    row.  Left of its pivot column a pivot row is zero, so only the
    columns from there on are touched.  Python ints never wrap.
    """
    rows = (M.astype(np.int64) % p).tolist()
    nrows, ncols = M.shape
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
    return rows[:r], pivots


def rref(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivots) where R has unit pivots with zeros above and
    below, zero rows dropped, and pivots lists the pivot columns.  The
    elimination runs on Python int rows (see the module docstring); R is
    one int64 array of shape (rank, columns of M).
    """
    rows, pivots = _echelon(M, p)
    if not rows:
        return np.zeros((0, M.shape[1]), dtype=np.int64), pivots
    return np.array(rows, dtype=np.int64), pivots


def rank(M: np.ndarray, p: int) -> int:
    return len(_echelon(M, p)[1])


def row_space(M: np.ndarray, p: int) -> np.ndarray:
    return rref(M, p)[0]


def space_key(R: np.ndarray) -> bytes:
    """Hashable key for a canonical (rref) basis."""
    return R.tobytes() + bytes([R.shape[1] % 251])


def reduce_vec(v: np.ndarray, R: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Residual of v after elimination against the basis R.

    R must be in reduced row echelon form with these pivots: each pivot
    column is then a unit vector, so subtracting every row at once,
    scaled by v's pivot entries, equals eliminating one row at a time.
    """
    v = v.astype(np.int64) % p
    return (v - v[pivots] @ R) % p


def in_space(v: np.ndarray, R: np.ndarray, pivots: list[int], p: int) -> bool:
    """Whether v lies in the row space of R, which must be rref (see reduce_vec)."""
    return not reduce_vec(v, R, pivots, p).any()


def null_space(M: np.ndarray, p: int) -> np.ndarray:
    """Basis rows of the right kernel {x : M x = 0}."""
    R, pivots = rref(M, p)
    n = M.shape[1]
    free = [c for c in range(n) if c not in pivots]
    rows = []
    for f in free:
        v = np.zeros(n, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-int(R[i, f])) % p
        rows.append(v)
    if not rows:
        return np.zeros((0, n), dtype=np.int64)
    return row_space(np.array(rows, dtype=np.int64), p)


def solution_space_dim(M: np.ndarray, nunknowns: int, p: int) -> int:
    """Dimension of {x : M x = 0} for an (equations x unknowns) matrix."""
    if M.shape[0] == 0:
        return nunknowns
    return nunknowns - rank(M, p)
