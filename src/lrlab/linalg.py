"""Dense exact linear algebra over a small prime field, on Python int rows.

A vector is a tuple of ints in [0, p), a matrix a sequence of rows, and
a "space" the row space of a matrix.  Canonical form is the reduced row
echelon form with zero rows dropped, a tuple of row tuples, which is its
own dictionary key for subspace deduplication.  The matrices this
package reduces are tiny, mostly a few rows by ten columns and seldom
beyond a few hundred entries, and the maps it multiplies are shifts,
permutations and 0/±1 matrices, so products skip zero entries.  Python
ints never wrap.
"""

from __future__ import annotations

from functools import lru_cache

Rows = tuple[tuple[int, ...], ...]


def rref(M, p: int) -> tuple[Rows, list[int]]:
    """Reduced row echelon form over F_p of the rows of M.

    Returns (R, pivots) where R has unit pivots with zeros above and
    below, zero rows dropped, and pivots lists the pivot columns.  Each
    pivot row is scaled to a unit pivot and cleared from every other row;
    left of its pivot column a pivot row is zero, so only the columns from
    there on are touched.
    """
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


def rank(M, p: int) -> int:
    return len(rref(M, p)[1])


def row_space(M, p: int) -> Rows:
    return rref(M, p)[0]


def mul(A, B, p: int) -> Rows:
    """The rows of A times B over F_p, B's entries in [0, p).  A zero
    entry of A costs nothing, and a row of A whose one nonzero entry is 1
    picks its row of B as it is."""
    width = len(B[0]) if B else 0
    out = []
    for a in A:
        terms = [(x, row) for x, row in zip(a, B) if x]
        if len(terms) == 1 and terms[0][0] == 1:
            out.append(tuple(terms[0][1]))
            continue
        acc = [0] * width
        for x, row in terms:
            acc = [s + x * y for s, y in zip(acc, row)]
        out.append(tuple([s % p for s in acc]))
    return tuple(out)


@lru_cache(maxsize=64)
def identity(n: int) -> Rows:
    return tuple(tuple([0] * i + [1] + [0] * (n - i - 1)) for i in range(n))


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


def in_space(v, R, pivots: list[int], p: int) -> bool:
    """Whether v lies in the row space of R, which must be rref (see reduce_vec)."""
    return not any(reduce_vec(v, R, pivots, p))


def annihilator(R, pivots: list[int], n: int, p: int) -> list[list[int]]:
    """The rows e_f - sum_i R[i][f] e_(pivots[i]), one per column f off the
    pivots, for R rref with these pivots and n columns: a basis of
    {x : R x = 0}, the functionals that vanish on the row space of R."""
    rows = []
    for f in range(n):
        if f not in pivots:
            v = [0] * n
            v[f] = 1
            for row, c in zip(R, pivots):
                v[c] = -row[f] % p
            rows.append(v)
    return rows


def null_space(M, p: int) -> Rows:
    """Canonical basis rows of the right kernel {x : M x = 0}; M has at
    least one row unless it has no columns."""
    return row_space(annihilator(*rref(M, p), len(M[0]) if len(M) else 0, p), p)
