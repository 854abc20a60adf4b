"""Loop-built reference implementations of the nilmod invariants.

These are the straightforward, entry-by-entry versions that the
vectorized code in ``lrlab.nilmod`` and ``lrlab.linalg`` replaced.  They
are kept only so tests can require identical answers from both.
"""

from __future__ import annotations

import numpy as np

from lrlab import linalg as la
from lrlab import partitions as pt


def reduce_vec(v, R, pivots, p):
    """Residual of v after eliminating against the rref basis R, row by row."""
    out = v.astype(np.int64) % p
    for row, c in zip(R, pivots):
        if out[c]:
            out = (out - out[c] * row) % p
    return out


def _type_from_ranks(ranks):
    counts = tuple(ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1))
    return pt.transpose(pt.partition(counts))


def type_of_action(T, p):
    """Jordan type from the ranks of the powers of T."""
    n = T.shape[0]
    if n == 0:
        return ()
    ranks = [n]
    power = np.eye(n, dtype=np.int64)
    while ranks[-1]:
        power = (T @ power) % p
        ranks.append(la.rank(power, p))
    return _type_from_ranks(ranks)


def type_on_subspace(B, span):
    """Jordan type of the action on an invariant row space, from the
    dimensions of its successive images."""
    k = span.shape[0]
    if k == 0:
        return ()
    ranks = [k]
    rows = span
    while rows.shape[0]:
        rows = la.row_space((rows @ B.action.T) % B.p, B.p)
        ranks.append(rows.shape[0])
    return _type_from_ranks(ranks)


def quotient_type(B, span):
    """Jordan type of B / span, reducing one column of the action at a time."""
    R, pivots = la.rref(span, B.p)
    comp = [c for c in range(B.dim) if c not in pivots]
    if not comp:
        return ()
    Tbar = np.zeros((len(comp), len(comp)), dtype=np.int64)
    for jj, j in enumerate(comp):
        w = reduce_vec(B.action[:, j].copy(), R, pivots, B.p)
        Tbar[:, jj] = w[comp]
    return type_of_action(Tbar, B.p)


def chain(E):
    """Types of B / T^i A for i = 0 .. (first part of alpha)."""
    alpha = type_on_subspace(E.B, E.span)
    out = []
    rows = E.span
    for _ in range((alpha[0] if alpha else 0) + 1):
        out.append(quotient_type(E.B, rows))
        rows = la.row_space((rows @ E.B.action.T) % E.p, E.p)
    return tuple(out)


def hom_dim(E1, E2):
    """Dimension of Hom(E1, E2), one equation row built per loop pass."""
    if E1.p != E2.p:
        raise ValueError("embeddings live over different fields")
    p = E1.p
    d1, d2 = E1.B.dim, E2.B.dim
    if d1 == 0 or d2 == 0:
        return 0
    n = d1 * d2  # unknowns g[i, j], row-major
    rows = []
    T1, T2 = E1.B.action, E2.B.action
    # commutation: sum_k T2[i,k] g[k,j] - g[i,k] T1[k,j] = 0
    for i in range(d2):
        for j in range(d1):
            row = np.zeros(n, dtype=np.int64)
            for k in range(d2):
                row[k * d1 + j] = (row[k * d1 + j] + T2[i, k]) % p
            for k in range(d1):
                row[i * d1 + k] = (row[i * d1 + k] - T1[k, j]) % p
            rows.append(row)
    # subspace condition: residual of g a against A2 vanishes
    R2, piv2 = la.rref(E2.span, p)
    killer = np.eye(d2, dtype=np.int64)
    for rrow, c in zip(R2, piv2):
        e = np.zeros(d2, dtype=np.int64)
        e[c] = 1
        killer = (killer - np.outer(rrow, e)) % p
    for a in E1.span:
        for i in range(d2):
            func = killer[i]
            if not func.any():
                continue
            row = np.zeros(n, dtype=np.int64)
            for k in range(d2):
                if func[k]:
                    row[k * d1 : (k + 1) * d1] = (func[k] * a) % p
            rows.append(row)
    M = np.array(rows, dtype=np.int64) if rows else np.zeros((0, n), dtype=np.int64)
    return la.solution_space_dim(M, n, p)
