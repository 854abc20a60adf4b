"""Reference implementations of the nilmod invariants and realizations.

These are the straightforward, entry-by-entry versions that the
vectorized code in ``lrlab.nilmod`` and ``lrlab.linalg`` replaced, the
rank-per-power Jordan types, quotient types and subspace-sum entry
counts that the layer table replaced, the subspace sum and Zassenhaus
intersection it made unused, the ``np.kron`` hom system that
the block-generator ``hom_dim`` replaced, that block-generator solver
itself (every row of A1 against ``k T^j N`` products, replaced by module
generators in Jordan coordinates), the stacked-rref closure loop,
the hand-built picket, the run-based pole, strip-only graded pole
and per-part tableau realizations that one ``graded_pole_module`` per
embedding replaced, the
layer order by one sum per layer that canonical modules no longer use
and the layer order by a position dict that the package replaced with
indices carried from layer to layer, the Jordan type as the
transpose of the rank differences that second differences replaced,
and the closure in block order and the layer table that row-reduced
every stage afresh, which the closure in layer order and the stages
carried by T replaced, the block-order gather of T (``image``) that
layer-order echelon forms made unused, and the closure that extended one
echelon form by the orbit levels whenever two orbit leads coincided
(``_extended_closure``), which the reduction at the kept leads replaced.
They are kept only so tests can require identical answers from both.

The package has one module representation, N_beta in its own Jordan
coordinates, and converts an action given in any other basis at
``Embedding.from_json``.  The references here take any basis:
``general_embedding`` keeps the action and subspace of a JSON embedding
as given, with no Jordan basis, and ``general_direct_sum`` stacks the
summands' actions itself.  So a test can feed a conjugated embedding
through the boundary and compute the reference on the caller's T, never
on the converted module.

They compute on numpy arrays and convert at their boundary: the
package's rows come in through ``mat``, and the echelon forms run the
package's kernel (checked against the numpy one in
``tests/test_linalg.py``) on ``tolist`` rows; the block-generator solver,
the block-order closure and the old layer table run on rows as they ran
in the package.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from linalg_reference import mat
from lrlab import linalg
from lrlab import partitions as pt
from lrlab import tableaux as tb
from lrlab.errors import InvariantViolation
from lrlab.nilmod import _type_from_ranks as _type_from_ranks_package
from lrlab.nilmod import (Embedding, _chain_pole_split, _stage_rows, _vectors,
                          block_offsets, canonical_module, direct_sum,
                          tableau_of_embedding)
from lrlab.poles import Pole, pole_of_tableau, split_off_pole
from lrlab.tableaux import LRTableau


def _rref(M, p):
    R, pivots = linalg.rref(M.tolist(), p)
    return mat(R, M.shape[1]), pivots


# the kernel on arrays
la = SimpleNamespace(
    rref=_rref,
    row_space=lambda M, p: _rref(M, p)[0],
    rank=lambda M, p: len(_rref(M, p)[1]),
    null_space=lambda M, p: mat(linalg.null_space(M.tolist(), p), M.shape[1]),
)


def reduce_vec(v, R, pivots, p):
    """Residual of v after eliminating against the rref basis R, row by row."""
    out = v.astype(np.int64) % p
    for row, c in zip(R, pivots):
        if out[c]:
            out = (out - out[c] * row) % p
    return out


def space_sum(A, B, p):
    if A.shape[0] == 0:
        return la.row_space(B, p)
    if B.shape[0] == 0:
        return la.row_space(A, p)
    return la.row_space(np.vstack([A, B]), p)


def space_intersect(A, B, p):
    """Basis of the intersection of two row spaces (Zassenhaus)."""
    n = A.shape[1] if A.shape[0] else B.shape[1]
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, n), dtype=np.int64)
    top = np.hstack([A, A])
    bot = np.hstack([B, np.zeros_like(B)])
    R, pivots = la.rref(np.vstack([top, bot]), p)
    # echelon rows whose left block vanished span the intersection
    out = [R[i, n:] for i in range(len(pivots)) if not R[i, :n].any()]
    if not out:
        return np.zeros((0, n), dtype=np.int64)
    return la.row_space(np.array(out, dtype=np.int64), p)


def _type_from_ranks(ranks):
    """The transpose of the rank differences, a ValueError when they are
    not a partition."""
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


def general_embedding(data):
    """The embedding that the JSON ``data`` states, in the basis it is
    given in: the action T mod p and the closure of A_span under it
    (``invariant_closure``), with no Jordan basis.  The references here
    take it wherever they take an embedding; ``data`` stays on it as
    ``json``."""
    p, n = data["p"], len(data["T"])
    grading = data.get("grading")
    B = SimpleNamespace(p=p, dim=n, action=tuple(map(tuple, (mat(data["T"], n) % p).tolist())),
                        grading=None if grading is None else tuple(grading))
    span, pivots = invariant_closure(B, data.get("A_span", []))
    return SimpleNamespace(p=p, B=B, span=tuple(map(tuple, span.tolist())),
                           _pivots=pivots, json=data)


def action_of(B):
    """B's action matrix as an array."""
    return mat(B.action, B.dim)


def span_of(E):
    """E's subspace rows as an array."""
    return mat(E.span, E.B.dim)


def type_on_subspace(B, span):
    """Jordan type of the action on an invariant row space, from the
    dimensions of its successive images."""
    span = mat(span, B.dim)
    k = span.shape[0]
    if k == 0:
        return ()
    ranks = [k]
    rows = span
    T = action_of(B)
    while rows.shape[0]:
        rows = la.row_space((rows @ T.T) % B.p, B.p)
        ranks.append(rows.shape[0])
    return _type_from_ranks(ranks)


def quotient_type(B, span):
    """Jordan type of B / span, reducing one column of the action at a time."""
    R, pivots = la.rref(mat(span, B.dim), B.p)
    comp = [c for c in range(B.dim) if c not in pivots]
    if not comp:
        return ()
    Tbar = np.zeros((len(comp), len(comp)), dtype=np.int64)
    T = action_of(B)
    for jj, j in enumerate(comp):
        w = reduce_vec(T[:, j], R, pivots, B.p)
        Tbar[:, jj] = w[comp]
    return type_of_action(Tbar, B.p)


def chain(E):
    """Types of B / T^i A for i = 0 .. (first part of alpha)."""
    alpha = type_on_subspace(E.B, E.span)
    out = []
    rows = span_of(E)
    for _ in range((alpha[0] if alpha else 0) + 1):
        out.append(quotient_type(E.B, rows))
        rows = la.row_space((rows @ action_of(E.B).T) % E.p, E.p)
    return tuple(out)


def power(B, k):
    """T^k as a matrix."""
    out, T = np.eye(B.dim, dtype=np.int64), action_of(B)
    for _ in range(k):
        out = (T @ out) % B.p
    return out


def mu_entries(E, ell, r):
    """Entries ``ell`` in row ``r`` of E's tableau, from the dimensions of
    sums of subspaces T^i A + T^q B, six echelon forms per difference."""
    if ell < 1 or r < 1:
        raise ValueError("ell and r are 1-based")
    p = E.p

    def dims(q):
        # dim (T^{ell-1}A + T^qB) - dim (T^ellA + T^qB)
        TB = la.row_space(power(E.B, q).T, p)
        lo = la.row_space((span_of(E) @ power(E.B, ell - 1).T) % p, p)
        hi = la.row_space((span_of(E) @ power(E.B, ell).T) % p, p)
        return space_sum(lo, TB, p).shape[0] - space_sum(hi, TB, p).shape[0]

    return dims(r) - dims(r - 1)


def invariant_intersection_dim(E, r, s):
    """dim(A  intersect  T^r B  intersect  ker T^s) by two Zassenhaus
    intersections."""
    p = E.p
    TrB = la.row_space(power(E.B, r).T, p)
    W = space_intersect(TrB, la.null_space(power(E.B, s), p), p)
    return space_intersect(span_of(E), W, p).shape[0]


def picket_embedding(i, ell, p):
    """The embedding (soc^i <= P^ell) built by hand: one block with its
    generator in degree 0, subspace of dim min(i, ell)."""
    if ell < 1 or i < 0:
        raise ValueError("need ell >= 1 and i >= 0")
    module = canonical_module((ell,), p, shifts=[0])
    m = min(i, ell)
    gens = []
    if m:
        v = np.zeros(ell, dtype=np.int64)
        v[ell - m] = 1  # generator T^{ell-m} of the socle layer
        gens.append(v)
    return Embedding(module, gens)


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
    T1, T2 = action_of(E1.B), action_of(E2.B)
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
    R2, piv2 = la.rref(span_of(E2), p)
    killer = np.eye(d2, dtype=np.int64)
    for rrow, c in zip(R2, piv2):
        e = np.zeros(d2, dtype=np.int64)
        e[c] = 1
        killer = (killer - np.outer(rrow, e)) % p
    for a in span_of(E1):
        for i in range(d2):
            func = killer[i]
            if not func.any():
                continue
            row = np.zeros(n, dtype=np.int64)
            for k in range(d2):
                if func[k]:
                    row[k * d1 : (k + 1) * d1] = (func[k] * a) % p
            rows.append(row)
    return n - la.rank(mat(rows, n), p)


def kron_hom_dim(E1, E2):
    """Dimension of Hom(E1, E2) over all d1*d2 ambient maps g: g T1 = T2 g
    and g(A1) <= A2 as one ``np.kron`` system."""
    if E1.p != E2.p:
        raise ValueError("embeddings live over different fields")
    d1, d2 = E1.B.dim, E2.B.dim
    if d1 == 0 or d2 == 0:
        return 0
    return d1 * d2 - la.rank(kron_hom_system(E1, E2), E1.p)


def kron_hom_system(E1, E2):
    """The ``np.kron`` system of Hom(E1, E2), both of positive dimension:
    its null space is the maps g, as d2 x d1 matrices flattened row by
    row, with g T1 = T2 g and g(A1) <= A2."""
    p, d1, d2 = E1.p, E1.B.dim, E2.B.dim
    # unknowns g[i, j] row-major, so vec(T2 g - g T1) = commute @ vec(g)
    T1, T2 = action_of(E1.B), action_of(E2.B)
    commute = np.kron(T2, np.eye(d1, dtype=np.int64)) - np.kron(
        np.eye(d2, dtype=np.int64), T1.T)
    # the nonzero rows of killer are functionals whose common kernel is A2;
    # each must vanish on g a for every basis row a of A1
    killer = np.eye(d2, dtype=np.int64)
    killer[:, E2._pivots] -= span_of(E2).T
    K = killer[killer.any(axis=1)]
    return np.vstack([commute, np.kron(K, span_of(E1))]) % p


def block_hom_dim(E1, E2):
    """Dimension of Hom(E1, E2) on the images x_i = y_i N_i in
    ker T2^(b_i) of E1's block generators, N_i a basis of that kernel:
    for every row c of A1 in Jordan coordinates and every functional k
    killing A2, sum_i sum_j c[off_i + j] (k T2^j N_i^T) y_i = 0."""
    if E1.p != E2.p:
        raise ValueError("embeddings live over different fields")
    p = E1.p
    sizes = E1.B.sizes
    if not sizes:
        return 0
    coords = E1.span
    codim = E2.B.dim - E2.dim_sub()
    blocks = []
    for o, b in zip(block_offsets(sizes), sizes):
        KTN, n = _hom_block(E2, b)
        blocks.append((n, linalg.mul([c[o:o + b] for c in coords], KTN, p)))
    M = [[x for n, terms in blocks for x in terms[i][k * n:(k + 1) * n]]
         for i in range(len(coords)) for k in range(codim)]
    return sum(n for n, _ in blocks) - linalg.rank(M, p)


@lru_cache(maxsize=1024)
def _hom_block(E, b):
    """k T^j N^T for j < b, the functionals k killing A and N a basis of
    ker T^b, as one row per j holding k T^j v at k * n + (index of v in
    N), and n = dim ker T^b; kept per target and size, as the package
    kept them."""
    B, p = E.B, E.p
    K = linalg.annihilator(E.span, E._pivots, B.dim, p)
    TN = N = B.kernel(b)
    out = []
    for _ in range(b):
        out.append(tuple([sum(map(operator.mul, k, v)) % p for k in K for v in TN]))
        TN = image(B, TN)
    return tuple(out), len(N)


def image(B, rows):
    """The rows of T a for the row vectors a in ``rows``, in block order:
    coordinate j of T a is a's at moves[j] (``NilModule._moves``), 0 at a
    block start, as the package's block-order gather took it."""
    return tuple([tuple([(*row, 0)[m] for m in B._moves]) for row in rows])


def invariant_closure(B, vectors):
    """Rref basis and pivots of the invariant closure, re-reducing the
    span stacked on its image until the dimension stops growing."""
    span, pivots = la.rref(mat(vectors, B.dim) % B.p, B.p)
    while True:
        grown, grown_pivots = la.rref(
            np.vstack([span, (span @ action_of(B).T) % B.p]), B.p)
        if len(grown_pivots) == len(pivots):
            return span, pivots
        span, pivots = grown, grown_pivots


def orbit_closure(B, vectors):
    """Rref basis and pivots of the invariant closure in block order, as
    the package took it before it closed in layer order: one ``rref`` of
    the orbits under ``image``, then the residues of the basis's images
    as the invariance check."""
    p = B.p
    rows = _vectors(vectors, B.dim, p)
    step = [v for v in rows if any(v)]
    orbits = []
    while step:
        orbits += step
        step = [v for v in image(B, step) if any(v)]
    span, pivots = linalg.rref(orbits, p)
    residue = [linalg.reduce_vec(v, span, pivots, p) for v in image(B, span)]
    if any(map(any, residue)):
        raise InvariantViolation(f"the orbits of {[list(v) for v in rows]} in the module"
                                 f" of blocks {list(B.sizes)} over F_{p} do not span"
                                 " an invariant subspace")
    return span, pivots


def _extended_closure(B, levels):
    """A's canonical (rref) basis in layer order and its pivots, with the
    dims and the rows of its layer table, for A spanned by the orbit
    ``levels`` of ``nilmod._orbit_levels``: one echelon form extended by
    the levels from the deepest up, so after level i it is the rref of
    T^i A, as the package closed orbits whose leads coincide.  It makes
    no invariance check."""
    span, pivots, stages = (), [], []
    for level in reversed(levels):
        span, pivots = linalg.extend(span, pivots, level, B.p)
        stages.append(pivots)
    return (span, pivots, *_stage_rows(B, stages[::-1]))


def in_layer_order(B, span):
    """The rref and pivots of a block-order span's rows taken to B's layer
    order."""
    order = B._order[0]
    return linalg.rref([tuple([row[q] for q in order]) for row in span], B.p)


def layer_table(E):
    """(alpha, chain, d) of E's layer table as the package took it before
    T carried each stage to the next: the block-order span taken to layer
    order, and every stage row-reduced from its T-images afresh."""
    (order, shift, prefix), p, n = E.B._order, E.p, E.B.dim
    C = [[c[q] for q in order] for c in E.span]
    dims, table = [], []
    while any(map(any, C)):
        R, pivots = linalg.rref(C, p)
        dims.append(len(pivots))
        table.append(tuple(n - s + bisect_left(pivots, s) for s in prefix))
        C = [[row[s] for s in shift] for row in (r + (0,) for r in R)]
    dims.append(0)
    table.append(tuple(n - s for s in prefix))
    chain = tuple(_type_from_ranks_package([x - a for x in row])
                  for row, a in zip(table, dims))
    return _type_from_ranks_package(dims), chain, tuple(table)


def graded_pole_embedding(t: LRTableau, p: int, shift: int = 0) -> Embedding:
    """Graded realization of a one-entry-per-column horizontal strip.

    Column i of t (longest first, strictly decreasing lengths b_i, the
    i-th holding entry t-i+1) contributes the block P^{b_i} placed so
    that its generator has degree (t-i+1) - b_i; the subspace generator
    a = sum_i T^{b_i-(t-i+1)} g^{b_i} is homogeneous of degree 0, then
    everything is shifted by ``shift``.
    """
    cols = t.columns
    k = len(cols)
    if any(len(c.entries) != 1 for c in cols):
        raise ValueError("need exactly one entry per column")
    if [c.entries[0] for c in cols] != list(range(k, 0, -1)):
        raise ValueError("columns must hold entries k..1 left to right")
    if not tb.is_horizontal_strip(t.shape.beta, t.shape.gamma):
        raise ValueError("need a horizontal strip")
    beta = [c.length for c in cols]
    if len(set(beta)) != k:
        raise ValueError("column lengths must be strictly decreasing")
    shifts = [(k - i) - beta[i] + shift for i in range(k)]
    module = canonical_module(tuple(beta), p, shifts=shifts)
    return Embedding(module, [pole_generator(t)])


def pole_generator(t: LRTableau) -> np.ndarray:
    """Coordinates of a = sum_i T^{b_i-(k-i)} g^{b_i} in N_beta, where
    b_1 > ... > b_k are the column lengths of the pole tableau t."""
    beta = tuple(c.length for c in t.columns)
    k = len(beta)
    a = np.zeros(pt.weight(beta), dtype=np.int64)
    for i, (off, b) in enumerate(zip(block_offsets(beta), beta)):
        a[off + b - (k - i)] = 1
    return a


def realize_pole(pole: Pole, p: int, shift: int = 0) -> Embedding:
    """Kaplansky-data realization inside the pole's declared ambient.

    Each maximal run of consecutive layers starting at layer x with
    preceding index j contributes the term T^{x-j} g^{b} on a block of
    size b = one past the run's top layer; unused ambient columns carry
    no generator term.
    """
    layers = pole.layers
    runs = []  # (start_index, start_layer, block_size)
    start = 0
    for i, x in enumerate(layers):
        if i + 1 == len(layers) or layers[i + 1] != x + 1:
            runs.append((start, layers[start], x + 1))
            start = i + 1
    needed = sorted((b for _, _, b in runs), reverse=True)
    remaining = list(pole.ambient)
    for b in needed:
        if b not in remaining:
            raise ValueError(f"ambient {pole.ambient} lacks a column of length {b}")
        remaining.remove(b)
    # order blocks as in the ambient partition; assign run terms greedily
    blocks = list(pole.ambient)
    term: dict[int, int] = {}  # block slot -> exponent of its generator term
    used: set[int] = set()
    for idx, x, b in runs:
        slot = next(i for i, s in enumerate(blocks) if s == b and i not in used)
        used.add(slot)
        term[slot] = x - idx
    shifts = [(-term[i] if i in term else 0) + shift for i in range(len(blocks))]
    module = canonical_module(tuple(blocks), p, shifts=shifts)
    offs = block_offsets(tuple(blocks))
    a = np.zeros(module.dim, dtype=np.int64)
    for i, c in term.items():
        a[offs[i] + c] = 1
    return Embedding(module, [a])


def realize_tableau(t: LRTableau, p: int) -> Embedding:
    """Direct sum of separately built graded poles and empty pickets.

    Strip pieces go to the strip-only ``graded_pole_embedding``; chain
    pieces are read back as Pole records for the run-based
    ``realize_pole``.
    """
    strip = tb.is_horizontal_strip(t.shape.beta, t.shape.gamma)
    parts = []
    rest = t
    while not rest.is_empty():
        if strip:
            piece, rest = split_off_pole(rest)
            parts.append(graded_pole_embedding(piece, p))
        else:
            piece, rest = _chain_pole_split(rest)
            parts.append(realize_pole(pole_of_tableau(piece), p))
    for c in rest.columns:
        parts.append(Embedding(canonical_module((c.length,), p, shifts=[0]), []))
    if not parts:
        return Embedding(canonical_module((), p, shifts=[]), [])
    E = direct_sum(*parts)
    got = tableau_of_embedding(E)
    if got != t:
        raise ValueError(f"tableau is not a union of pole tableaux: got {got}")
    return E


def general_direct_sum(*embeddings):
    """Block-diagonal direct sum as a ``general_embedding``: the summands'
    actions, spans and gradings stacked here, the stacked spans closed
    again."""
    p = embeddings[0].p
    total = sum(e.B.dim for e in embeddings)
    T, spans, off = np.zeros((total, total), dtype=np.int64), [], 0
    for e in embeddings:
        d = e.B.dim
        T[off:off + d, off:off + d] = action_of(e.B)
        spans.extend([0] * off + list(row) + [0] * (total - off - d) for row in e.span)
        off += d
    data = {"p": p, "T": T.tolist(), "A_span": spans}
    if all(e.B.grading is not None for e in embeddings):
        data["grading"] = [d for e in embeddings for d in e.B.grading]
    return general_embedding(data)


def layer_order(sizes):
    """(order, shift, prefix) of a Jordan basis with these block sizes:
    the coordinates by position in block, then by block; where T moves
    each one from in that order (n at a block start); and per k the
    sum(min(b, k)) coordinates below position k, one sum per layer."""
    n, top, offsets = sum(sizes), max(sizes, default=0), block_offsets(sizes)
    order = [o + j for j in range(top) for o, b in zip(offsets, sizes) if j < b]
    at = {q: k for k, q in enumerate(order)}
    return (order, tuple(n if q in offsets else at[q - 1] for q in order),
            [sum(min(b, k) for b in sizes) for k in range(top + 1)])


def _layer_order(sizes):
    """``layer_order`` as the package built it before: the layers' blocks
    filtered one layer at a time, where T moves each coordinate from
    looked up in a dict of positions, block starts in a set."""
    offsets = block_offsets(sizes)
    blocks, order, prefix = list(zip(offsets, sizes)), [], [0]
    for j in range(max(sizes, default=0)):
        blocks = [(o, b) for o, b in blocks if j < b]
        order += [o + j for o, _ in blocks]
        prefix.append(len(order))
    at, starts = {q: k for k, q in enumerate(order)}, set(offsets)
    return order, tuple([len(order) if q in starts else at[q - 1] for q in order]), prefix
