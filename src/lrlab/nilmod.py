"""Nilpotent modules and invariant-subspace embeddings over a prime field.

A module is a nilpotent square matrix acting on column vectors, with an
optional grading (degree per basis vector, raised by one by the action).
An embedding is such a module together with the reduced basis of an
invariant subspace.  Everything downstream -- Jordan types, tableaux of
embeddings, entry-count formulas, hom spaces, realizations of tableaux --
is exact linear algebra mod p.  Every pole is realized from its tableau
by one generator formula (``pole_generator``), and a tableau as one
graded module with one such generator per pole piece
(``graded_pole_sum``).
"""

from __future__ import annotations

import numpy as np

from . import linalg as la
from . import partitions as pt
from . import tableaux as tb
from .errors import InvariantViolation
from .partitions import Partition
from .poles import Picket, Pole, minimal_ambient, pole_tableau, split_off_pole
from .tableaux import LRTableau


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


class NilModule:
    """A nilpotent action matrix over F_p, optionally graded.

    The prime is bounded by dim * p**2 < 2**63 (dim taken as at least 1):
    every matrix product in this package sums at most dim terms below
    p**2, so int64 arithmetic never wraps.  The Jordan type, a Jordan
    basis and the kernels of the powers are computed on first use and
    kept; the action is read-only, so they never go stale.
    """

    __slots__ = ("p", "dim", "action", "grading", "_type", "_basis", "_kernels")

    def __init__(self, p: int, action, grading=None):
        # checked first, since it also keeps the trial division below 2**16
        if max(len(action), 1) * p * p >= 2**63:
            raise ValueError(f"p = {p} is too large for dimension {len(action)}:"
                             " need dim * p**2 < 2**63")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        T = la.as_mat(action, p=p)
        n = T.shape[0]
        if T.shape != (n, n):
            raise ValueError("action matrix must be square")
        power = np.eye(n, dtype=np.int64)
        for _ in range(n):
            power = (T @ power) % p
        if power.any():
            raise ValueError("action matrix is not nilpotent")
        if grading is not None:
            grading = tuple(int(d) for d in grading)
            if len(grading) != n:
                raise ValueError("grading must assign a degree per basis vector")
            # column-major, so the first offending (i, j) is reported
            for j, i in zip(*np.nonzero(T.T)):
                if grading[i] != grading[j] + 1:
                    raise ValueError(
                        f"action does not raise degree by one at ({i},{j})")
        self.p = p
        self.dim = n
        self.action = T
        self.action.setflags(write=False)
        self.grading = grading
        self._type = None
        self._basis = None
        self._kernels = {}

    def power(self, k: int) -> np.ndarray:
        out = np.eye(self.dim, dtype=np.int64)
        for _ in range(min(k, self.dim)):
            out = (self.action @ out) % self.p
        if k >= self.dim:
            out = np.zeros_like(out)  # nilpotency index <= dim
        return out

    def kernel(self, k: int) -> np.ndarray:
        """Canonical (rref) row basis of ker T^k."""
        if k not in self._kernels:
            self._kernels[k] = la.null_space(self.power(k), self.p)
        return self._kernels[k]


def canonical_module(sizes, p: int, shifts=None) -> NilModule:
    """One Jordan block per size, in the order given (N_beta for sizes
    beta), the basis ordered block by block, generator first.

    ``shifts`` optionally assigns a degree to each block generator, making
    the module graded.
    """
    if any(b <= 0 for b in sizes):
        raise ValueError(f"block sizes must be positive, got {sizes}")
    n = sum(sizes)
    T = np.zeros((n, n), dtype=np.int64)
    grading = [] if shifts is not None else None
    off = 0
    for bi, b in enumerate(sizes):
        for j in range(b - 1):
            T[off + j + 1, off + j] = 1
        if shifts is not None:
            grading.extend(shifts[bi] + j for j in range(b))
        off += b
    return NilModule(p, T, grading)


def block_offsets(beta: Partition) -> list[int]:
    out = [0]
    for b in beta:
        out.append(out[-1] + b)
    return out[:-1]


def jordan_type(M: NilModule) -> Partition:
    """Partition of Jordan block sizes, via ranks of the powers."""
    if M._type is None:
        M._type = _type_from_action(M.action, M.p)
    return M._type


def jordan_basis(M: NilModule) -> tuple[tuple[int, ...], np.ndarray]:
    """Block sizes and a Jordan basis Q of M, sizes nonincreasing.

    The rows of Q are g_1, T g_1, ..., g_2, T g_2, ..., so a = c Q gives
    the Jordan coordinates c of a.  The generators of the size-b blocks
    are rref rows of a complement of ker T^(b-1) + T ker T^(b+1) in
    ker T^b: by induction from the top, their chains reach a basis of
    every ker T^l / ker T^(l-1).
    """
    if M._basis is None:
        p, T = M.p, M.action
        top = 0
        while M.kernel(top).shape[0] < M.dim:
            top += 1
        sizes, rows = [], []
        for b in range(top, 0, -1):
            lower, pivots = la.rref(np.vstack(
                [M.kernel(b - 1), (M.kernel(b + 1) @ T.T) % p]), p)
            kernel = M.kernel(b)
            gens = la.row_space((kernel - kernel[:, pivots] @ lower) % p, p)
            for g in gens:
                sizes.append(b)
                for _ in range(b):
                    rows.append(g)
                    g = (T @ g) % p
        Q = np.array(rows, dtype=np.int64).reshape(M.dim, M.dim)
        Q.setflags(write=False)
        M._basis = (tuple(sizes), Q)
    return M._basis


def _type_from_action(T: np.ndarray, p: int) -> Partition:
    """Jordan type of the nilpotent square matrix T, from rank T^i."""
    ranks = [T.shape[0]]
    power = np.eye(T.shape[0], dtype=np.int64)
    while ranks[-1]:
        power = (T @ power) % p
        ranks.append(la.rank(power, p))
        if ranks[-1] == ranks[-2]:
            raise InvariantViolation("Jordan type of a matrix that is not nilpotent")
    rows = tuple(ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1))
    return pt.transpose(pt.partition(rows))


def invariant_closure(B: NilModule, vectors) -> tuple[np.ndarray, list[int]]:
    """Canonical (rref) basis and pivots of the smallest invariant
    subspace of B containing ``vectors``.

    The images of the basis rows are reduced modulo the span in one step
    (see ``la.reduce_vec``); the span grows only by a nonzero residue, so
    a span that is already invariant costs one ``rref``.
    """
    p = B.p
    rows = la.as_mat(vectors, width=B.dim, p=p)
    if rows.shape[0] and rows.shape[1] != B.dim:
        raise ValueError("subspace vectors have the wrong length")
    span, pivots = la.rref(rows, p)
    while True:
        img = (span @ B.action.T) % p
        residue = (img - img[:, pivots] @ span) % p
        if not residue.any():
            return span, pivots
        span, pivots = la.rref(np.vstack([span, residue]), p)


class Embedding:
    """An invariant subspace A inside the module B.

    ``span`` is the canonical (rref) row basis of A; the constructor
    closes the given vectors under the action, so they may be just
    generators.  The chain, the checked tableau and the pieces of hom
    systems are computed on first use and kept.
    """

    __slots__ = ("B", "span", "_pivots", "alpha", "_chain", "_tableau",
                 "_coords", "_hom_blocks")

    def __init__(self, B: NilModule, vectors):
        self.B = B
        span, self._pivots = invariant_closure(B, vectors)
        self.span = span
        self.span.setflags(write=False)
        # span is rref and invariant, so the pivot coordinates of T a are
        # the coefficients of T a in the basis rows: the restricted action
        restricted = ((span @ B.action.T) % B.p)[:, self._pivots]
        self.alpha = _type_from_action(restricted, B.p)
        self._chain = None
        self._tableau = None
        self._coords = None
        self._hom_blocks = {}

    @property
    def p(self) -> int:
        return self.B.p

    def dim_sub(self) -> int:
        return self.span.shape[0]

    def chain(self) -> tuple[Partition, ...]:
        if self._chain is None:
            R, pivots = self.span, self._pivots
            out = [quotient_type(self.B, R, pivots)]
            for _ in range(self.alpha[0] if self.alpha else 0):
                R, pivots = la.rref((R @ self.B.action.T) % self.p, self.p)
                out.append(quotient_type(self.B, R, pivots))
            self._chain = tuple(out)
        return self._chain

    @property
    def gamma(self) -> Partition:
        return self.chain()[0]

    @property
    def beta(self) -> Partition:
        return jordan_type(self.B)

    def contains(self, v) -> bool:
        R, pivots = self.span, self._pivots
        return la.in_space(np.asarray(v, dtype=np.int64), R, pivots, self.p)

    def to_json(self) -> dict:
        data = {
            "p": self.p,
            "beta": list(self.beta),
            "T": self.B.action.tolist(),
            "A_span": self.span.tolist(),
        }
        if self.B.grading is not None:
            data["grading"] = list(self.B.grading)
        return data

    @staticmethod
    def from_json(data: dict) -> "Embedding":
        p = pt.json_ints(data["p"], "p", 0)
        grading = data.get("grading")
        if grading is not None:
            grading = pt.json_ints(grading, "grading", 1)
        module = NilModule(p, pt.json_ints(data["T"], "T", 2), grading)
        return Embedding(module, pt.json_ints(data.get("A_span", []), "A_span", 2))

    def __repr__(self):
        return (f"Embedding(p={self.p}, beta={self.beta}, alpha={self.alpha}, "
                f"gamma={self.gamma})")


def quotient_type(B: NilModule, R: np.ndarray, pivots: list[int]) -> Partition:
    """Jordan type of B modulo an invariant row space.

    ``R`` must be rref with pivot columns ``pivots``.  The action is induced
    on the non-pivot coordinates after eliminating against ``R``; no
    quotient object is materialized.
    """
    comp = [c for c in range(B.dim) if c not in pivots]
    cols = B.action[:, comp]
    Tbar = (cols - R.T @ cols[pivots]) % B.p
    return _type_from_action(Tbar[comp], B.p)


def tableau_of_embedding(E: Embedding) -> LRTableau:
    """Chain of types of B / (action^i A), assembled into a tableau; kept
    on E once it has passed the check against the subspace type."""
    if E._tableau is None:
        t = tb.from_chain(list(E.chain()))
        if t.shape.alpha != E.alpha:
            raise InvariantViolation(
                f"chain stages {t.shape.alpha} disagree with the subspace type {E.alpha}"
            )
        E._tableau = t
    return E._tableau


def mu_entries(E: Embedding, ell: int, r: int) -> int:
    """Number of entries ``ell`` in row ``r`` of the embedding's tableau,
    computed from subspace dimensions rather than from the tableau."""
    if ell < 1 or r < 1:
        raise ValueError("ell and r are 1-based")
    p = E.p

    def dims(q: int) -> int:
        # dim (T^{ell-1}A + T^qB) - dim (T^ellA + T^qB)
        TB = la.row_space(E.B.power(q).T, p)
        lo = la.row_space((E.span @ E.B.power(ell - 1).T) % p, p)
        hi = la.row_space((E.span @ E.B.power(ell).T) % p, p)
        return (
            la.space_sum(lo, TB, p).shape[0] - la.space_sum(hi, TB, p).shape[0]
        )

    return dims(r) - dims(r - 1)


def invariant_intersection_dim(E: Embedding, r: int, s: int) -> int:
    """dim(A  intersect  T^r B  intersect  ker T^s)."""
    p = E.p
    TrB = la.row_space(E.B.power(r).T, p)
    socs = E.B.kernel(s)
    W = la.space_intersect(TrB, socs, p)
    return la.space_intersect(E.span, W, p).shape[0]


def direct_sum(*embeddings: Embedding) -> Embedding:
    """Block-diagonal direct sum; gradings concatenate when all present."""
    if not embeddings:
        raise ValueError("need at least one summand")
    p = embeddings[0].p
    if any(e.p != p for e in embeddings):
        raise ValueError("summands live over different fields")
    dims = [e.B.dim for e in embeddings]
    total = sum(dims)
    T = np.zeros((total, total), dtype=np.int64)
    off = 0
    gradings: list[int] | None = []
    for e in embeddings:
        T[off : off + e.B.dim, off : off + e.B.dim] = e.B.action
        if gradings is not None and e.B.grading is not None:
            gradings.extend(e.B.grading)
        else:
            gradings = None
        off += e.B.dim
    vectors = []
    off = 0
    for e in embeddings:
        for row in e.span:
            v = np.zeros(total, dtype=np.int64)
            v[off : off + e.B.dim] = row
            vectors.append(v)
        off += e.B.dim
    return Embedding(NilModule(p, T, gradings), vectors)


def hom_dim(E1: Embedding, E2: Embedding) -> int:
    """Dimension of the space of embedding morphisms E1 -> E2.

    A module map g is fixed by the images x_i in ker T2^(b_i) of the
    generators of E1's Jordan blocks (``jordan_basis``); write each as
    x_i = y_i N_i with N_i a basis of that kernel.  The one condition left
    is g(A1) <= A2: for every row c of A1 in Jordan coordinates and every
    functional k killing A2,
    sum_i sum_j c[off_i + j] (k T2^j N_i^T) y_i = 0.  That is
    sum_i dim ker T2^(b_i) unknowns and dim A1 * codim A2 equations.  E1
    keeps its Jordan coordinates and E2 its k T2^j N^T per block size, so
    a catalog of queries against one target shares them.
    """
    if E1.p != E2.p:
        raise ValueError("embeddings live over different fields")
    sizes, coords = _jordan_coords(E1)
    if not sizes:
        return 0
    blocks, off = [], 0
    for b in sizes:
        KTN = _hom_block(E2, b)
        _, codim, n = KTN.shape
        # row (c, k) of this block: sum_j c[off + j] (k T2^j N^T)
        terms = coords[:, off:off + b] @ KTN.reshape(b, codim * n)
        blocks.append(terms.reshape(len(coords) * codim, n))
        off += b
    M = np.hstack(blocks) % E1.p
    return la.solution_space_dim(M, M.shape[1], E1.p)


def _jordan_coords(E: Embedding) -> tuple[tuple[int, ...], np.ndarray]:
    """Block sizes of E.B and the rows of A in its Jordan coordinates."""
    if E._coords is None:
        sizes, Q = jordan_basis(E.B)
        # c Q = a for every row a of A, solved as Q^T c^T = a^T
        R, _ = la.rref(np.hstack([Q.T, E.span.T]), E.p)
        E._coords = sizes, R[:, E.B.dim:].T
    return E._coords


def _hom_block(E: Embedding, b: int) -> np.ndarray:
    """k T^j N^T for j < b, the functionals k killing A and N a basis of
    ker T^b: shape (b, codim A, dim ker T^b)."""
    if b not in E._hom_blocks:
        B, p = E.B, E.p
        # the nonzero rows of killer are functionals whose common kernel is A
        killer = np.eye(B.dim, dtype=np.int64)
        killer[:, E._pivots] -= E.span.T
        K = killer[killer.any(axis=1)] % p
        TN = B.kernel(b).T
        out = []
        for _ in range(b):
            out.append((K @ TN) % p)
            TN = (B.action @ TN) % p
        E._hom_blocks[b] = np.array(out)
    return E._hom_blocks[b]


def picket_embedding(i: int, ell: int, p: int) -> Embedding:
    """The embedding (soc^i <= P^ell): one block, subspace of dim min(i, ell)."""
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


def realize_picket(n: int, m: int, p: int) -> Embedding:
    """P^n_m as an embedding: subspace generated by T^{n-m}."""
    Picket(n, m)
    return picket_embedding(m, n, p)


def picket_hom_profile(E: Embedding, max_i: int, max_ell: int) -> list[list[int]]:
    """profile[i][ell-1] = hom_dim(E, P_i^ell) for 0 <= i <= max_i."""
    return [
        [hom_dim(E, picket_embedding(i, ell, E.p)) for ell in range(1, max_ell + 1)]
        for i in range(max_i + 1)
    ]


def picket_dominance_test(E1: Embedding, E2: Embedding) -> bool:
    """Entrywise comparison of picket-hom profiles; by the adjunction
    identity this decides dominance of the two tableaux."""
    if E1.p != E2.p:
        raise ValueError("embeddings live over different fields")
    max_i = max(E1.alpha[0] if E1.alpha else 0, E2.alpha[0] if E2.alpha else 0)
    max_ell = max(E1.beta[0] if E1.beta else 1, E2.beta[0] if E2.beta else 1)
    p1 = picket_hom_profile(E1, max_i, max_ell)
    p2 = picket_hom_profile(E2, max_i, max_ell)
    return all(a <= b for r1, r2 in zip(p1, p2) for a, b in zip(r1, r2))


def pole_generator(t: LRTableau) -> np.ndarray:
    """Coordinates of the generator a of the pole with tableau t, in the
    blocks of t's columns taken in order.

    Each entry 1..k must occur once and each column must hold a run of
    consecutive entries.  A column of length b and base x whose run
    starts at e contributes the term T^{x-e+1} g^b, so T^{e-1} a reaches
    radical layer x there; an empty column contributes nothing.
    """
    entries = sorted(e for c in t.columns for e in c.entries)
    if entries != list(range(1, len(entries) + 1)):
        raise ValueError(f"entries {entries} are not 1..k, each once")
    a = np.zeros(sum(c.length for c in t.columns), dtype=np.int64)
    off = 0
    for c in t.columns:
        if c.entries:
            e = c.entries[0]
            if c.entries != tuple(range(e, e + len(c.entries))):
                raise ValueError(f"{c} does not hold a run of consecutive entries")
            if c.base < e - 1:
                raise ValueError(f"entry {e} of {c} lies above row {e}")
            a[off + c.base - e + 1] = 1
        off += c.length
    return a


def graded_pole_sum(pieces, p: int, shift: int = 0) -> Embedding:
    """Graded sum of the poles with tableaux ``pieces``: one module over
    all their columns in order, one ``pole_generator`` per piece at its
    block offset, every generator homogeneous of degree ``shift``."""
    sizes = [c.length for t in pieces for c in t.columns]
    gens = np.zeros((len(pieces), sum(sizes)), dtype=np.int64)
    off = 0
    for row, t in zip(gens, pieces):
        a = pole_generator(t)
        row[off:off + len(a)] = a
        off += len(a)
    # a term T^c g^b, the block's only nonzero at index c, puts g^b in
    # degree shift - c; an empty block (argmax 0) sits in degree shift
    terms = gens.sum(axis=0)
    shifts = [shift - int(np.argmax(terms[o:o + b]))
              for o, b in zip(block_offsets(sizes), sizes)]
    return Embedding(canonical_module(sizes, p, shifts=shifts), gens)


def graded_pole_embedding(t: LRTableau, p: int, shift: int = 0) -> Embedding:
    """Graded realization of the pole tableau t: the subspace generated by
    ``pole_generator(t)``, homogeneous of degree ``shift``."""
    return graded_pole_sum([t], p, shift)


def realize_pole(pole: Pole, p: int, shift: int = 0) -> Embedding:
    """Kaplansky-data realization inside the pole's declared ambient:
    the graded realization of its pole tableau, blocks in that
    tableau's column order."""
    return graded_pole_embedding(pole_tableau(pole), p, shift)


def _subtract_chain(big, small) -> list[Partition]:
    """Stagewise transpose subtraction, tail-padding the shorter chain."""
    m = max(len(big), len(small))
    out = []
    for i in range(m):
        a = pt.transpose(big[min(i, len(big) - 1)])
        b = pt.transpose(small[min(i, len(small) - 1)])
        if len(b) > len(a):
            raise ValueError("pole chain does not fit inside the tableau chain")
        diff = tuple(x - (b[j] if j < len(b) else 0) for j, x in enumerate(a))
        if any(d < 0 for d in diff):
            raise ValueError("pole chain does not fit inside the tableau chain")
        out.append(pt.transpose(pt.partition(diff)))
    while len(out) > 1 and out[-1] == out[-2]:
        out.pop()
    return out


def _chain_pole_split(t: LRTableau) -> tuple[LRTableau, LRTableau]:
    """Peel the tableau of one minimal-ambient pole off an arbitrary
    tableau by chain subtraction: deepest available row per value,
    working downward."""
    rows_of: dict[int, list[int]] = {}
    for c in t.columns:
        for j, e in enumerate(c.entries):
            rows_of.setdefault(e, []).append(c.row_of(j))
    s = max(rows_of)
    layers = []
    bound = None
    for e in range(s, 0, -1):
        cands = [r for r in rows_of.get(e, []) if bound is None or r < bound]
        if not cands:
            raise ValueError(f"no entry {e} available above row {bound}")
        bound = max(cands)
        layers.append(bound - 1)
    layers = tuple(reversed(layers))
    piece = pole_tableau(Pole(layers, minimal_ambient(layers)))
    return piece, tb.from_chain(_subtract_chain(t.chain, piece.chain))


def realize_tableau(t: LRTableau, p: int) -> Embedding:
    """One graded module realizing ``t`` as a sum of poles and empty pickets.

    Horizontal strips always succeed: ``split_off_pole`` cuts them into
    pole tableaux.  Other tableaux are attempted by peeling minimal poles
    off the partition chain; tableaux with no pole-sum realization at all
    (they exist) are rejected.  The pieces and the empty leftover columns
    make one ``graded_pole_sum``, re-verified to have tableau ``t``.
    """
    split = (split_off_pole if tb.is_horizontal_strip(t.shape.beta, t.shape.gamma)
             else _chain_pole_split)
    pieces, rest = [], t
    while not rest.is_empty():
        piece, rest = split(rest)
        pieces.append(piece)
    E = graded_pole_sum(pieces + [rest], p)
    got = tableau_of_embedding(E)
    if got != t:
        raise ValueError(f"tableau is not a union of pole tableaux: got {got}")
    return E
