"""Nilpotent modules and invariant-subspace embeddings over a prime field.

A module is a nilpotent square matrix acting on column vectors, with an
optional grading (degree per basis vector, raised by one by the action).
An embedding is such a module together with the reduced basis of an
invariant subspace.  Everything downstream -- Jordan types, tableaux of
embeddings, entry-count formulas, hom spaces, realizations of tableaux --
is exact linear algebra mod p.
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
    p**2, so int64 arithmetic never wraps.
    """

    __slots__ = ("p", "dim", "action", "grading")

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
            for j in range(n):
                for i in range(n):
                    if T[i, j] and grading[i] != grading[j] + 1:
                        raise ValueError(
                            f"action does not raise degree by one at ({i},{j})"
                        )
        self.p = p
        self.dim = n
        self.action = T
        self.action.setflags(write=False)
        self.grading = grading

    def power(self, k: int) -> np.ndarray:
        out = np.eye(self.dim, dtype=np.int64)
        for _ in range(min(k, self.dim)):
            out = (self.action @ out) % self.p
        if k >= self.dim:
            out = np.zeros_like(out)  # nilpotency index <= dim
        return out


def canonical_module(beta: Partition, p: int, shifts=None) -> NilModule:
    """N_beta with the Jordan basis ordered block by block, generator first.

    ``shifts`` optionally assigns a degree to each block generator, making
    the module graded.
    """
    beta = pt.partition(beta)
    n = pt.weight(beta)
    T = np.zeros((n, n), dtype=np.int64)
    grading = [] if shifts is not None else None
    off = 0
    for bi, b in enumerate(beta):
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
    return _type_from_action(M.action, M.p)


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
    subspace of B containing ``vectors``."""
    rows = la.as_mat(vectors, width=B.dim, p=B.p)
    if rows.shape[0] and rows.shape[1] != B.dim:
        raise ValueError("subspace vectors have the wrong length")
    span, pivots = la.rref(rows, B.p)
    while True:
        grown, grown_pivots = la.rref(
            np.vstack([span, (span @ B.action.T) % B.p]), B.p)
        if len(grown_pivots) == len(pivots):
            return span, pivots
        span, pivots = grown, grown_pivots


class Embedding:
    """An invariant subspace A inside the module B.

    ``span`` is the canonical (rref) row basis of A; the constructor
    closes the given vectors under the action, so they may be just
    generators.
    """

    __slots__ = ("B", "span", "_pivots", "alpha", "_chain")

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
    """Chain of types of B / (action^i A), assembled into a tableau."""
    t = tb.from_chain(list(E.chain()))
    if t.shape.alpha != E.alpha:
        raise InvariantViolation(
            f"chain stages {t.shape.alpha} disagree with the subspace type {E.alpha}"
        )
    return t


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
    socs = la.null_space(E.B.power(s), p)
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

    Unknowns are ambient maps g with g T1 = T2 g and g(A1) <= A2; both
    conditions are rows of one linear system over F_p.
    """
    if E1.p != E2.p:
        raise ValueError("embeddings live over different fields")
    p = E1.p
    d1, d2 = E1.B.dim, E2.B.dim
    if d1 == 0 or d2 == 0:
        return 0
    # unknowns g[i, j] row-major, so vec(T2 g - g T1) = commute @ vec(g)
    T1, T2 = E1.B.action, E2.B.action
    commute = np.kron(T2, np.eye(d1, dtype=np.int64)) - np.kron(
        np.eye(d2, dtype=np.int64), T1.T)
    # the nonzero rows of killer are functionals whose common kernel is A2;
    # each must vanish on g a for every basis row a of A1
    killer = np.eye(d2, dtype=np.int64)
    killer[:, E2._pivots] -= E2.span.T
    K = killer[killer.any(axis=1)]
    M = np.vstack([commute, np.kron(K, E1.span)]) % p
    return la.solution_space_dim(M, d1 * d2, p)


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


def _chain_pole_split(t: LRTableau) -> tuple[Pole, LRTableau]:
    """Peel one minimal-ambient pole off an arbitrary tableau by chain
    subtraction: deepest available row per value, working downward."""
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
    pole = Pole(tuple(reversed(layers)), minimal_ambient(tuple(reversed(layers))))
    rest_chain = _subtract_chain(t.chain, pole_tableau(pole).chain)
    return pole, tb.from_chain(rest_chain)


def realize_tableau(t: LRTableau, p: int) -> Embedding:
    """Direct sum of graded poles and empty pickets realizing ``t``.

    Horizontal strips always succeed: each column-splitting piece of
    ``split_off_pole`` is realized as a graded pole.  Other tableaux are
    attempted by peeling minimal poles off the partition chain; tableaux
    with no pole-sum realization at all (they exist) are rejected.
    Leftover empty columns become empty pickets.  The result is
    re-verified to have tableau ``t``.
    """
    strip = tb.is_horizontal_strip(t.shape.beta, t.shape.gamma)
    parts = []
    rest = t
    while not rest.is_empty():
        if strip:
            piece, rest = split_off_pole(rest)
            parts.append(graded_pole_embedding(piece, p))
        else:
            pole, rest = _chain_pole_split(rest)
            parts.append(realize_pole(pole, p))
    for c in rest.columns:
        parts.append(Embedding(canonical_module((c.length,), p, shifts=[0]), []))
    if not parts:
        return Embedding(canonical_module((), p, shifts=[]), [])
    E = direct_sum(*parts)
    got = tableau_of_embedding(E)
    if got != t:
        raise ValueError(f"tableau is not a union of pole tableaux: got {got}")
    return E
