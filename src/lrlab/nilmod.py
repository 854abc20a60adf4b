"""Nilpotent modules and invariant-subspace embeddings over a prime field.

A module is a nilpotent square matrix acting on column vectors, with an
optional grading (degree per basis vector, raised by one by the action),
and a Jordan basis: given by the constructions that know one, computed
by ``jordan_basis`` otherwise.  An embedding is such a module together
with the reduced basis of an invariant subspace A.  In Jordan coordinates
ordered by position in block, then by block, T^k B is a tail of the
coordinates, so one echelon form of T^i A gives d[i][k] = dim(T^k B +
T^i A) for every k; that layer table yields the type of A, the chain of
types of B / T^i A and the entry counts.  Hom spaces and realizations
are exact linear algebra mod p too: a hom system is read by index off
the source subspace's module generators and the target's functionals in
Jordan coordinates, and from a source with a cyclic subspace a hom space
needs no system, only the rank of the target subspace's Jordan
coordinates outside a set of positions.  Every pole is realized
from its tableau by one generator formula (``pole_generator``), and a
tableau as one graded module with one such generator per pole piece
(``graded_pole_sum``).
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

from . import linalg as la
from . import partitions as pt
from . import tableaux as tb
from .errors import InvariantViolation
from .partitions import Partition
from .poles import (Picket, Pole, minimal_ambient, picket_tableau, pole_pieces,
                    pole_tableau)
from .tableaux import LRTableau


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


class _Jordan(NamedTuple):
    """A kept Jordan basis Q (see ``jordan_basis``) and its layer order:
    ``order`` lists the Jordan coordinates by position in block, then by
    block; in that order T moves the coordinate at ``shift[k]`` to k (the
    index one past the end reads 0), and T^k B is the coordinates from
    ``prefix[k]`` on."""

    sizes: tuple[int, ...]
    Q: la.Rows
    inverse: la.Rows
    order: list[int]
    shift: tuple[int, ...]
    prefix: list[int]


def _rows(M, p: int) -> la.Rows:
    """Any rows of integers (lists, tuples, arrays) as tuples of ints mod
    p; tuples already in [0, p) are kept as they are."""
    return tuple([row if type(row) is tuple and (not row or 0 <= min(row) <= max(row) < p)
                  else tuple([int(x) % p for x in row]) for row in M])


class NilModule:
    """A nilpotent action matrix over F_p, optionally graded.

    ``action`` is T as a tuple of rows; T acts on column vectors, so a row
    vector a maps to the row of T a (``image``).  The prime is bounded by
    dim * p**2 < 2**63 (dim taken as at least 1), an input contract that
    Python's unbounded ints no longer need.  ``basis`` is (block sizes, Q,
    Q^-1) for a Jordan basis Q as ``jordan_basis`` returns it; it is
    checked once and kept, and it stands in for the nilpotency check.
    Without it a basis and the kernels of the powers are computed on first
    use and kept; the action is immutable, so they never go stale.
    """

    __slots__ = ("p", "dim", "action", "grading", "_images", "_jordan", "_kernels")

    def __init__(self, p: int, action, grading=None, basis=None):
        # checked first, since it also keeps the trial division below 2**16
        if max(len(action), 1) * p * p >= 2**63:
            raise ValueError(f"p = {p} is too large for dimension {len(action)}:"
                             " need dim * p**2 < 2**63")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        T = _rows(action, p)
        n = len(T)
        if any(len(row) != n for row in T):
            raise ValueError("action matrix must be square")
        if basis is None:
            power = la.identity(n)
            for _ in range(n):
                power = la.mul(T, power, p)
            if any(map(any, power)):
                raise ValueError("action matrix is not nilpotent")
        images = tuple(zip(*T))  # the columns T e_j
        if grading is not None:
            grading = tuple(int(d) for d in grading)
            if len(grading) != n:
                raise ValueError("grading must assign a degree per basis vector")
            # column-major, so the first offending (i, j) is reported
            for j, column in enumerate(images):
                for i, x in enumerate(column):
                    if x and grading[i] != grading[j] + 1:
                        raise ValueError(
                            f"action does not raise degree by one at ({i},{j})")
        self.p = p
        self.dim = n
        self.action = T
        self.grading = grading
        self._images = images
        self._jordan = None
        self._kernels = {}
        if basis is not None:
            self._keep_basis(*basis)

    def _keep_basis(self, sizes, Q, inverse) -> None:
        """Keep Q with its layer order once it is checked to be a Jordan
        basis with these block sizes and this inverse."""
        sizes, n, p = tuple(sizes), self.dim, self.p
        Q, inverse = _rows(Q, p), _rows(inverse, p)
        fits = (all(b > 0 for b in sizes) and sum(sizes) == n
                and len(Q) == len(inverse) == n
                and all(len(row) == n for row in Q + inverse))
        if (not fits or la.mul(Q, inverse, p) != la.identity(n)
                or self.image(Q) != la.mul(_shift(sizes), Q, p)):
            raise InvariantViolation(
                f"not a Jordan basis with blocks {sizes} of this module")
        top, offsets = max(sizes, default=0), block_offsets(sizes)
        order = [o + j for j in range(top) for o, b in zip(offsets, sizes) if j < b]
        at = {q: k for k, q in enumerate(order)}
        self._jordan = _Jordan(sizes, Q, inverse, order,
                               tuple(n if q in offsets else at[q - 1] for q in order),
                               [sum(min(b, k) for b in sizes) for k in range(top + 1)])

    def image(self, rows) -> la.Rows:
        """The rows of T a for the row vectors a in ``rows``."""
        return la.mul(rows, self._images, self.p)

    def kernel(self, k: int) -> la.Rows:
        """Canonical (rref) row basis of ker T^k."""
        if k not in self._kernels:
            power = la.identity(self.dim)
            for _ in range(min(k, self.dim)):  # T^dim = 0
                power = la.mul(self.action, power, self.p)
            self._kernels[k] = la.null_space(power, self.p)
        return self._kernels[k]


def canonical_module(sizes, p: int, shifts=None) -> NilModule:
    """One Jordan block per size, in the order given (N_beta for sizes
    beta), the basis ordered block by block, generator first; it is its
    own Jordan basis.

    ``shifts`` optionally assigns a degree to each block generator, making
    the module graded.
    """
    if any(b <= 0 for b in sizes):
        raise ValueError(f"block sizes must be positive, got {sizes}")
    grading = (None if shifts is None
               else [d + j for d, b in zip(shifts, sizes) for j in range(b)])
    identity = la.identity(sum(sizes))
    return NilModule(p, tuple(zip(*_shift(sizes))), grading,
                     basis=(sizes, identity, identity))


def _shift(sizes) -> la.Rows:
    """The action c -> c J on Jordan coordinates in block order: each
    coordinate moves one position on in its block, the last one out."""
    n, ends = sum(sizes), {o + b - 1 for o, b in zip(block_offsets(sizes), sizes)}
    I, zero = la.identity(n), (0,) * n
    return tuple(zero if i in ends else I[i + 1] for i in range(n))


def block_offsets(beta: Partition) -> list[int]:
    out = [0]
    for b in beta:
        out.append(out[-1] + b)
    return out[:-1]


def jordan_type(M: NilModule) -> Partition:
    """Partition of Jordan block sizes, sorted from ``jordan_basis``."""
    return tuple(sorted(jordan_basis(M)[0], reverse=True))


def jordan_basis(M: NilModule) -> tuple[tuple[int, ...], la.Rows]:
    """Block sizes and a Jordan basis Q of M, kept on M.

    The rows of Q are g_1, T g_1, ..., g_2, T g_2, ..., so a = c Q gives
    the Jordan coordinates c of a.  A module built with its basis keeps
    it, sizes in its block order.  Otherwise the basis is computed here,
    sizes nonincreasing: the generators of the size-b blocks are rref rows
    of a complement of ker T^(b-1) + T ker T^(b+1) in ker T^b, and by
    induction from the top their chains reach a basis of every
    ker T^l / ker T^(l-1).
    """
    if M._jordan is None:
        p = M.p
        top = 0
        while len(M.kernel(top)) < M.dim:
            top += 1
        sizes, Q = [], []
        for b in range(top, 0, -1):
            lower, pivots = la.rref(M.kernel(b - 1) + M.image(M.kernel(b + 1)), p)
            gens = la.row_space(
                [la.reduce_vec(v, lower, pivots, p) for v in M.kernel(b)], p)
            for g in gens:
                sizes.append(b)
                for _ in range(b):
                    Q.append(g)
                    (g,) = M.image([g])
        # [Q | I] reduces to [I | Q^-1]
        R, _ = la.rref([q + e for q, e in zip(Q, la.identity(M.dim))], p)
        M._keep_basis(sizes, Q, [row[M.dim:] for row in R])
    return M._jordan.sizes, M._jordan.Q


def _jordan(M: NilModule) -> _Jordan:
    if M._jordan is None:
        jordan_basis(M)
    return M._jordan


def invariant_closure(B: NilModule, vectors) -> tuple[la.Rows, list[int]]:
    """Canonical (rref) basis and pivots of the smallest invariant
    subspace of B containing ``vectors``.

    The images of the basis rows are reduced modulo the span in one step
    (see ``la.reduce_vec``); the span grows only by a nonzero residue, so
    a span that is already invariant costs one ``rref``.
    """
    p = B.p
    rows = _rows(vectors, p)
    if any(len(row) != B.dim for row in rows):
        raise ValueError("subspace vectors have the wrong length")
    span, pivots = la.rref(rows, p)
    while True:
        residue = tuple(la.reduce_vec(v, span, pivots, p) for v in B.image(span))
        if not any(map(any, residue)):
            return span, pivots
        span, pivots = la.rref(span + residue, p)


class Embedding:
    """An invariant subspace A inside the module B.

    ``span`` is the canonical (rref) row basis of A, a tuple of row
    tuples and so its own dictionary key; the constructor
    closes the given vectors under the action, so they may be just
    generators.  The layer table (with alpha and the chain), the tableau,
    A's module generators and the functionals killing A (both in Jordan
    coordinates, for ``hom_dim``) and, for a cyclic A, the blocks of its
    generator are computed on first use and kept.
    """

    __slots__ = ("B", "span", "_pivots", "_layers", "_tableau", "_gens",
                 "_killers", "_generator")

    def __init__(self, B: NilModule, vectors):
        self.B = B
        self.span, self._pivots = invariant_closure(B, vectors)
        self._layers = None
        self._tableau = None
        self._gens = None
        self._killers = None
        self._generator = None

    @property
    def p(self) -> int:
        return self.B.p

    def dim_sub(self) -> int:
        return len(self.span)

    def _table(self):
        """alpha, the chain and d[i][k] = dim(T^k B + T^i A) for i up to
        alpha_1 and k up to beta_1, computed once.

        In B's Jordan coordinates in layer order, T^k B is the coordinates
        from prefix[k] on, so d[i][k] is dim T^k B plus the pivots of the
        echelon form of T^i A before prefix[k].  Stage i of the chain,
        B / T^i A, has dim T^k(B / T^i A) = d[i][k] - dim T^i A.
        """
        if self._layers is None:
            J, p, n = _jordan(self.B), self.p, self.B.dim
            C = [[c[q] for q in J.order] for c in jordan_coordinates(self)]
            dims, table = [], []
            while any(map(any, C)):
                R, pivots = la.rref(C, p)
                dims.append(len(pivots))
                table.append(tuple(n - s + bisect_left(pivots, s) for s in J.prefix))
                C = [[row[s] for s in J.shift] for row in (r + (0,) for r in R)]
            dims.append(0)
            table.append(tuple(n - s for s in J.prefix))
            chain = tuple(_type_from_ranks([x - a for x in row])
                          for row, a in zip(table, dims))
            self._layers = _type_from_ranks(dims), chain, tuple(table)
        return self._layers

    @property
    def alpha(self) -> Partition:
        return self._table()[0]

    def chain(self) -> tuple[Partition, ...]:
        return self._table()[1]

    @property
    def gamma(self) -> Partition:
        return self.chain()[0]

    @property
    def beta(self) -> Partition:
        return jordan_type(self.B)

    def contains(self, v) -> bool:
        return la.in_space(v, self.span, self._pivots, self.p)

    def to_json(self) -> dict:
        data = {
            "p": self.p,
            "beta": list(self.beta),
            "T": [list(row) for row in self.B.action],
            "A_span": [list(row) for row in self.span],
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


def _type_from_ranks(ranks) -> Partition:
    """Jordan type whose k-th power has rank ranks[k], the last rank 0:
    ranks[k-1] - ranks[k] blocks have size at least k."""
    return pt.transpose(pt.partition(a - b for a, b in zip(ranks, ranks[1:])))


def tableau_of_embedding(E: Embedding) -> LRTableau:
    """Chain of types of B / (action^i A), assembled into a tableau and
    kept on E."""
    if E._tableau is None:
        E._tableau = tb.from_chain(list(E.chain()))
    return E._tableau


def mu_entries(E: Embedding, ell: int, r: int) -> int:
    """Number of entries ``ell`` in row ``r`` of the embedding's tableau,
    computed from subspace dimensions rather than from the tableau: with
    d[i][k] = dim(T^k B + T^i A) from the layer table, it is
    (d[ell-1][r] - d[ell][r]) - (d[ell-1][r-1] - d[ell][r-1])."""
    if ell < 1 or r < 1:
        raise ValueError("ell and r are 1-based")
    d = E._table()[2]

    def at(i: int, k: int) -> int:
        # T^i A = 0 past alpha_1 and T^k B = 0 past beta_1
        row = d[min(i, len(d) - 1)]
        return row[min(k, len(row) - 1)]

    return at(ell - 1, r) - at(ell, r) - at(ell - 1, r - 1) + at(ell, r - 1)


def jordan_coordinates(E: Embedding) -> la.Rows:
    """A's basis rows in B's Jordan coordinates (c = a Q^-1), block by
    block, each block from its generator on."""
    return la.mul(E.span, _jordan(E.B).inverse, E.p)


def coordinate_meet_dim(coords, outside, p: int) -> int:
    """dim(A  intersect  U) for the row space A of ``coords`` (independent
    rows) and U the coordinate subspace on every position not in
    ``outside``: U is the kernel of the projection onto ``outside``, so
    the meet has dim A less the rank of A's coordinates there."""
    return len(coords) - la.rank([[c[i] for i in outside] for c in coords], p)


def invariant_intersection_dim(E: Embedding, r: int, s: int) -> int:
    """dim(A  intersect  T^r B  intersect  ker T^s).

    In Jordan coordinates T^r B and ker T^s are the positions at least r
    and at least b - s in each block of size b, so the intersection is a
    ``coordinate_meet_dim`` outside the positions below both.
    """
    J = _jordan(E.B)
    outside = [o + j for o, b in zip(block_offsets(J.sizes), J.sizes)
               for j in range(min(max(r, b - s), b))]
    return coordinate_meet_dim(jordan_coordinates(E), outside, E.p)


def direct_sum(*embeddings: Embedding) -> Embedding:
    """Block-diagonal direct sum; gradings concatenate when all present,
    and the Jordan bases of the summands make its Jordan basis."""
    if not embeddings:
        raise ValueError("need at least one summand")
    p = embeddings[0].p
    if any(e.p != p for e in embeddings):
        raise ValueError("summands live over different fields")
    total = sum(e.B.dim for e in embeddings)
    T, Q, inverse, spans = [], [], [], []
    sizes, off = [], 0
    for e in embeddings:
        J = _jordan(e.B)
        left, right = (0,) * off, (0,) * (total - off - e.B.dim)
        for out, rows in zip((T, Q, inverse, spans),
                             (e.B.action, J.Q, J.inverse, e.span)):
            out.extend(left + row + right for row in rows)
        sizes.extend(J.sizes)
        off += e.B.dim
    gradings = (None if any(e.B.grading is None for e in embeddings)
                else [d for e in embeddings for d in e.B.grading])
    return Embedding(NilModule(p, T, gradings, basis=(sizes, Q, inverse)), spans)


def hom_dim(E1: Embedding, E2: Embedding) -> int:
    """Dimension of the space of embedding morphisms E1 -> E2.

    A module map g is fixed by the images x_i in ker T2^(b_i) of the
    generators of E1's Jordan blocks (``jordan_basis``), and it maps A1
    into A2 when it maps A1's module generators a there (``_generators``,
    len(alpha1) of them, in E1's Jordan coordinates).  In E2's Jordan
    coordinates ker T2^b is the positions q >= c - b of each block of
    size c, and T2 moves position q to q + 1; so for a functional k
    killing A2 (``_functionals``) the unknown x_i at position q of the
    block at offset o2 enters k g(a) with the coefficient
    sum_j a[o_i + j] k[o2 + q + j] over j < c - q.  That is
    sum_i dim ker T2^(b_i) unknowns and len(alpha1) * codim A2 equations.
    """
    if E1.p != E2.p:
        raise ValueError("embeddings live over different fields")
    sources, targets = _jordan(E1.B).sizes, _jordan(E2.B).sizes
    unknowns = [(o, o2 + q, o2 + c)  # x_i at q: a from o, k from o2 + q to o2 + c
                for o, b in zip(block_offsets(sources), sources)
                for o2, c in zip(block_offsets(targets), targets)
                for q in range(max(c - b, 0), c)]
    M = [[sum(map(operator.mul, a[o:o + end - start], k[start:end]))
          for o, start, end in unknowns]
         for a in _generators(E1) for k in _functionals(E2)]
    return len(unknowns) - la.rank(M, E1.p)


def _generators(E: Embedding) -> la.Rows:
    """Module generators of A in B's Jordan coordinates, kept on E: the
    rows of the echelon form of A whose pivots are not pivots of T A.
    They are independent modulo T A, and there are dim A - dim T A =
    len(alpha) of them."""
    if E._gens is None:
        p = E.p
        R, pivots = la.rref(jordan_coordinates(E), p)
        shifted = la.rref(la.mul(R, _shift(_jordan(E.B).sizes), p), p)[1]
        E._gens = tuple(r for r, c in zip(R, pivots) if c not in shifted)
    return E._gens


def _functionals(E: Embedding) -> list[list[int]]:
    """A basis of the functionals killing A in B's Jordan coordinates
    (``la.annihilator``), kept on E."""
    if E._killers is None:
        E._killers = la.annihilator(*la.rref(jordan_coordinates(E), E.p), E.B.dim, E.p)
    return E._killers


def generator_blocks(C: Embedding) -> tuple[tuple[int, int], ...] | None:
    """(b_i, j_i) for every Jordan block i of C's module when A is cyclic,
    None when A needs two or more generators; kept on C.

    b_i is the block size and j_i the lowest nonzero Jordan coordinate of
    a generator a of A (``_generators``) in that block, or b_i where a
    vanishes.  A is cyclic when dim A - dim TA <= 1, so A = 0 counts.  The
    generators of a cyclic A are u(T) a for the polynomials u with a unit
    constant term, so every generator gives the same j_i.
    """
    if len(C.alpha) > 1:
        return None
    if C._generator is None:
        sizes = _jordan(C.B).sizes
        a = next(iter(_generators(C)), (0,) * C.B.dim)
        C._generator = tuple((b, _lowest(a[o:o + b], b))
                             for o, b in zip(block_offsets(sizes), sizes))
    return C._generator


def _lowest(row, empty: int) -> int:
    return next((j for j, x in enumerate(row) if x), empty)


@lru_cache(maxsize=4096)
def hom_positions(blocks, sizes) -> tuple[int, tuple[int, ...]]:
    """(base, outside) for a cyclic source C with ``generator_blocks``
    ``blocks`` and a target E whose Jordan blocks have ``sizes``, in
    order: dim Hom(C, E) is base plus the ``coordinate_meet_dim`` of E's
    ``jordan_coordinates`` outside ``outside``.

    A map g is free on the images x_i in ker T^b_i of C's block
    generators, and g(A_C) <= A_E holds exactly when g(a) lies in A_E.  A
    polynomial in T with a unit constant term is invertible on ker T^b, so
    g -> g(a) has image U = sum_i T^j_i ker T^b_i, in a target block of
    size c the positions from max(j_i, c - b_i + j_i) on.  Hence
    dim Hom(C, E) = sum_i dim ker T^b_i - |U| + dim(A_E  intersect  U).
    Kept by these values for the last 4096 pairs.
    """
    base, outside = 0, []
    for o, c in zip(block_offsets(sizes), sizes):
        start = min([c] + [max(j, c - b + j) for b, j in blocks])
        base += sum(min(b, c) for b, _ in blocks) - (c - start)
        outside.extend(range(o, o + start))
    return base, tuple(outside)


def picket_embedding(i: int, ell: int, p: int) -> Embedding:
    """The embedding (soc^i <= P^ell): the picket P^ell_min(i, ell) as a
    one-column pole, its generator in degree 0."""
    return graded_pole_embedding(picket_tableau(Picket(ell, min(i, ell))), p)


def realize_picket(n: int, m: int, p: int) -> Embedding:
    """P^n_m as an embedding: subspace generated by T^{n-m}."""
    Picket(n, m)
    return picket_embedding(m, n, p)


def picket_hom_profile(E: Embedding, max_i: int, max_ell: int) -> list[list[int]]:
    """profile[i][ell-1] = hom_dim(E, P_i^ell) for 0 <= i <= max_i, read off
    the chain: by the adjunction identity it is the sum of min(x, ell)
    over the parts x of B / T^i A (B itself once T^i A = 0)."""
    chain = E.chain()
    return [
        [sum(min(x, ell) for x in chain[min(i, len(chain) - 1)])
         for ell in range(1, max_ell + 1)]
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


def pole_generator(columns) -> list[int]:
    """Coordinates of the generator a of the pole whose tableau has these
    columns, in their blocks taken in order.

    Each entry 1..k must occur once and each column must hold a run of
    consecutive entries.  A column of length b and base x whose run
    starts at e contributes the term T^{x-e+1} g^b, so T^{e-1} a reaches
    radical layer x there; an empty column contributes nothing.
    """
    entries = sorted(e for c in columns for e in c.entries)
    if entries != list(range(1, len(entries) + 1)):
        raise ValueError(f"entries {entries} are not 1..k, each once")
    a = [0] * sum(c.length for c in columns)
    off = 0
    for c in columns:
        if c.entries:
            e = c.entries[0]
            if c.entries != tuple(range(e, e + len(c.entries))):
                raise ValueError(f"{c} does not hold a run of consecutive entries")
            if c.base < e - 1:
                raise ValueError(f"entry {e} of {c} lies above row {e}")
            a[off + c.base - e + 1] = 1
        off += c.length
    return a


def graded_pole_module(pieces, p: int, degrees) -> tuple[NilModule, list[list[int]]]:
    """Module and generator rows of the graded poles whose tableaux have
    the column groups ``pieces``: their columns in order, one
    ``pole_generator`` row per piece, of degree ``degrees[i]``."""
    sizes = [c.length for cols in pieces for c in cols]
    gens, shifts, off = [], [], 0
    for cols, d in zip(pieces, degrees):
        a = pole_generator(cols)
        gens.append([0] * off + a + [0] * (sum(sizes) - off - len(a)))
        # a term T^c g^b, the block's only nonzero at index c, puts g^b in
        # degree d - c; an empty block sits in degree d
        lengths = [c.length for c in cols]
        shifts += [d - _lowest(a[o:o + b], 0)
                   for o, b in zip(block_offsets(lengths), lengths)]
        off += len(a)
    return canonical_module(sizes, p, shifts=shifts), gens


def graded_pole_sum(pieces, p: int, shift: int = 0) -> Embedding:
    """Graded sum of the poles whose tableaux have the column groups
    ``pieces``: the subspace of ``graded_pole_module`` spanned by its
    generators, all of degree ``shift``."""
    return Embedding(*graded_pole_module(pieces, p, [shift] * len(pieces)))


def graded_pole_embedding(t: LRTableau, p: int, shift: int = 0) -> Embedding:
    """Graded realization of the pole tableau t: the subspace generated by
    ``pole_generator(t.columns)``, homogeneous of degree ``shift``."""
    return graded_pole_sum([t.columns], p, shift)


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

    Horizontal strips always succeed: ``pole_pieces`` cuts their columns
    into pole column groups.  Other tableaux are attempted by peeling
    minimal poles off the partition chain; tableaux with no pole-sum
    realization at all (they exist) are rejected.  The groups and the
    empty leftover columns make one ``graded_pole_sum``, re-verified on chains.
    """
    if tb.is_horizontal_strip(t.shape.beta, t.shape.gamma):
        pieces = pole_pieces(t.columns)
    else:
        pieces, rest = [], t
        while not rest.is_empty():
            piece, rest = _chain_pole_split(rest)
            pieces.append(piece.columns)
        pieces.append(rest.columns)
    E = graded_pole_sum(pieces, p)
    if E.chain() != t.chain:
        raise ValueError("tableau is not a union of pole tableaux: got "
                         f"{tb.from_chain(list(E.chain()))}")
    E._tableau = t
    return E
