"""Nilpotent modules and invariant-subspace embeddings over a prime field.

There is one module representation: N_beta = sum of k[T]/(T^b) over the
block sizes b (``NilModule``, also named ``canonical_module``), built
from its sizes in its own Jordan coordinates and kept as tables of
them: T is a gather, each coordinate moving one place down its block,
and T as a matrix is built only when it is read; the kernels of its
powers are read off the sizes, and a direct sum is the module of the
concatenated sizes.  An action given in some other basis enters only
through ``Embedding.from_json``, which converts it once, at that
boundary: ``jordan_basis`` finds the block sizes, a Jordan basis Q and
Q^-1, and the subspace moves to Jordan coordinates; the caller's T,
grading and subspace are kept only to be printed back.

An embedding is a module together with a basis of an invariant
subspace A.  In Jordan coordinates ordered by position in block, then by
block (layer order), T^k B is a tail of the coordinates, so the pivots
of one echelon form of T^i A give d[i][k] = dim(T^k B + T^i A) for every
k; that layer table yields the type of A, the chain of types of
B / T^i A and the entry counts.  So an embedding keeps a basis of A in
layer order whose rows have distinct leads, A's pivots, and its table
from when it is built.  One walk takes every table (``_walk``): it
takes, level by level, the orbits of vectors that generate A as a
module.  In layer order T is a partial shift that keeps the order of the
coordinates it keeps, so an orbit vector's lead is read off its
parent's whenever T keeps that one.  When the leads are distinct, as in
the realization of every strip tableau with |beta| <= 12, the orbit
vectors are already a basis with distinct leads.  When two coincide, as
in the witness's middle term, whose generator carries a cross term, the
levels are walked from the deepest up, and a vector whose lead is taken
is reduced at the kept leads, in lead order, so that its lead is new
unless it vanishes.  Either way the pivots of T^i A are the kept leads
of the levels from i on, and the table is read off them with no echelon
form taken.  Closing given vectors (``Embedding``) walks their orbits.
The census hands over the layer-order echelon forms of invariant spans
(``_from_echelon``), and the walk takes the orbits of the form's
generator rows: those whose pivot T does not reach from another pivot,
which span A modulo T A.  The same reduction at the kept leads
(``linalg.reduce_vec``) decides membership (``Embedding.contains``), so
A's echelon form is derived only when it is first read, and whether T
keeps a span of rows with distinct leads (``_maps_into_itself``): the
one invariance test, which the census's dual side takes too.
The canonical basis of A in block order, which JSON, hom spaces,
fingerprints and the witness read, is derived from the layer-order
echelon form when first read, by the one permutation that takes layer
order back to block order (``_block_places``).
Hom spaces and realizations are exact linear algebra mod p too: dim
Hom(C, E) is the number of maps of C's block generators into E's kernels
less the rank of their images on C's subspace generators, each image
reduced modulo E's subspace, and from a source with a cyclic subspace a
hom space needs only the rank of the target subspace's coordinates
outside a set of positions.  Every pole is realized from its
tableau by one generator formula (``pole_generator``).  A picket, a
pole and a tableau are each one graded module with one such generator
per pole piece (``graded_pole_module``), and the embedding is the
subspace those generators span.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import compress

from . import linalg as la
from . import partitions as pt
from . import tableaux as tb
from .errors import GuardExceeded, InvariantViolation, guard_budget
from .partitions import Partition
from .poles import (Picket, Pole, minimal_ambient, picket_tableau, pole_pieces,
                    pole_tableau)
from .tableaux import LRTableau


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def _rows(M, p: int) -> la.Rows:
    """Any rows of integers (lists, tuples, arrays) as tuples of ints mod
    p; tuples already in [0, p) are kept as they are."""
    return tuple([row if type(row) is tuple and (not row or 0 <= min(row) <= max(row) < p)
                  else tuple([int(x) % p for x in row]) for row in M])


def _vectors(vectors, n: int, p: int) -> la.Rows:
    """``_rows`` of subspace vectors, each checked to have length n."""
    rows = _rows(vectors, p)
    if any(len(row) != n for row in rows):
        raise ValueError("subspace vectors have the wrong length")
    return rows


class NilModule:
    """N_beta over F_p for block sizes beta, in the order given: one
    Jordan block per size, the basis ordered block by block, generator
    first, so the module is its own Jordan basis.

    T acts on column vectors, so a row vector a maps to the row of T a.
    ``shifts`` optionally assigns a degree to each block generator,
    making the module graded.  The prime is bounded by
    dim * p**2 < 2**63 (dim taken as at least 1), an input contract that
    Python's unbounded ints no longer need.  The module keeps only tables
    of its sizes: ``_moves``, where moves[j] is the coordinate that T
    moves into j, dim at a block start, and the layer order ``_order`` of
    ``_layer_order``.  Beside the layer order it keeps ``_layered``, which
    takes a row to layer order, the gather ``_step`` of T on rows in layer
    order (``layer_image``), and ``_to``, where T moves each coordinate it
    keeps in layer order: to[shift[k]] = k.  ``action``, T as a tuple of
    rows, is built from ``_moves`` when it is read.  The grading is d + j
    at place j of a block of degree d, which T raises by one by
    construction.  The checks run on the tables: the prime, one degree per
    block, and the moves against the layer walk, T moving into the
    coordinate order[k] the one at (order + [dim])[shift[k]] for every k.
    """

    __slots__ = ("p", "dim", "sizes", "grading", "_moves", "_order",
                 "_layered", "_step", "_to")

    def __init__(self, sizes, p: int, shifts=None):
        given, sizes = sizes, tuple(sizes)  # sizes may be a one-shot iterable
        if any(b <= 0 for b in sizes):
            raise ValueError("block sizes must be positive, got"
                             f" {given if isinstance(given, list) else sizes}")
        n = sum(sizes)
        _check_field(p, n)
        moves = []
        for o, b in zip(block_offsets(sizes), sizes):
            moves += [n, *range(o, o + b - 1)]
        self.p, self.dim, self.sizes, self._moves = p, n, sizes, moves
        if shifts is not None and len(shifts) != len(sizes):
            raise ValueError("grading must assign a degree per block")
        self.grading = (None if shifts is None else
                        tuple([int(d) + j for d, b in zip(shifts, sizes) for j in range(b)]))
        order, shift, _ = self._order = _layer_order(sizes)
        # in layer order T moves the coordinate at shift[k] to k, n reading 0
        ends = order + [n]
        if [moves[j] for j in order] != [ends[s] for s in shift]:
            _not_a_basis(sizes)
        self._layered, self._step = _picker(order), _picker(shift)
        to = self._to = dict(zip(shift, range(n)))
        to.pop(n, None)

    @property
    def action(self) -> la.Rows:
        """T as a tuple of rows, built from ``_moves`` on each read: row j
        is 0 at a block start and the unit row at moves[j] elsewhere."""
        n = self.dim
        I, zero = la.identity(n), (0,) * n
        return tuple([zero if m == n else I[m] for m in self._moves])

    def layer_image(self, rows) -> list[tuple[int, ...]]:
        """The rows of T a for the row vectors a in ``rows``, in layer
        order, entries in [0, p)."""
        step = self._step
        return [step((*row, 0)) for row in rows]

    def kernel(self, k: int) -> la.Rows:
        """Canonical (rref) row basis of ker T^k: the unit rows at
        positions b - k on of each block of size b."""
        I = la.identity(self.dim)
        return tuple(I[q] for o, b in zip(block_offsets(self.sizes), self.sizes)
                     for q in range(o + max(b - k, 0), o + b))


# N_beta under the name the constructions use
canonical_module = NilModule


def _check_field(p: int, n: int) -> None:
    """The input contract on the prime of a module of dimension n."""
    # checked first, since it also keeps the trial division below 2**16
    if max(n, 1) * p * p >= 2**63:
        raise ValueError(f"p = {p} is too large for dimension {n}:"
                         " need dim * p**2 < 2**63")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def _graded(grading, n: int, nonzeros) -> tuple[int, ...]:
    """A caller's grading of a caller's T (``Embedding.from_json``) as a
    tuple of ints, checked to be raised by one by T at every nonzero
    entry (i, j) of T; they come column-major, so the first offending
    (i, j) is reported."""
    grading = tuple(int(d) for d in grading)
    if len(grading) != n:
        raise ValueError("grading must assign a degree per basis vector")
    for i, j in nonzeros:
        if grading[i] != grading[j] + 1:
            raise ValueError(f"action does not raise degree by one at ({i},{j})")
    return grading


def _picker(indices):
    """The entries of a row at ``indices``, as a tuple: an itemgetter,
    which returns a bare entry for one index and cannot take none."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda row: (row[i],)
    return lambda row: ()


def _not_a_basis(sizes) -> None:
    raise InvariantViolation(f"not a Jordan basis with blocks {sizes} of this module")


def _layer_order(sizes) -> tuple[list[int], tuple[int, ...], list[int]]:
    """The Jordan coordinates by position in block, then by block
    (``order``); in that order T moves the coordinate at ``shift[k]`` to
    k (the index one past the end reads 0), and T^k B is the coordinates
    from ``prefix[k]`` on.  Each block carries the index its coordinate
    got in the previous layer, which is where T moves its next one from."""
    n = sum(sizes)
    blocks = [(o, b, n) for o, b in zip(block_offsets(sizes), sizes)]
    order, shift, prefix = [], [], [0]
    for j in range(max(sizes, default=0)):
        alive = []
        for o, b, below in blocks:
            if j < b:
                alive.append((o, b, len(order)))
                order.append(o + j)
                shift.append(below)
        blocks = alive
        prefix.append(len(order))
    return order, tuple(shift), prefix


def _block_places(B: NilModule) -> list[int]:
    """back[q], the place of block coordinate q in B's layer order: a row
    in layer order picked at back is in block order."""
    return sorted(range(B.dim), key=B._order[0].__getitem__)


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
    """Partition of Jordan block sizes, the module's sizes sorted."""
    return tuple(sorted(M.sizes, reverse=True))


def jordan_basis(action: la.Rows, p: int) -> tuple[tuple[int, ...], la.Rows, la.Rows]:
    """Block sizes, a Jordan basis Q and Q^-1 of the action T, given as
    square rows with entries in [0, p) that act on column vectors as in
    ``NilModule``; ValueError when T is not nilpotent.

    The kernels of the powers of T are computed until ker T^k stops
    growing, which it does at the whole space exactly when T is nilpotent.
    The rows of Q are g_1, T g_1, ..., g_2, T g_2, ..., so a = c Q gives
    the Jordan coordinates c of a, sizes nonincreasing: the generators of
    the size-b blocks are rref rows of a complement of ker T^(b-1) +
    T ker T^(b+1) in ker T^b, and by induction from the top their chains
    reach a basis of every ker T^l / ker T^(l-1).
    """
    n, columns = len(action), tuple(zip(*action))

    def image(rows):
        return la.mul(rows, columns, p)

    kernels, power = [()], la.identity(n)  # ker T^0 = 0
    while len(kernels[-1]) < n:
        power = la.mul(action, power, p)
        kernels.append(la.null_space(power, p))
        if len(kernels[-1]) == len(kernels[-2]):
            raise ValueError("action matrix is not nilpotent")
    kernels.append(kernels[-1])  # ker T^(top+1) = ker T^top
    sizes, Q = [], []
    for b in range(len(kernels) - 2, 0, -1):
        lower, pivots = la.rref(kernels[b - 1] + image(kernels[b + 1]), p)
        gens = la.row_space([la.reduce_vec(v, lower, pivots, p) for v in kernels[b]], p)
        for g in gens:
            sizes.append(b)
            for _ in range(b):
                Q.append(g)
                (g,) = image([g])
    # [Q | I] reduces to [I | Q^-1]
    R, _ = la.rref([q + e for q, e in zip(Q, la.identity(n))], p)
    return tuple(sizes), tuple(Q), tuple(row[n:] for row in R)


def _check_basis(action: la.Rows, p: int, sizes, Q, inverse) -> None:
    """InvariantViolation unless Q is a Jordan basis of the action with
    these block sizes and this inverse: Q Q^-1 = I and T moves each row of
    Q to the next one in its block (the shift of the sizes)."""
    n = len(action)
    fits = (all(b > 0 for b in sizes) and sum(sizes) == n
            and len(Q) == len(inverse) == n
            and all(len(row) == n for row in Q + inverse))
    if (not fits or la.mul(Q, inverse, p) != la.identity(n)
            or la.mul(Q, tuple(zip(*action)), p) != la.mul(_shift(sizes), Q, p)):
        _not_a_basis(sizes)


def invariant_closure(B: NilModule, vectors) -> tuple[la.Rows, list[int], list[int],
                                                     list[tuple[int, ...]]]:
    """A basis in B's layer order (``_layer_order``) of the smallest
    invariant subspace A of B containing ``vectors``, given in block
    order, its rows sorted by their distinct leads, and those leads, the
    pivots of A; and the dims and the rows of A's layer table
    (``_layers``) up to the last nonzero T^i A.

    The closure is spanned by the orbits v, T v, T^2 v, ... of the given
    vectors, each taken until it vanishes: the nonzero vectors, taken to
    layer order with their leads, are walked (``_walk``), and when the
    orbit vectors' leads are distinct, as in every strip realization,
    they are the kept basis and no vector is reduced.  No echelon form is
    taken.  The kept basis is checked invariant by one fresh image of its
    rows (``_maps_into_itself``); a span that T does not keep raises
    ``InvariantViolation``.
    """
    rows = _vectors(vectors, B.dim, B.p)
    n, every, level, leads = B.dim, range(B.dim), [], []
    for v in map(B._layered, rows):
        c = next(compress(every, v), n)
        if c < n:
            level.append(v)
            leads.append(c)
    at, stages = _walk(B, level, leads)
    if not _maps_into_itself(B, at):
        _not_invariant(B, rows)
    pivots = stages[0] if stages else []
    return (tuple(map(at.__getitem__, pivots)), pivots, *_stage_rows(B, stages))


def _walk(B: NilModule, level: list[tuple[int, ...]],
          leads: list[int]) -> tuple[dict[int, tuple[int, ...]], list[list[int]]]:
    """The span A of the orbits of the nonzero rows ``level`` in B's layer
    order, with their ``leads``: a basis of A by its distinct leads, and
    the pivots of T^i A for each i from 0 while T^i A is nonzero.

    The orbits are kept as levels, level k holding the nonzero T^k v, so
    T^i A is spanned by the levels from i on (``_orbit_levels``).  The
    levels are walked from the deepest up: a vector whose lead is new is
    kept as it is, and one whose lead is taken is reduced at the kept
    leads, in lead order (``la.reduce_vec``), so that its lead is new
    unless it vanishes.  So after level i the kept vectors are a basis
    of T^i A with distinct leads, whose leads are its pivots, and they
    give dims[i] = dim T^i A and, by bisection on the layer prefixes,
    table row i (``_stage_rows``).
    """
    levels, level_leads = _orbit_levels(B, level, leads)
    at, stages, n, p = {}, [], B.dim, B.p  # the kept vectors by their leads
    for level, leads in zip(reversed(levels), reversed(level_leads)):
        for v, c in zip(level, leads):
            if c in at:
                kept = sorted(at)
                v = la.reduce_vec(v, map(at.__getitem__, kept), kept, p)
                c = next(compress(range(n), v), n)
                if c == n:
                    continue
            at[c] = v
        stages.append(sorted(at))
    return at, stages[::-1]


def _orbit_levels(B: NilModule, level: list[tuple[int, ...]],
                  leads: list[int]) -> tuple[list[list[tuple[int, ...]]], list[list[int]]]:
    """The orbits of the nonzero rows ``level`` in B's layer order, with
    their ``leads``, as levels, level k holding the nonzero T^k v, and
    the leads of each level's vectors.  In layer order T keeps the order
    of the coordinates it keeps (``NilModule._to``), so the image of a
    vector whose lead c T keeps has its lead at to[c], where it holds the
    entry the vector had at c; only the other images take a scan, and
    those that vanish are dropped."""
    n, to, every = B.dim, B._to, range(B.dim)
    levels, level_leads = [], []
    while level:
        levels.append(level)
        level_leads.append(leads)
        images, parents, level, leads = B.layer_image(level), leads, [], []
        for w, c in zip(images, parents):
            c = to.get(c)
            if c is None or not w[c]:
                c = next(compress(every, w), n)
                if c == n:
                    continue
            level.append(w)
            leads.append(c)
    return levels, level_leads


def _stage_rows(B: NilModule, stages) -> tuple[list[int], list[tuple[int, ...]]]:
    """The dims of T^i A and the rows d[i] of the layer table from the
    pivots of the echelon forms of T^i A in layer order, one list per
    stage: T^k B is the coordinates from prefix[k] on, so d[i][k] is
    dim T^k B plus the pivots of T^i A before prefix[k]."""
    n, prefix = B.dim, B._order[2]
    return ([len(pivots) for pivots in stages],
            [tuple([n - s + bisect_left(pivots, s) for s in prefix]) for pivots in stages])


def _maps_into_itself(B: NilModule, at: dict[int, tuple[int, ...]]) -> bool:
    """Whether T keeps the span of the rows in B's layer order that ``at``
    holds by their distinct leads: whether T maps each of them to 0, to
    the row with its lead, found as in ``_orbit_levels``, or to a row that
    reduces to 0 at the kept leads (``la.reduce_vec``), so that T maps
    a basis into the span.  The images are taken afresh."""
    n, to, every = B.dim, B._to, range(B.dim)
    for c, w in zip(at, B.layer_image(at.values())):
        c = to.get(c)
        if c is None or not w[c]:
            c = next(compress(every, w), n)
            if c == n:
                continue
        if w != at.get(c):
            kept = sorted(at)
            if any(la.reduce_vec(w, map(at.__getitem__, kept), kept, B.p)):
                return False
    return True


def _not_invariant(B: NilModule, rows) -> None:
    raise InvariantViolation(f"the orbits of {[list(v) for v in rows]} in the module"
                             f" of blocks {list(B.sizes)} over F_{B.p} do not span"
                             " an invariant subspace")


class Embedding:
    """An invariant subspace A inside the module B.

    The embedding keeps a basis of A in B's layer order (``_layer_order``)
    whose rows have distinct leads, sorted, and those leads, A's pivots
    (``_leads``).  The constructor closes the given vectors under the
    action there (``invariant_closure``), so they may be just generators,
    and keeps the layer table that the closure read off the pivots of
    every T^i A on the way: alpha, the chain and d (``_layers``).  The
    kept basis is the orbit basis, each vector whose lead was taken reduced
    at the kept leads (``la.reduce_vec``), and membership (``contains``,
    the same reduction) and map images (``map_image``) read it as it is.
    The canonical (rref) row basis of A in layer order, ``_echelon``, is
    derived from it on first read (one ``rref``, its pivots checked to be
    the leads) and kept in its place.  An embedding of the census
    (``_from_echelon``) is handed A's echelon form and takes its table at
    once, by the same walk over the orbits of that form's generator rows.
    ``span``, the canonical row basis of A in block order, a tuple of row
    tuples and so its own dictionary key, and its pivots are derived from
    the echelon form on first read (``_derive_span``: one permutation and
    one ``rref``) and kept.  The tableau, A's module generators (for
    ``hom_images``) and, for a cyclic A, the blocks of its generator are
    computed on first use and kept.  An embedding read by ``from_json``
    keeps the caller's T, grading and subspace rows as ``_source``, for
    ``to_json``.
    """

    __slots__ = ("B", "_basis", "_leads", "_rref", "_span", "_span_pivots", "_layers",
                 "_tableau", "_gens", "_generator", "_source")

    def __init__(self, B: NilModule, vectors):
        basis, leads, dims, table = invariant_closure(B, vectors)
        self._fill(B, basis, leads, _layers(B, dims, table), None)

    def _fill(self, B: NilModule, basis: la.Rows, leads: list[int], layers,
              echelon: la.Rows | None) -> "Embedding":
        self.B = B
        self._basis, self._leads, self._rref = basis, leads, echelon
        self._span = self._span_pivots = None
        self._layers = layers
        self._tableau = None
        self._gens = None
        self._generator = None
        self._source = None
        return self

    @property
    def p(self) -> int:
        return self.B.p

    @property
    def span(self) -> la.Rows:
        if self._span is None:
            self._derive_span()
        return self._span

    @property
    def _pivots(self) -> list[int]:
        if self._span is None:
            self._derive_span()
        return self._span_pivots

    @property
    def _echelon(self) -> la.Rows:
        """The canonical (rref) basis of A in B's layer order, derived from
        the kept basis on first read and kept in its place: one ``rref``,
        whose pivots must be the kept leads."""
        if self._rref is None:
            R, pivots = la.rref(self._basis, self.p)
            if pivots != self._leads:
                raise InvariantViolation(
                    f"the basis {[list(v) for v in self._basis]} in the layer order of the"
                    f" module of blocks {list(self.B.sizes)} over F_{self.p} has the leads"
                    f" {self._leads}, but its echelon form has the pivots {pivots}")
            self._basis = self._rref = R
        return self._rref

    def _derive_span(self) -> None:
        """The block-order ``span`` and its pivots from the layer-order
        echelon form: its rows taken back to block order, then reduced."""
        back = _picker(_block_places(self.B))
        self._span, self._span_pivots = la.rref([back(row) for row in self._echelon], self.p)

    def dim_sub(self) -> int:
        return len(self._leads)

    @property
    def alpha(self) -> Partition:
        return self._layers[0]

    def chain(self) -> tuple[Partition, ...]:
        return self._layers[1]

    @property
    def gamma(self) -> Partition:
        return self.chain()[0]

    @property
    def beta(self) -> Partition:
        return jordan_type(self.B)

    def contains(self, v) -> bool:
        """Whether the row v, in block order, lies in A: v taken to layer
        order and reduced by the kept basis in lead order
        (``la.reduce_vec``), so no echelon form is derived.  A v of the
        wrong length is refused with ValueError."""
        if len(v) != self.B.dim:
            raise ValueError(f"a vector of the wrong length: {len(v)} entries"
                             f" in a module of dimension {self.B.dim}")
        return not any(la.reduce_vec(self.B._layered(v), self._basis, self._leads, self.p))

    def map_image(self, M) -> la.Rows:
        """Rows spanning g(A), for the map g of the matrix M with B.dim
        columns and entries in [0, p), acting on column vectors: the kept
        basis of A, whichever it is, times the transpose of M, whose rows
        are taken to layer order to match it.  They are not reduced, so
        neither an echelon form nor the block-order span is derived.  An M
        whose rows are not of length B.dim is refused with ValueError."""
        n = self.B.dim
        if any(len(row) != n for row in M):
            raise ValueError(f"a map of a module of dimension {n} needs rows of {n} entries")
        columns = list(zip(*M)) if M else [()] * n  # M^T, also of a map to 0
        return la.mul(self._basis, self.B._layered(columns), self.p)

    def to_json(self) -> dict:
        T, grading, span = self._source or (self.B.action, self.B.grading, self.span)
        data = {
            "p": self.p,
            "beta": list(self.beta),
            "T": [list(row) for row in T],
            "A_span": [list(row) for row in span],
        }
        if grading is not None:
            data["grading"] = list(grading)
        return data

    @staticmethod
    def from_json(data: dict) -> "Embedding":
        """The embedding that ``data`` states in any basis, converted here
        to the Jordan form of its action.

        Refused with ValueError: a bad prime, a T that is not square or
        not nilpotent, a grading that T does not raise by one, a beta
        other than the Jordan type of T (an absent beta is allowed), rows
        of A of the wrong length.  ``jordan_basis`` gives the sizes, Q and
        Q^-1 of T, checked once; A's rows a go to their coordinates a Q^-1
        in the module of those sizes and are closed there.  The closure
        taken back to the given basis (span Q, reduced) is kept with T and
        the grading for ``to_json``.
        """
        p = pt.json_ints(data["p"], "p", 0)
        grading = data.get("grading")
        if grading is not None:
            grading = pt.json_ints(grading, "grading", 1)
        T = pt.json_ints(data["T"], "T", 2)
        _check_field(p, len(T))
        T = _rows(T, p)
        n = len(T)
        if any(len(row) != n for row in T):
            raise ValueError("action matrix must be square")
        sizes, Q, inverse = jordan_basis(T, p)
        _check_basis(T, p, sizes, Q, inverse)
        if grading is not None:
            grading = _graded(grading, n, ((i, j) for j, column in enumerate(zip(*T))
                                           for i, x in enumerate(column) if x))
        B = canonical_module(sizes, p)
        beta = data.get("beta")
        if beta is not None and pt.from_json(beta) != jordan_type(B):
            raise ValueError(f"beta {beta} is not the Jordan type"
                             f" {list(jordan_type(B))} of T")
        A = _vectors(pt.json_ints(data.get("A_span", []), "A_span", 2), n, p)
        E = Embedding(B, la.mul(A, inverse, p))
        E._source = (T, grading, la.row_space(la.mul(E.span, Q, p), p))
        return E

    def __repr__(self):
        return (f"Embedding(p={self.p}, beta={self.beta}, alpha={self.alpha}, "
                f"gamma={self.gamma})")


def _from_echelon(B: NilModule, R: la.Rows, pivots: list[int]) -> Embedding:
    """The embedding of the invariant subspace A of B whose echelon form
    in B's layer order is R, with these pivots: no closure is run, and R
    is kept as A's basis and echelon form.

    The layer table is walked (``_walk``) from R's generator rows, those
    whose pivot is not to[c] for a pivot c that T keeps.  For such a c,
    T R[c] is a vector of A led at to[c] with entry 1, since in layer
    order T keeps the order of the coordinates it keeps
    (``NilModule._to``).  So, from the last pivot down, every other row
    lies in the span of T A and the generator rows; these span A modulo
    T A, and by Nakayama their orbits span A."""
    to = B._to
    hit = {to[c] for c in pivots if c in to}
    level = [v for v, c in zip(R, pivots) if c not in hit]
    _, stages = _walk(B, level, [c for c in pivots if c not in hit])
    return object.__new__(Embedding)._fill(B, R, pivots, _layers(B, *_stage_rows(B, stages)), R)


def _layers(B: NilModule, dims: list[int], table: list[tuple[int, ...]]):
    """(alpha, chain, d) from the dims of T^i A and the rows d[i] of the
    layer table while T^i A is nonzero: the last stage, T^i A = 0, is
    appended, alpha is the Jordan type of the dims, and stage i of the
    chain, B / T^i A, has dim T^k(B / T^i A) = d[i][k] - dim T^i A."""
    table = (*table, tuple([B.dim - s for s in B._order[2]]))
    dims = [*dims, 0]
    chain = tuple(_type_from_ranks([x - a for x in row]) for row, a in zip(table, dims))
    return _type_from_ranks(dims), chain, table


def _type_from_ranks(ranks) -> Partition:
    """Jordan type whose k-th power has rank ranks[k], the last rank 0:
    with r padded by a 0, r[k-1] - 2 r[k] + r[k+1] blocks have size k.
    A last rank other than 0 or a negative count is no Jordan type, a bug
    in the caller, and raises InvariantViolation."""
    if not ranks or ranks[-1]:
        _not_ranks(ranks)
    r = (*ranks, 0)
    out = []
    for k in range(len(ranks) - 1, 0, -1):
        count = r[k - 1] - 2 * r[k] + r[k + 1]
        if count < 0:
            _not_ranks(ranks)
        out += [k] * count
    return tuple(out)


def _not_ranks(ranks) -> None:
    raise InvariantViolation(f"ranks {list(ranks)} are not those of the powers"
                             " of a nilpotent operator")


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
    d = E._layers[2]

    def at(i: int, k: int) -> int:
        # T^i A = 0 past alpha_1 and T^k B = 0 past beta_1
        row = d[min(i, len(d) - 1)]
        return row[min(k, len(row) - 1)]

    return at(ell - 1, r) - at(ell, r) - at(ell - 1, r - 1) + at(ell, r - 1)


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
    sizes = E.B.sizes
    outside = [o + j for o, b in zip(block_offsets(sizes), sizes)
               for j in range(min(max(r, b - s), b))]
    return coordinate_meet_dim(E.span, outside, E.p)


def direct_sum(*embeddings: Embedding) -> Embedding:
    """Block-diagonal direct sum: the module of the concatenated block
    sizes, graded by the summands' degrees at their block starts when
    every summand is graded; the subspace is the closure of the stacked
    block-order spans, like any other embedding's."""
    if not embeddings:
        raise ValueError("need at least one summand")
    p = embeddings[0].p
    if any(e.p != p for e in embeddings):
        raise ValueError("summands live over different fields")
    total = sum(e.B.dim for e in embeddings)
    spans, off = [], 0
    for e in embeddings:
        left, right = (0,) * off, (0,) * (total - off - e.B.dim)
        spans.extend(left + row + right for row in e.span)
        off += e.B.dim
    shifts = (None if any(e.B.grading is None for e in embeddings)
              else [e.B.grading[o] for e in embeddings for o in block_offsets(e.B.sizes)])
    return Embedding(canonical_module([b for e in embeddings for b in e.B.sizes], p, shifts),
                     spans)


def hom_dim(E1: Embedding, E2: Embedding) -> int:
    """Dimension of the space of embedding morphisms E1 -> E2: the u
    unknowns of ``hom_images`` less the rank of their images reduced
    modulo A2 (``_reduced_rank``)."""
    if E1.p != E2.p:
        raise ValueError("embeddings live over different fields")
    u, U = hom_images(E1, E2.B.sizes)
    return u - _reduced_rank(U, E2)


def hom_images(C: Embedding, sizes) -> tuple[int, la.Rows]:
    """(u, U) for the maps from C to targets E with Jordan blocks of
    ``sizes``: u unknowns, and the echelon form U of their images
    (g(a_1), ..., g(a_m)), one row per unknown, for the module generators
    a_j of C's subspace (``_generators``, len(alpha) of them).

    A module map g is fixed by the images x_i in ker T_E^(b_i) of the
    generators of C's Jordan blocks.  In E's coordinates ker T_E^b is the
    positions q >= c - b of each block of size c, and T_E moves position q
    to q + 1; so the map with the one unknown x_i at position q of the
    target block at offset o2 sends a to a[o_i:o_i + c - q] at positions
    o2 + q to o2 + c.  That is u = sum_i dim ker T_E^(b_i) unknowns.

    g(A_C) <= A_E exactly when every g(a_j) lies in A_E, so dim Hom(C, E)
    is u less the rank of the map g -> (g(a_j) mod A_E)_j, which is the
    rank of U with each of its m parts reduced modulo A_E.  U depends on
    C and ``sizes`` only, so one serves every span of one census.
    """
    n, gens = sum(sizes), _generators(C)
    rows = []
    for o, b in zip(block_offsets(C.B.sizes), C.B.sizes):
        for o2, c in zip(block_offsets(sizes), sizes):
            for q in range(max(c - b, 0), c):
                row = []
                for a in gens:
                    part = [0] * n
                    part[o2 + q:o2 + c] = a[o:o + c - q]
                    row += part
                rows.append(row)
    return len(rows), la.row_space(rows, C.p)


def _reduced_rank(U: la.Rows, E: Embedding) -> int:
    """The rank of U with each of its parts of E.B.dim entries reduced
    modulo E's span.  The span is in rref, so its pivot columns are unit
    vectors and no row it takes off a part moves the part's entry at
    another pivot: each part loses the span's rows scaled by its original
    entries at their pivots, and ``la.rank`` takes the entries mod p."""
    span, pivots, n = E.span, E._pivots, E.B.dim
    rows = []
    for u in U:
        out = list(u)
        for j in range(0, len(u), n):
            for row, c in zip(span, pivots):
                f = u[j + c]
                if f:
                    out[j:j + n] = [x - f * y for x, y in zip(out[j:j + n], row)]
        rows.append(out)
    return la.rank(rows, E.p)


def _generators(E: Embedding) -> la.Rows:
    """Module generators of A in block order, kept on E: the rows of A's
    layer-order echelon form whose leads are not pivots of T A there.  A
    combination of them has the lead of one of them, and every vector of
    T A has its lead at a pivot of T A, so they are independent modulo
    T A, and there are dim A - dim T A = len(alpha) of them."""
    if E._gens is None:
        shifted = la.rref(E.B.layer_image(E._echelon), E.p)[1]
        back = _picker(_block_places(E.B))
        E._gens = tuple([back(r) for r, c in zip(E._echelon, E._leads) if c not in shifted])
    return E._gens


def generator_blocks(C: Embedding) -> tuple[tuple[int, int], ...] | None:
    """(b_i, j_i) for every Jordan block i of C's module when A is cyclic,
    None when A needs two or more generators; kept on C.

    b_i is the block size and j_i the lowest nonzero coordinate of
    a generator a of A (``_generators``) in that block, or b_i where a
    vanishes.  A is cyclic when dim A - dim TA <= 1, so A = 0 counts.  The
    generators of a cyclic A are u(T) a for the polynomials u with a unit
    constant term, so every generator gives the same j_i.
    """
    if len(C.alpha) > 1:
        return None
    if C._generator is None:
        sizes = C.B.sizes
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
    span outside ``outside``.

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
    """The embedding (soc^i <= P^ell): the picket P^ell_min(i, ell)."""
    return realize_picket(ell, min(i, ell), p)


def realize_picket(n: int, m: int, p: int) -> Embedding:
    """P^n_m as an embedding: its picket tableau as a one-column pole,
    the subspace generated by T^{n-m}, its generator in degree 0."""
    return Embedding(*graded_pole_module([picket_tableau(Picket(n, m)).columns], p, [0]))


def picket_hom_profile(E: Embedding, max_i: int, max_ell: int) -> list[list[int]]:
    """profile[i][ell-1] = hom_dim(E, P_i^ell) for 0 <= i <= max_i, read off
    the chain: by the adjunction identity it is the sum of min(x, ell)
    over the parts x of B / T^i A (B itself once T^i A = 0).  A table of
    more than ``LRLAB_GUARD`` cells raises ``GuardExceeded`` before a row
    is built."""
    if max_i < 0 or max_ell < 1:
        raise ValueError(
            f"need max_i >= 0 and max_ell >= 1, got max_i={max_i}, max_ell={max_ell}")
    cells, budget = (max_i + 1) * max_ell, guard_budget()
    if cells > budget:
        raise GuardExceeded(f"a profile of {max_i + 1} x {max_ell} = {cells} cells"
                            f" exceeds the guard of {budget}; raise LRLAB_GUARD to allow it")
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


def pole_generator(columns) -> tuple[list[int], list[int]]:
    """Coordinates of the generator a of the pole whose tableau has these
    columns, in their blocks taken in order, and the exponent of T in
    each block's term.

    Each entry 1..k must occur once and each column must hold a run of
    consecutive entries.  A column of length b and base x whose run
    starts at e contributes the term T^{x-e+1} g^b, so T^{e-1} a reaches
    radical layer x there; an empty column contributes nothing, and its
    exponent reads 0.
    """
    entries = sorted(e for c in columns for e in c.entries)
    if entries != list(range(1, len(entries) + 1)):
        raise ValueError(f"entries {entries} are not 1..k, each once")
    a = [0] * sum(c.length for c in columns)
    exponents, off = [], 0
    for c in columns:
        power = 0
        if c.entries:
            e = c.entries[0]
            if c.entries != tuple(range(e, e + len(c.entries))):
                raise ValueError(f"{c} does not hold a run of consecutive entries")
            if c.base < e - 1:
                raise ValueError(f"entry {e} of {c} lies above row {e}")
            power = c.base - e + 1
            a[off + power] = 1
        exponents.append(power)
        off += c.length
    return a, exponents


def graded_pole_module(pieces, p: int, degrees) -> tuple[NilModule, list[tuple[int, ...]]]:
    """Module and generator rows of the graded poles whose tableaux have
    the column groups ``pieces``: their columns in order, one
    ``pole_generator`` row per piece, of degree ``degrees[i]``.  The rows
    are tuples of 0s and 1s, so ``Embedding`` takes them as they are.  A term
    T^c g^b of a piece of degree d puts the block generator g^b in degree
    d - c, and an empty block sits in degree d."""
    sizes = [c.length for cols in pieces for c in cols]
    gens, shifts, off = [], [], 0
    for cols, d in zip(pieces, degrees):
        a, exponents = pole_generator(cols)
        gens.append(tuple([0] * off + a + [0] * (sum(sizes) - off - len(a))))
        shifts += [d - c for c in exponents]
        off += len(a)
    return canonical_module(sizes, p, shifts=shifts), gens


def realize_pole(pole: Pole, p: int) -> Embedding:
    """Kaplansky-data realization inside the pole's declared ambient:
    the graded realization of its pole tableau, blocks in that
    tableau's column order, its generator in degree 0."""
    return Embedding(*graded_pole_module([pole_tableau(pole).columns], p, [0]))


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
    realization at all (they exist) are rejected with ValueError.  The
    groups and the empty leftover columns make one ``graded_pole_module``,
    every generator in degree 0, re-verified on chains: a strip whose
    realization reads back another chain is a bug, and raises
    ``InvariantViolation`` ending in the ``lrlab realize`` command that
    reproduces it.
    """
    strip = tb.is_horizontal_strip(t.shape.beta, t.shape.gamma)
    if strip:
        pieces = pole_pieces(t.columns)
    else:
        pieces, rest = [], t
        while not rest.is_empty():
            piece, rest = _chain_pole_split(rest)
            pieces.append(piece.columns)
        pieces.append(rest.columns)
    E = Embedding(*graded_pole_module(pieces, p, [0] * len(pieces)))
    if E.chain() != t.chain:
        if strip:
            tableau = json.dumps(t.to_json(), separators=(",", ":"))
            raise InvariantViolation(
                f"the realization of a horizontal strip reads back the chain"
                f" {[list(c) for c in E.chain()]}, not {[list(c) for c in t.chain]};"
                f" reproduce with: lrlab realize '{tableau}' -p {p}")
        raise ValueError("tableau is not a union of pole tableaux: got "
                         f"{tb.from_chain(list(E.chain()))}")
    E._tableau = t
    return E
