"""Brute-force submodule census and fingerprint-based classification.

The census searches one side of the duality D(A <= B) = ((B/A)* <= B*),
which swaps type and cotype (``_census_spans``): the side whose search
visits fewer generator tuples, p^e(lambda) for type lambda with
e(lambda) the sum of min(a, b) over the parts a of lambda and the blocks
b of beta.  On the dual side it lists the spans of type gamma and cotype
alpha and maps each back by its block-reversed annihilator, built in
layer order.  The guard still counts the nominal tuples of type alpha.
The search lists the invariant submodules of type alpha and cotype gamma
of the canonical ambient module level by level, in the module's layer
order, adding one generator per part of alpha and deduplicating by
reduced row echelon form after each.  A span that grows by less than
that part is dropped, since it can no longer reach dimension |alpha|,
and so is a span whose quotient's type does not contain gamma, since the
quotient by every span grown from it is a quotient of that one.  Each
level tries one vector per line of a residue space, listed by row
additions; the first line to reach a span from one parent names the
others that would, and they are skipped.  The pivots of a grown span
are its parent's merged with the leading entries of the residues of the
line's orbit, so the cotype test takes no elimination, and only a span
that passes it gets an echelon form, by extending its parent's
(``linalg.extend``).  At a level whose part is 1 a line's residue is the
line itself, led by the pivot of the row of the residue space that lists
it, so the test is taken once per such row, and a row that fails it
skips all its lines.  One path serves every prime.  Either side hands
over layer-order echelon forms, and each becomes an embedding whose
layer table is read off that form (``nilmod._from_echelon``).  The
census re-checks the type and cotype of every span it gets back, and
buckets the spans by tableau and by hom-dimension fingerprint against a
catalog of known indecomposables.  Spans are visited in the order of
their block-order row tuples, so each class representative is its least
member.  Catalogs are built once per argument and kept.
What does not change within one census is done once per census: the
fingerprint plan (the chains of position sets the cyclic catalog
objects read, a column order each, and the image echelon form of the
others) and one tableau per chain,
which every span of that chain shares.
For a catalog object with a cyclic subspace (all of the 20-object
catalog but X) a fingerprint reads the hom dimension off the census
embedding's Jordan coordinates (``nilmod.hom_positions``): off the rank
of the span's columns in a position set.  The sets of one census
largely nest, so the plan covers them with chains, and a fingerprint
takes one echelon form per chain, whose pivots give the rank of every
set of it.  For the
others, X among them, it applies ``nilmod.hom_dim``'s formula in two
halves: the echelon form U of the hom unknowns' images depends only on
the census's block sizes and is taken once per census
(``nilmod.hom_images``), and a span reduces it
(``nilmod._reduced_rank``).

Fingerprints agree for isomorphic embeddings.  For beta_1 <= 4 the
converse is a theorem at p = 2 and 3.  The 20 catalog objects are all
the indecomposables of nilpotency index at most 4 (Ringel and
Schmidmeier, J. reine angew. Math. 614, 2008).  So by Krull-Schmidt a
census member is fixed up to isomorphism by its multiplicities m, and
its fingerprint is H m with H the catalog's matrix of hom dimensions,
which is unimodular.  H without X's row has rank 19, with kernel
spanned by delta = X + P(1,3) - P(1,) - P(2,3) - P(0,1,3); so two spans
whose 19 cyclic entries agree have m' = m + k delta.  With the default
catalog the census therefore takes X's entry once per bucket of spans
that share their cyclic entries: for the bucket's first span.  When a
second span lands in it, the first's fingerprint is decoded to
m = H^-1 fp (``_decoder``, built from the catalog's own fingerprints on
first use and kept), and an m outside N^20 raises, naming shape, p and
the ``lrlab oracle`` command.  Unless m + delta or m - delta lies in
N^20 the bucket is closed, since the k with m + k delta in N^20 form an
interval that holds 0: every member has the first one's fingerprint,
and X's entry is not taken.  In an open bucket it is taken for every
span.  A caller's catalog, and the picket and pole catalog for
beta_1 >= 5, take every entry for every span.  The tests check at both
primes that each object has a local endomorphism ring and that H is
unimodular, and decompose every class of the pinned and the benchmark
censuses, against a closed-form census by Krull-Schmidt among them
(``tests/oracle_reference.py``).  For beta_1 >= 5 the picket
and pole catalog is not complete and the converse is not a theorem:
distinct classes of one tableau with equal fingerprints would be merged
silently (across distinct tableaux the census raises, naming a
reproducer).  The tests referee the published censuses by isomorphism,
and show that a catalog without P(2,) merges two classes of the
five-class census.  Pass a richer catalog to sharpen the separation.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations

from . import linalg as la
from . import partitions as pt
from .errors import DEFAULT_GUARD  # noqa: F401  (the census default, public here)
from .errors import GuardExceeded, InvariantViolation, guard_budget
from .nilmod import (Embedding, _block_places, _from_echelon, _is_invariant, _not_invariant,
                     _picker, _reduced_rank, block_offsets, canonical_module,
                     generator_blocks, hom_images, hom_positions, realize_picket,
                     realize_pole, tableau_of_embedding)
from .poles import Pole, minimal_ambient
from .tableaux import LRTableau, Shape


def s4_catalog(p: int) -> list[tuple[str, Embedding]]:
    """The 20 indecomposable embeddings with nilpotency index at most 4.

    Four empty pickets, the fifteen poles over layer sets inside
    {0, 1, 2, 3} with minimal ambient, and the one object X whose
    subspace needs two generators.  X's tableau is checked against its
    known chain when the catalog is built.  The catalogs of the last
    eight primes are kept; every call returns a fresh list of the kept
    objects.
    """
    return list(_s4_catalog(p))


@lru_cache(maxsize=8)
def _s4_catalog(p: int) -> tuple[tuple[str, Embedding], ...]:
    catalog: list[tuple[str, Embedding]] = []
    for n in range(1, 5):
        catalog.append((f"P^{n}_0", realize_picket(n, 0, p)))
    layer_sets = [
        s
        for k in range(1, 5)
        for s in combinations((0, 1, 2, 3), k)
    ]
    for layers in layer_sets:
        pole = Pole(layers, minimal_ambient(layers))
        catalog.append((f"P{layers}", realize_pole(pole, p)))
    x = _x_object(p)
    chain = tuple(c for c in tableau_of_embedding(x).chain)
    if chain != ((2,), (3, 1), (3, 2), (4, 2)):
        raise InvariantViolation(f"X object has chain {chain}")
    catalog.append(("X", x))
    if len(catalog) != 20:
        raise InvariantViolation(f"catalog has {len(catalog)} objects")
    return tuple(catalog)


def _x_object(p: int) -> Embedding:
    """Ambient N_(4,2); subspace generated by T x + y and T y, where x, y
    generate the two blocks."""
    module = canonical_module((4, 2), p, shifts=[0, 1])
    # x, T x, T^2 x, T^3 x, y, T y
    return Embedding(module, [[0, 1, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])


def iso_fingerprint(E: Embedding, catalog) -> tuple[int, ...]:
    """dim Hom(C, E) for every catalog object C, in catalog order: the
    ``_fingerprint_plan`` of the catalog for E's block sizes, applied to
    E.  A catalog object over another field raises ValueError."""
    return _fingerprint(_fingerprint_plan(catalog, E.B.sizes, E.p), E)


def _fingerprint_plan(catalog, sizes, p: int):
    """What a fingerprint computes for targets with Jordan blocks of
    ``sizes`` over F_p, the same for every span of one census.

    For a source C with a cyclic subspace the hom dimension is a constant
    plus the dimension in which the target's span A meets the coordinate
    subspace off a position set (``nilmod.hom_positions``): dim A less the
    rank of A's columns in that set.  The sets of one census largely nest,
    so the plan covers them with chains under inclusion: taken by size
    (in catalog order within one size), each set joins the first chain
    whose last set it contains, or starts one.  Each chain gets a column
    order in which every one of its sets is a prefix, and the step of C is
    (base, its chain, the length L of its set, None).  Row operations keep
    the rank of every column subset, and in an echelon form the rank of a
    column prefix is the number of its pivots, so one echelon form of A's
    columns in the chain's order gives the rank of every set of the chain.
    For a source whose subspace needs two generators (X) the images of
    the hom unknowns depend only on ``sizes`` (``nilmod.hom_images``), so
    its step is (unknowns, None, 0, their echelon form U).  The plan is
    the steps, in catalog order, and the chains' column orders.  A
    catalog object over another field raises ValueError.
    """
    steps = []
    for _, C in catalog:
        if C.p != p:
            raise ValueError("embeddings live over different fields")
        blocks = generator_blocks(C)
        if blocks is None:
            unknowns, U = hom_images(C, sizes)
            steps.append((unknowns, None, U))
        else:
            base, outside = hom_positions(blocks, sizes)
            steps.append((base, outside, None))
    orders: list[list[int]] = []  # per chain: its last set, the earlier ones prefixes
    prefix = {}  # set -> (its chain, its length)
    for outside in sorted(dict.fromkeys([s for _, s, U in steps if U is None]), key=len):
        new = set(outside)
        for i, order in enumerate(orders):
            if new.issuperset(order):
                order += sorted(new.difference(order))
                break
        else:
            i = len(orders)
            orders.append(list(outside))
        prefix[outside] = (i, len(outside))
    return ([(base, *prefix[s], None) if U is None else (base, None, 0, U)
             for base, s, U in steps], orders)


def _fingerprint(plan, E: Embedding) -> tuple[int, ...]:
    """The fingerprint of E by ``plan``: its ``_cyclic_entries``, completed
    by ``_solved``."""
    return _solved(plan, E, _cyclic_entries(plan, E))


def _cyclic_entries(plan, E: Embedding) -> tuple[int | None, ...]:
    """The fingerprint entries of E for the cyclic sources, None for the
    others: one echelon form of E's span per chain, its columns in the
    chain's order, whose pivots below L count the rank of the set with
    prefix length L."""
    steps, orders = plan
    span, p, n = E.span, E.p, len(E.span)
    pivots = [la.rref([[row[q] for q in order] for row in span], p)[1] for order in orders]
    return tuple([base + n - bisect_left(pivots[i], L) if U is None else None
                  for base, i, L, U in steps])


def _solved(plan, E: Embedding, entries) -> tuple[int, ...]:
    """``entries`` with the entry of each non-cyclic source filled in: the
    rank of its U with every part reduced modulo E's span, taken from its
    number of unknowns."""
    return tuple([x if U is None else base - _reduced_rank(U, E)
                  for x, (base, _, _, U) in zip(entries, plan[0])])


_LIFT = 2**31 - 1  # a prime; H^-1 mod it lifts to the integers (entries below 2^30)


@lru_cache(maxsize=8)
def _decoder(catalog: tuple) -> tuple[tuple, list[int] | None]:
    """(H^-1, delta) for a complete catalog of indecomposables, kept for
    the last eight catalogs (by their objects, so once per prime for
    ``s4_catalog``).

    H is the catalog's hom matrix, H[i][j] = dim Hom(C_i, C_j), read off
    the objects' own fingerprints: column j is C_j's.  A sum of catalog
    objects with multiplicities m has fingerprint H m.  H is unimodular,
    so H^-1 is an integer matrix and m = H^-1 fp.  It is inverted over
    F_P for the prime P = ``_LIFT``, lifted to the residues of least
    absolute value and kept as each row's nonzero (column, entry) pairs,
    about four of twenty.  That every object decodes to itself is
    re-checked over the integers, and a matrix that fails it raises.
    Delta spans the kernel of H's rows of the cyclic sources: H H^-1 = I,
    so the columns of H^-1 of the non-cyclic sources do, and for a
    catalog with one such source (X of ``s4_catalog``) delta is its
    column, signed to have a 1 at X.  None when every source is cyclic.
    The fingerprints take one plan per distinct block sizes.
    """
    p = catalog[0][1].p
    plans = {sizes: _fingerprint_plan(catalog, sizes, p)
             for sizes in dict.fromkeys([C.B.sizes for _, C in catalog])}
    columns = [_fingerprint(plans[C.B.sizes], C) for _, C in catalog]
    n = len(columns)
    unit = la.identity(n)
    reduced = la.row_space([row + e for row, e in zip(zip(*columns), unit)], _LIFT)
    inverse = [[x if 2 * x < _LIFT else x - _LIFT for x in row[n:]] for row in reduced]
    terms = tuple(tuple([(j, a) for j, a in enumerate(row) if a]) for row in inverse)
    if [tuple(_multiplicities(terms, fp)) for fp in columns] != list(unit):
        raise InvariantViolation(f"the hom matrix of the catalog, with columns"
                                 f" {[list(fp) for fp in columns]}, is not unimodular")
    solved = [i for i, (_, C) in enumerate(catalog) if generator_blocks(C) is None]
    if not solved:
        return terms, None
    (x,) = solved
    return terms, [inverse[x][x] * row[x] for row in inverse]


def _multiplicities(terms, fp) -> list[int]:
    """m = H^-1 fp: the multiplicities of the catalog objects in a sum
    with fingerprint fp, for the rows of H^-1 as their nonzero (column,
    entry) pairs (``_decoder``)."""
    return [sum([a * fp[j] for j, a in row]) for row in terms]


def _is_open(decoder, fp, where: str) -> bool:
    """Whether spans with the cyclic entries of a member of fingerprint fp
    can have another fingerprint, by ``decoder`` = (H^-1, delta).

    The member is a sum of catalog objects with multiplicities
    m = H^-1 fp, which must lie in N^n: one that does not raises, naming
    fp, m and ``where``.  Another span with equal cyclic entries has m'
    with H m' - H m in the kernel of the cyclic rows, so m' = m + k delta
    for an integer k, since delta has a 1 at X.  The k with m + k delta in
    N^n form an interval that holds 0, so when neither m + delta nor
    m - delta lies in N^n, k = 0 and every such span has fingerprint fp.
    Without a delta every source is cyclic, and fp is fixed by them.
    """
    terms, delta = decoder
    m = _multiplicities(terms, fp)
    if min(m) < 0:
        raise InvariantViolation(f"the class of fingerprint {list(fp)} decodes to"
                                 f" multiplicities {m}, not a sum of catalog objects: {where}")
    return delta is not None and any([all([x + s * d >= 0 for x, d in zip(m, delta)])
                                      for s in (1, -1)])


class CensusClass:
    def __init__(self, fingerprint: tuple[int, ...], tableau: LRTableau,
                 representative: Embedding, submodule_count: int):
        self.fingerprint = fingerprint
        self.tableau = tableau
        self.representative = representative
        self.submodule_count = submodule_count


class Census:
    def __init__(self, shape: Shape, p: int, total_submodules: int,
                 per_tableau: dict[LRTableau, int], classes: list[CensusClass],
                 catalog_names: list[str]):
        self.shape = shape
        self.p = p
        self.total_submodules = total_submodules
        self.per_tableau = per_tableau
        self.classes = classes
        self.catalog_names = catalog_names

    def classes_of(self, t: LRTableau) -> list[CensusClass]:
        return [c for c in self.classes if c.tableau == t]

    def to_json(self) -> dict:
        return {
            "shape": self.shape.to_json(),
            "p": self.p,
            "total_submodules": self.total_submodules,
            "per_tableau": [
                {"tableau": t.to_json(), "submodules": n}
                for t, n in sorted(self.per_tableau.items(),
                                   key=lambda kv: kv[0].chain)
            ],
            "catalog": self.catalog_names,
            "classes": [
                {
                    "fingerprint": list(c.fingerprint),
                    "tableau": c.tableau.to_json(),
                    "submodules": c.submodule_count,
                    "representative": c.representative.to_json(),
                }
                for c in self.classes
            ],
        }


def nominal_tuple_count(shape: Shape, p: int) -> int:
    return (p ** pt.weight(shape.beta)) ** len(shape.alpha)


def enumerate_submodules(
    shape: Shape,
    p: int,
    guard: int | None = None,
    slow: bool = False,
    catalog=None,
) -> Census:
    """Census of invariant submodules of N_beta of type alpha, quotient gamma.

    Every submodule of type alpha is generated by len(alpha) vectors with
    the i-th annihilated by T^alpha_i.  The search closes the spans found
    so far with one more such generator per level and keeps one span per
    canonical basis, so generator tuples are never listed; the guard is
    nevertheless expressed in nominal full-tuple terms so configured
    budgets stay comparable across implementations, and count type
    alpha's tuples whichever side ``_census_spans`` searches.  The search
    returns only spans of type alpha and cotype gamma, invariant and in
    rref, so their embeddings need no closure; both types are re-checked,
    and a span of another type or cotype raises, naming shape, p and span.
    That failure, a fingerprint collision and a failure inside the search,
    re-raised with the shape and the side searched, name the catalog, and
    with the default one end in the ``lrlab oracle`` command that
    reproduces them.  With the default catalog for beta_1 <= 4, X's entry
    is taken once per bucket of spans that share their cyclic entries,
    unless the bucket is open (``_is_open``), and a class that does not
    decode to a sum of catalog objects raises, with that command too.
    """
    if not slow and nominal_tuple_count(shape, p) > guard_budget(guard):
        raise GuardExceeded(
            f"census for {shape} over F_{p} needs {nominal_tuple_count(shape, p)}"
            f" nominal tuples; raise LRLAB_GUARD to allow it, or pass --slow"
            " (slow=True from Python)"
        )
    if catalog is None:
        top = shape.beta[0] if shape.beta else 0
        by_class = top <= 4
        if by_class:
            catalog, catalog_note = s4_catalog(p), f"s4_catalog({p})"
        else:
            catalog, catalog_note = picket_pole_catalog(p, top), f"picket_pole_catalog({p}, {top})"
        flag = " --slow" if nominal_tuple_count(shape, p) > guard_budget() else ""
        catalog_note += (f"; reproduce with: lrlab oracle"
                   f" '{json.dumps(shape.to_json(), separators=(',', ':'))}' -p {p}{flag}")
    else:
        by_class = False
        catalog_note = f"a caller-given catalog of {len(catalog)} objects"

    B = canonical_module(shape.beta, p)
    plan = _fingerprint_plan(catalog, B.sizes, p)
    try:
        spans = _census_spans(B, shape.alpha, shape.gamma)
    except InvariantViolation as err:
        side = (", searched on its dual side (gamma, beta, alpha)"
                if _searches_dual(B.sizes, shape.alpha, shape.gamma) else "")
        raise InvariantViolation(f"{err}; census of shape {json.dumps(shape.to_json())},"
                                 f" p = {p}{side}, catalog {catalog_note}") from err

    tableaux: dict[tuple[pt.Partition, ...], LRTableau] = {}  # chain -> its tableau
    per_tableau: dict[LRTableau, int] = {}
    buckets: dict[tuple[int, ...], CensusClass] = {}
    firsts: dict[tuple, list] = {}  # cyclic entries -> [first fingerprint, open or None]
    total = 0
    for E in spans:
        if E.alpha != shape.alpha or E.gamma != shape.gamma:
            raise InvariantViolation(
                f"search returned a span of type {list(E.alpha)} and cotype"
                f" {list(E.gamma)}: shape {json.dumps(shape.to_json())}, p = {p},"
                f" span {[list(row) for row in E.span]}, catalog {catalog_note}")
        total += 1
        chain = E.chain()
        t = tableaux.get(chain)
        if t is None:
            t = tableaux[chain] = tableau_of_embedding(E)
        per_tableau[t] = per_tableau.get(t, 0) + 1
        entries = _cyclic_entries(plan, E)
        first = firsts.get(entries)
        if first is None:
            fp = _solved(plan, E, entries)
            firsts[entries] = [fp, None if by_class else True]
        else:
            if first[1] is None:
                first[1] = _is_open(_decoder(tuple(catalog)), first[0],
                                    f"shape {json.dumps(shape.to_json())}, p = {p},"
                                    f" catalog {catalog_note}")
            fp = _solved(plan, E, entries) if first[1] else first[0]
        if fp in buckets:
            cls = buckets[fp]
            cls.submodule_count += 1
            if cls.tableau != t:
                raise InvariantViolation(
                    f"fingerprint collision across distinct tableaux: shape"
                    f" {json.dumps(shape.to_json())}, p = {p}, fingerprint"
                    f" {list(fp)}, chains {cls.tableau.to_json()['chain']}"
                    f" and {t.to_json()['chain']}, catalog {catalog_note}")
        else:
            buckets[fp] = CensusClass(fp, t, E, 1)
    classes = sorted(buckets.values(), key=lambda c: (c.tableau.chain, c.fingerprint))
    return Census(shape, p, total, per_tableau, classes,
                  [name for name, _ in catalog])


def picket_pole_catalog(p: int, top: int) -> list[tuple[str, Embedding]]:
    """Pickets and poles with ambient parts at most ``top``; a fallback
    separating family for shapes beyond nilpotency four.  Kept like
    ``s4_catalog``'s, for the last eight argument pairs."""
    return list(_picket_pole_catalog(p, top))


@lru_cache(maxsize=8)
def _picket_pole_catalog(p: int, top: int) -> tuple[tuple[str, Embedding], ...]:
    catalog: list[tuple[str, Embedding]] = []
    for n in range(1, top + 1):
        for m in range(0, n + 1):
            catalog.append((f"P^{n}_{m}", realize_picket(n, m, p)))
    # single-run poles are the pickets above, so only split layer sets add
    for k in range(2, top + 1):
        for layers in combinations(range(top), k):
            amb = minimal_ambient(layers)
            if amb[0] <= top and len(amb) > 1:
                pole = Pole(layers, amb)
                catalog.append((f"P{layers}", realize_pole(pole, p)))
    return tuple(catalog)


def _searches_dual(sizes, alpha, gamma) -> bool:
    """Whether the census of type alpha and cotype gamma in the module of
    block sizes ``sizes`` searches the dual side, type gamma and cotype
    alpha: whether it visits fewer generator tuples there.  A search for
    type lambda adds generators from the kernels of T^a, a in lambda, so
    its tuples number p^e(lambda), with e(lambda) the sum of dim ker T^a
    = sum of min(a, b) over the blocks b.  A tie searches alpha."""
    def exponent(parts):
        return sum([min(a, b) for a in parts for b in sizes])
    return exponent(gamma) < exponent(alpha)


def _census_spans(B, alpha, gamma) -> list[Embedding]:
    """The embeddings of the spans of B of type alpha and cotype gamma,
    each built from its echelon form in B's layer order
    (``nilmod._from_echelon``), sorted by block-order span, searched on the
    cheaper side (``_searches_dual``).

    D(A <= B) = ((B/A)* <= B*) is a duality on invariant-subspace pairs,
    under which the type and the cotype change places (Ringel and
    Schmidmeier, J. reine angew. Math. 614, 2008), and B* is isomorphic
    to B: reversing the coordinates inside each Jordan block (rev) takes
    the transposed action to T, since rev T^t rev = T.  So A' -> A =
    (rev A')^perp, the annihilator of A' reversed, takes the spans of type
    gamma and cotype alpha one to one to those of type alpha and cotype
    gamma; the zero span maps to all of B.  A is built in layer order at
    once: coordinate k of A pairs with coordinate rev[order[k]] of A' in
    block order, which is perm[k] = back[rev[order[k]]] of A' in layer
    order, back the inverse of the layer order (``nilmod._block_places``).
    Each mapped span is re-checked invariant (``nilmod._is_invariant``,
    with the message of the closure's check, naming A in block order).
    Sorted by the block-order span, so the side does not show, and each
    class representative is its least member.  The dual search takes
    alpha as its cotype, and finds no span when alpha does not lie inside
    beta; nor has a type outside beta a submodule.
    """
    if not _searches_dual(B.sizes, alpha, gamma):
        found = _distinct_submodules(B, alpha, gamma)
        return sorted([_from_echelon(B, S, pivots) for S, pivots in found], key=lambda E: E.span)
    p, n, order = B.p, B.dim, B._order[0]
    back = _block_places(B)
    rev = [o + b - 1 - j for o, b in zip(block_offsets(B.sizes), B.sizes) for j in range(b)]
    perm = _picker([back[rev[q]] for q in order])
    found = []
    for dual, _ in _distinct_submodules(B, gamma, alpha):
        A = la.null_space([perm(row) for row in dual], p) if dual else la.identity(n)
        pivots = [row.index(1) for row in A]
        if not _is_invariant(B, A, pivots):
            block = _picker(back)
            _not_invariant(B, la.row_space([block(row) for row in A], p))
        found.append(_from_echelon(B, A, pivots))
    return sorted(found, key=lambda E: E.span)


def _distinct_submodules(B, alpha, gamma) -> list[tuple[la.Rows, list[int]]]:
    """The echelon forms in B's layer order, with their pivots, of the
    distinct invariant subspaces S of B of type alpha and cotype gamma
    (B / S of type gamma), as the search built them, in the order it
    reached them; alpha and gamma as in a ``Shape`` whose beta is B's
    type.

    Every such S is generated by a tuple with the i-th generator inside
    ker T^alpha_i, and the search adds one generator per part of alpha and
    deduplicates after each.  For an invariant span S and v in ker T^a,
    the closure of S and v is the span of S, v, T v, ..., T^(a-1) v, and
    it depends only on the line through the residue of v modulo S; so
    each level closes S with one vector per line of the residue space W
    of the kernel (``_residue_lines``).  A level adds at most a
    dimensions, and exactly a unless T^(a-1) v lies in S, so only spans
    that grew by a at every level are kept; their orbits form a basis, so
    each has type alpha.

    From one parent S, two lines that grow S by a give the same span
    exactly when one is u(T) times the other modulo S, for a polynomial u
    with a unit constant term.  In layer order T moves every coordinate of
    v past v's leading one, and reducing modulo the rref S adds nothing
    left of a vector's first nonzero entry, so the listed vectors of those
    lines are v + c_1 r_1 + ... + c_(a-1) r_(a-1) over all c_i in F_p,
    with r_i the residue of T^i v modulo S, which is the residue of
    T r_(i-1) since S is invariant: each has its first nonzero entry, a 1,
    where v has it.  Once a line passes the T^(a-1) v test, those
    p^(a-1) vectors are kept for S, and the later lines among them are
    skipped before their residues are taken.

    The same two facts place the pivots.  The residues r_0 = v, r_1, ...,
    r_(a-1) are zero at S's pivots, and their leading entries strictly
    increase, so once r_(a-1) is not 0 the rows of S and the residues
    have distinct leads: the pivots of the grown span are S's pivots
    merged with the residues' leads, with no elimination.  Only a span
    that passes the cotype test below gets an echelon form, S's extended
    by the residues (``linalg.extend``), and its pivots are re-checked
    against the merged ones; a mismatch raises, naming beta, alpha, gamma,
    p and the parent in block order.  So S takes one echelon form per
    span it reaches and keeps.  A span reached from two parents is still
    reduced once from each.

    The search runs in B's layer order (``nilmod._layer_order``), where
    T^k B is the coordinates from prefix[k] on.  So the pivots of a grown
    span S give dim(T^k B + S) by bisection, and with it the rank r_k of
    T^k on B / S (as in an embedding's layer table).  A span on the way
    to A has B / A as a quotient of B / S, and a quotient's partition lies
    inside the module's (Macdonald, *Symmetric functions and Hall
    polynomials*, Ch. II).  So a span is dropped unless gamma lies inside
    the type of B / S: unless the k-th column of gamma is at most
    r_(k-1) - r_k, the number of parts of B / S of size at least k.  This
    is the cotype test (``_holds_cotype``).  After the last level B / S
    has |beta| - |alpha| = |gamma| boxes, so there containment is
    equality, and every span kept has cotype gamma.

    At a level whose part a is 1 the residues are the line v alone, and
    the lines listed from row j of W are W[j] plus a vector of
    span(W[j+1:]), all led by W[j]'s pivot.  So every line of one row
    gives one set of pivots, and the search takes the cotype test once
    per row: a row that fails it has its lines skipped, and each line of
    a row that passes it is extended, with its pivots re-checked as
    above.  No two lines give one span there (p^(a-1) = 1), so nothing is
    recorded as reached.

    A cotype gamma outside beta, or with |alpha| + |gamma| not |beta|, has
    no span; so the zero span, for an empty alpha, only with gamma = beta.
    """
    p, n = B.p, B.dim
    if not pt.contains(B.sizes, gamma) or pt.weight(alpha) + pt.weight(gamma) != n:
        return []
    prefix = B._order[2]
    image = B._step  # T on a row in layer order with a 0 appended
    columns = pt.transpose(gamma)
    level: dict[la.Rows, list[int]] = {(): []}  # span -> pivots, in layer order
    for a in alpha:
        kernel = [B._layered(v) for v in B.kernel(a)]
        grown: dict[la.Rows, list[int]] = {}
        for S, pivots in level.items():
            W = la.row_space([la.reduce_vec(v, S, pivots, p) for v in kernel], p)
            reached = set()  # lines of W whose closure with S is already taken
            for j, lines in _residue_lines(W, p):
                if a == 1:  # each line is its own residue, led by W[j]'s pivot
                    R_pivots = sorted([*pivots, W[j].index(1)])
                    if not _holds_cotype(R_pivots, n, prefix, columns):
                        continue
                for v in lines:
                    residues = [v]  # v is reduced modulo S, and not 0
                    if a > 1:
                        if v in reached:
                            continue
                        for _ in range(a - 1):
                            residues.append(la.reduce_vec(image((*residues[-1], 0)), S, pivots,
                                                          p))
                        if not any(residues[-1]):
                            continue
                        same = [v]  # v plus every combination of the later residues
                        for res in residues[1:]:
                            same = [tuple([(x + c * y) % p for x, y in zip(u, res)])
                                    for u in same for c in range(p)]
                        reached.update(same)
                        leads = [res.index(next(filter(None, res))) for res in residues]
                        R_pivots = sorted(pivots + leads)
                        if not _holds_cotype(R_pivots, n, prefix, columns):
                            continue
                    R, got = la.extend(S, pivots, residues, p)
                    if got != R_pivots:
                        raise InvariantViolation(
                            f"search: a span grown from a parent has pivots {got}, not"
                            f" {R_pivots} from its residues' leads: beta {list(B.sizes)},"
                            f" alpha {list(alpha)}, gamma {list(gamma)}, p = {p}, parent"
                            f" span {[[row[i] for i in _block_places(B)] for row in S]}")
                    grown.setdefault(R, R_pivots)
        level = grown
    return list(level.items())


def _holds_cotype(pivots: list[int], n: int, prefix, columns) -> bool:
    """The cotype test: whether the type of B / S, for a span S of B with
    ``pivots`` in B's layer order, contains gamma, whose ``columns`` are
    given.  dim(T^k B + S) is n - prefix[k] plus the pivots of S before
    prefix[k], which gives the rank r_k of T^k on B / S, and gamma lies
    inside the type of B / S when its k-th column is at most
    r_(k-1) - r_k."""
    d = n - len(pivots)
    r = [d - s + bisect_left(pivots, s) for s in prefix]
    return all([r[k] - r[k + 1] >= c for k, c in enumerate(columns)])


def _residue_lines(W: la.Rows, p: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """One vector per line of the row space of W, which is in rref, grouped
    by the row that leads it: (j, W[j] plus each vector of span(W[j+1:]))
    for every j, from the last row up, so every vector of a group has its
    first nonzero entry, a 1, at W[j]'s pivot.  The spans grow from the
    last row up, one row at a time, and each new vector is one addition
    of that row to a vector already listed; the span of all of W is not
    built."""
    groups: list[tuple[int, list[tuple[int, ...]]]] = []
    span = [(0,) * len(W[0])] if W else []  # span(W[j+1:])
    for j in range(len(W) - 1, -1, -1):
        row = W[j]
        shifted = [tuple([(x + y) % p for x, y in zip(row, v)]) for v in span]
        groups.append((j, shifted))
        if j:
            span = span + shifted
            for _ in range(p - 2):  # the multiples 2 W[j] .. (p-1) W[j]
                shifted = [tuple([(x + y) % p for x, y in zip(row, v)]) for v in shifted]
                span += shifted
    return groups
