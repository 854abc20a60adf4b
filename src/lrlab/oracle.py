"""Brute-force submodule census and fingerprint-based classification.

The census searches one side of the duality D(A <= B) = ((B/A)* <= B*),
which swaps type and cotype (``_census_spans``): the side whose search
visits fewer generator tuples, p^e(lambda) for type lambda with
e(lambda) the sum of min(a, b) over the parts a of lambda and the blocks
b of beta.  On the dual side it lists the spans of type gamma and cotype
alpha and maps each back by its block-reversed annihilator.  The guard
still counts the nominal tuples of type alpha.
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
(``linalg.extend``).  One path serves every prime.  The census
re-checks the type and cotype of every span it gets back, reading its
layer table off the search's own echelon form, and buckets the spans,
now in block order, by tableau and by hom-dimension fingerprint against
a catalog of known indecomposables.
Spans are visited in the order of their row tuples, so each class
representative is its least member.  Catalogs are built once per
argument and kept.
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
(``nilmod.hom_images``), and each span reduces it
(``nilmod._reduced_rank``).

Fingerprints agree for isomorphic embeddings.  For beta_1 <= 4 the
converse is a theorem at p = 2 and 3.  The 20 catalog objects are all
the indecomposables of nilpotency index at most 4 (Ringel and
Schmidmeier, J. reine angew. Math. 614, 2008).  So by Krull-Schmidt a
census member is fixed up to isomorphism by its multiplicities m, and
its fingerprint is H m with H the catalog's matrix of hom dimensions.
The tests check at both primes that each object has a local
endomorphism ring and that H is invertible, and decompose every class
of the pinned and the benchmark censuses.  For beta_1 >= 5 the picket
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
from .nilmod import (Embedding, _closed, _not_invariant, _reduced_rank, block_offsets,
                     canonical_module, generator_blocks, hom_images, hom_positions,
                     realize_picket, realize_pole, tableau_of_embedding)
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
    """The fingerprint of E by ``plan``: one echelon form of E's span per
    chain, its columns in the chain's order, whose pivots below L count
    the rank of the set with prefix length L; and for each non-cyclic
    source the rank of U with every part reduced modulo E's span."""
    steps, orders = plan
    span, p, n = E.span, E.p, len(E.span)
    pivots = [la.rref([[row[q] for q in order] for row in span], p)[1] for order in orders]
    return tuple([base + n - bisect_left(pivots[i], L) if U is None
                  else base - _reduced_rank(U, E) for base, i, L, U in steps])


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
    reproduces them.
    """
    if not slow and nominal_tuple_count(shape, p) > guard_budget(guard):
        raise GuardExceeded(
            f"census for {shape} over F_{p} needs {nominal_tuple_count(shape, p)}"
            f" nominal tuples; raise LRLAB_GUARD to allow it, or pass --slow"
            " (slow=True from Python)"
        )
    if catalog is None:
        top = shape.beta[0] if shape.beta else 0
        if top <= 4:
            catalog, catalog_note = s4_catalog(p), f"s4_catalog({p})"
        else:
            catalog, catalog_note = picket_pole_catalog(p, top), f"picket_pole_catalog({p}, {top})"
        flag = " --slow" if nominal_tuple_count(shape, p) > guard_budget() else ""
        catalog_note += (f"; reproduce with: lrlab oracle"
                   f" '{json.dumps(shape.to_json(), separators=(',', ':'))}' -p {p}{flag}")
    else:
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
    total = 0
    for span, layered in spans:
        E = _closed(B, span, layered)  # the search closed and reduced it
        if E.alpha != shape.alpha or E.gamma != shape.gamma:
            raise InvariantViolation(
                f"search returned a span of type {list(E.alpha)} and cotype"
                f" {list(E.gamma)}: shape {json.dumps(shape.to_json())}, p = {p},"
                f" span {[list(row) for row in span]}, catalog {catalog_note}")
        total += 1
        chain = E.chain()
        t = tableaux.get(chain)
        if t is None:
            t = tableaux[chain] = tableau_of_embedding(E)
        per_tableau[t] = per_tableau.get(t, 0) + 1
        fp = _fingerprint(plan, E)
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


def _census_spans(B, alpha, gamma) -> list[tuple[la.Rows, tuple[la.Rows, list[int]] | None]]:
    """The spans of B of type alpha and cotype gamma, sorted, as
    ``_distinct_submodules`` returns them, searched on the cheaper side
    (``_searches_dual``).

    D(A <= B) = ((B/A)* <= B*) is a duality on invariant-subspace pairs,
    under which the type and the cotype change places (Ringel and
    Schmidmeier, J. reine angew. Math. 614, 2008), and B* is isomorphic
    to B: reversing the coordinates inside each Jordan block (rev) takes
    the transposed action to T, since rev T^t rev = T.  So A' -> A =
    (rev A')^perp, the annihilator of A' reversed, takes the spans of type
    gamma and cotype alpha one to one to those of type alpha and cotype
    gamma; the zero span maps to all of B.  Each mapped span is re-checked
    invariant (the message of ``invariant_closure``'s check) and handed
    over without a layer-order echelon form, which ``_closed`` derives.
    Sorted by the block-order span, as the search sorts, so the side does
    not show.  The dual search takes alpha as its cotype, which must lie
    inside beta; a type that does not has no submodule.
    """
    if not _searches_dual(B.sizes, alpha, gamma):
        return _distinct_submodules(B, alpha, gamma)
    if not pt.contains(B.sizes, alpha):
        return []
    p, n = B.p, B.dim
    rev = [o + b - 1 - j for o, b in zip(block_offsets(B.sizes), B.sizes) for j in range(b)]
    spans = []
    for dual, _ in _distinct_submodules(B, gamma, alpha):
        A = la.null_space([[row[q] for q in rev] for row in dual], p) if dual else la.identity(n)
        pivots = [row.index(1) for row in A]
        if any([any(la.reduce_vec(v, A, pivots, p)) for v in B.image(A)]):
            _not_invariant(B, A)
        spans.append(A)
    return [(A, None) for A in sorted(spans)]


def _distinct_submodules(B, alpha, gamma) -> list[tuple[la.Rows, tuple[la.Rows, list[int]]]]:
    """Canonical bases of the distinct invariant subspaces S of B of type
    alpha and cotype gamma (B / S of type gamma), sorted, each with its
    echelon form and pivots in B's layer order, which the search built
    and an embedding's layer table reads; alpha and gamma as in a
    ``Shape`` whose beta is B's type.

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
    is the cotype test.  After the last level B / S has |beta| - |alpha|
    = |gamma| boxes, so there containment is equality, and every span
    kept has cotype gamma.  The survivors go back to block order, one
    ``rref`` each, and are sorted by that form, so the order in which
    lines and spans are visited does not show.
    """
    p, n = B.p, B.dim
    order, _, prefix = B._order
    back = sorted(range(n), key=order.__getitem__)  # q -> its index in layer order
    image = B._step  # T on a row in layer order with a 0 appended
    columns = pt.transpose(gamma)
    level: dict[la.Rows, list[int]] = {(): []}  # span -> pivots, in layer order
    for a in alpha:
        kernel = [B._layered(v) for v in B.kernel(a)]
        grown: dict[la.Rows, list[int]] = {}
        for S, pivots in level.items():
            W = la.row_space([la.reduce_vec(v, S, pivots, p) for v in kernel], p)
            reached = set()  # lines of W whose closure with S is already taken
            for v in _residue_lines(W, p):
                if v in reached:
                    continue
                residues = [v]  # v is reduced modulo S, and not 0
                for _ in range(a - 1):
                    residues.append(la.reduce_vec(image((*residues[-1], 0)), S, pivots, p))
                if not any(residues[-1]):
                    continue
                same = [v]  # v plus every combination of the later residues
                for res in residues[1:]:
                    same = [tuple([(x + c * y) % p for x, y in zip(u, res)])
                            for u in same for c in range(p)]
                reached.update(same)
                leads = [res.index(next(filter(None, res))) for res in residues]  # first nonzero
                R_pivots = sorted(pivots + leads)
                d = n - len(R_pivots)
                r = [d - s + bisect_left(R_pivots, s) for s in prefix]
                if all([r[k] - r[k + 1] >= c for k, c in enumerate(columns)]):
                    R, got = la.extend(S, pivots, residues, p)
                    if got != R_pivots:
                        raise InvariantViolation(
                            f"search: a span grown from a parent has pivots {got}, not"
                            f" {R_pivots} from its residues' leads: beta {list(B.sizes)},"
                            f" alpha {list(alpha)}, gamma {list(gamma)}, p = {p}, parent"
                            f" span {[[row[i] for i in back] for row in S]}")
                    grown.setdefault(R, R_pivots)
        level = grown
    return sorted([(la.rref([tuple([row[i] for i in back]) for row in S], p)[0], (S, pivots))
                   for S, pivots in level.items()])


def _residue_lines(W: la.Rows, p: int) -> list[tuple[int, ...]]:
    """One vector per line of the row space of W, which is in rref: W[j]
    plus each vector of span(W[j+1:]), for every j, so the first nonzero
    entry of each is 1.  The spans grow from the last row up, one row at a
    time, and each new vector is one addition of that row to a vector
    already listed; the span of all of W is not built."""
    lines: list[tuple[int, ...]] = []
    span = [(0,) * len(W[0])] if W else []  # span(W[j+1:])
    for j in range(len(W) - 1, -1, -1):
        row = W[j]
        shifted = [tuple([(x + y) % p for x, y in zip(row, v)]) for v in span]
        lines += shifted
        if j:
            span = span + shifted
            for _ in range(p - 2):  # the multiples 2 W[j] .. (p-1) W[j]
                shifted = [tuple([(x + y) % p for x, y in zip(row, v)]) for v in shifted]
                span += shifted
    return lines
