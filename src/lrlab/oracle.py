"""Brute-force submodule census and fingerprint-based classification.

The census lists the invariant submodules of type alpha and cotype gamma
of the canonical ambient module level by level, in the module's layer
order, adding one generator per part of alpha and deduplicating by
reduced row echelon form after each.  A span that grows by less than
that part is dropped, since it can no longer reach dimension |alpha|,
and so is a span whose quotient's type does not contain gamma, since the
quotient by every span grown from it is a quotient of that one.  Each
level tries one vector per line of a residue space, listed by row
additions.  One path serves every prime.  The census re-checks the type
and cotype of every span it gets back, now in block order, and buckets
the spans by tableau and by hom-dimension fingerprint against a catalog
of known indecomposables.
Spans are visited in the order of their row tuples, so each class
representative is its least member.  Catalogs are built once per
argument and kept.
What does not change within one census is done once per census: the
fingerprint plan (the coordinate sets the cyclic catalog objects read,
and the image echelon form of the others) and one tableau per chain,
which every span of that chain shares.
A fingerprint solves no system for a catalog object with a cyclic
subspace (all of the 20-object catalog but X): its hom dimension is read
off the census embedding's Jordan coordinates (``nilmod.hom_positions``).
For the others, X among them, the images of the hom unknowns on the
object's module generators depend only on the census's block sizes;
their echelon form U is taken once per census (``nilmod.hom_images``),
and dim Hom(X, E) is the number of unknowns less the rank of U with each
part reduced modulo E's span.

Fingerprints agree for isomorphic embeddings; the converse is validated
against every nonisomorphy asserted by the worked examples but is not a
theorem for arbitrary inputs, so distinct classes of one tableau with
equal fingerprints on new shapes would be merged silently (across distinct
tableaux the census raises, naming a reproducer).  The tests referee the
published censuses by isomorphism, and show that a catalog without P(2,)
merges two classes of the five-class census.  Pass a richer catalog to
sharpen the separation.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations

from . import linalg as la
from . import partitions as pt
from .errors import DEFAULT_GUARD  # noqa: F401  (the census default, public here)
from .errors import GuardExceeded, InvariantViolation, guard_budget
from .nilmod import (Embedding, _closed, canonical_module, coordinate_meet_dim,
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

    A source C with a cyclic subspace needs no system: its hom dimension
    is a constant plus the dimension in which the target's span meets a
    coordinate subspace (``nilmod.hom_positions``), so its step is (base,
    index of its position set, None).  For a source whose subspace needs
    two generators (X) the images of the hom unknowns depend only on
    ``sizes`` (``nilmod.hom_images``), so its step is (unknowns, None,
    their echelon form U).  The plan is the steps, in catalog order, and
    the distinct position sets.  A catalog object over another field
    raises ValueError.
    """
    sets: dict[tuple[int, ...], int] = {}
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
            steps.append((base, sets.setdefault(outside, len(sets)), None))
    return steps, tuple(sets)


def _fingerprint(plan, E: Embedding) -> tuple[int, ...]:
    """The fingerprint of E by ``plan``: E's span is ranked once per
    distinct position set, and for each non-cyclic source the rank of U
    with every part reduced modulo E's span is taken."""
    steps, sets = plan
    meets = [coordinate_meet_dim(E.span, outside, E.p) for outside in sets]
    return tuple([base + meets[i] if U is None else base - _reduced_rank(U, E)
                  for base, i, U in steps])


def _reduced_rank(U: la.Rows, E: Embedding) -> int:
    """The rank of U with each of its parts of E.B.dim entries reduced
    modulo E's span.  The span is in rref, so each part loses the span's
    rows scaled by its own entries at their pivots (see ``la.reduce_vec``);
    ``la.rank`` takes the entries mod p."""
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
    budgets stay comparable across implementations.  The search returns
    only spans of type alpha and cotype gamma, invariant and in rref, so
    their embeddings need no closure; both types are re-checked, and a
    span of another type or cotype raises, naming shape, p and span.
    That failure and a fingerprint collision name the catalog, and with
    the default one end in the ``lrlab oracle`` command that reproduces
    them.
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
    spans = _distinct_submodules(B, shape.alpha, shape.gamma)

    tableaux: dict[tuple[pt.Partition, ...], LRTableau] = {}  # chain -> its tableau
    per_tableau: dict[LRTableau, int] = {}
    buckets: dict[tuple[int, ...], CensusClass] = {}
    total = 0
    for span in spans:
        E = _closed(B, span)  # the search closed and reduced it
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


def _distinct_submodules(B, alpha, gamma) -> list[la.Rows]:
    """Canonical bases of the distinct invariant subspaces S of B of type
    alpha and cotype gamma (B / S of type gamma), sorted; alpha and gamma
    as in a ``Shape`` whose beta is B's type.

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

    The search runs in B's layer order (``nilmod._layer_order``), where
    T^k B is the coordinates from prefix[k] on.  So the pivots of the
    echelon form of a span S, which the search takes anyway, give
    dim(T^k B + S) by bisection, and with it the rank r_k of T^k on B / S
    (as in an embedding's layer table).  A span on the way to A has B / A
    as a quotient of B / S, and a quotient's partition lies inside the
    module's (Macdonald, *Symmetric functions and Hall polynomials*,
    Ch. II).  So a span is dropped unless gamma lies inside the type of
    B / S: unless the k-th column of gamma is at most r_(k-1) - r_k, the
    number of parts of B / S of size at least k.  After the last level
    B / S has |beta| - |alpha| = |gamma| boxes, so there containment is
    equality, and every span kept has cotype gamma.  The survivors go
    back to block order, one ``rref`` each, and are sorted, so the order
    in which lines and spans are visited does not show.
    """
    p, n = B.p, B.dim
    order, shift, prefix = B._order
    back = sorted(range(n), key=order.__getitem__)  # q -> its index in layer order
    # T on a row in layer order with a 0 appended; T = 0 below dimension 2
    image = operator.itemgetter(*shift) if n > 1 else lambda row: (0,) * n
    columns = pt.transpose(gamma)
    level: dict[la.Rows, list[int]] = {(): []}  # span -> pivots, in layer order
    for a in alpha:
        kernel = [tuple([v[q] for q in order]) for v in B.kernel(a)]
        grown: dict[la.Rows, list[int]] = {}
        for S, pivots in level.items():
            W = la.row_space([la.reduce_vec(v, S, pivots, p) for v in kernel], p)
            for v in _residue_lines(W, p):
                orbit = (v,)
                for _ in range(a - 1):
                    orbit += (image((*orbit[-1], 0)),)
                if not any(la.reduce_vec(orbit[-1], S, pivots, p)):
                    continue
                R, R_pivots = la.rref(S + orbit, p)
                d = n - len(R_pivots)
                r = [d - s + bisect_left(R_pivots, s) for s in prefix]
                if all([r[k] - r[k + 1] >= c for k, c in enumerate(columns)]):
                    grown.setdefault(R, R_pivots)
        level = grown
    return sorted([la.rref([tuple([row[i] for i in back]) for row in S], p)[0]
                   for S in level])


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
