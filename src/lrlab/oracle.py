"""Brute-force submodule census and fingerprint-based classification.

The census lists the invariant submodules of type alpha of the
canonical ambient module level by level, adding one generator per part
of alpha and deduplicating by reduced row echelon form after each; a
span that grows by less than that part is dropped, since it can no
longer reach dimension |alpha|.  Each level tries one vector per line of
a residue space, listed by row additions.  One path serves every prime.
The census filters the result to the requested quotient type and buckets
the survivors by tableau and by hom-dimension fingerprint against a
catalog of known indecomposables.
Spans are visited in the order of their row tuples, so each class
representative is its least member.  Catalogs are built once per
argument and kept.
What does not change within one census is done once per census: the
fingerprint plan (which catalog objects need a system, and the distinct
coordinate sets the others read) and one tableau per chain, which every
span of that chain shares.
A fingerprint solves no system for a catalog object with a cyclic
subspace (all of the 20-object catalog but X): its hom dimension is read
off the census embedding's Jordan coordinates (``nilmod.hom_positions``).
Only the others, X among them, are solved by ``nilmod.hom_dim``, on
X's two module generators against the census embedding's functionals in
Jordan coordinates.

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
from functools import lru_cache
from itertools import combinations

from . import linalg as la
from . import partitions as pt
from .errors import DEFAULT_GUARD  # noqa: F401  (the census default, public here)
from .errors import GuardExceeded, InvariantViolation, guard_budget
from .nilmod import (Embedding, _closed, canonical_module, coordinate_meet_dim,
                     generator_blocks, hom_dim, hom_positions, realize_picket,
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
    index of its position set).  A source whose subspace needs two
    generators (X) is its own step, solved by ``hom_dim``.  The plan is
    the steps, in catalog order, and the distinct position sets.  A
    catalog object over another field raises ValueError.
    """
    sets: dict[tuple[int, ...], int] = {}
    steps = []
    for _, C in catalog:
        if C.p != p:
            raise ValueError("embeddings live over different fields")
        blocks = generator_blocks(C)
        if blocks is None:
            steps.append(C)
        else:
            base, outside = hom_positions(blocks, sizes)
            steps.append((base, sets.setdefault(outside, len(sets))))
    return steps, tuple(sets)


def _fingerprint(plan, E: Embedding) -> tuple[int, ...]:
    """The fingerprint of E by ``plan``: E's span is ranked once per
    distinct position set, and each non-cyclic source is solved."""
    steps, sets = plan
    meets = [coordinate_meet_dim(E.span, outside, E.p) for outside in sets]
    return tuple([hom_dim(step, E) if isinstance(step, Embedding)
                  else step[0] + meets[step[1]] for step in steps])


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
    only spans of dimension |alpha|, invariant and in rref, so their
    embeddings need no closure; each has type alpha (re-checked: a span
    of another type raises, naming shape, p and span), and the census
    keeps those with quotient gamma.  Both failures name the catalog, and
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
    spans = _distinct_submodules(B, shape.alpha)

    tableaux: dict[tuple[pt.Partition, ...], LRTableau] = {}  # chain -> its tableau
    per_tableau: dict[LRTableau, int] = {}
    buckets: dict[tuple[int, ...], CensusClass] = {}
    total = 0
    for span in spans:
        E = _closed(B, span)  # the search closed and reduced it
        if E.alpha != shape.alpha:
            raise InvariantViolation(
                f"search returned a span of type {list(E.alpha)}: shape"
                f" {json.dumps(shape.to_json())}, p = {p}, span"
                f" {[list(row) for row in span]}, catalog {catalog_note}")
        if E.gamma != shape.gamma:
            continue
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


def _distinct_submodules(B, alpha) -> list[la.Rows]:
    """Canonical bases of the distinct invariant subspaces of dimension
    |alpha| generated by tuples with the i-th generator inside
    ker T^alpha_i, sorted; their orbits form a basis, so each has type
    alpha.

    The search adds one generator per part of alpha and deduplicates after
    each.  For an invariant span S and v in ker T^a, the closure of S and v
    is the span of S, v, T v, ..., T^(a-1) v, and it depends only on the
    line through the residue of v modulo S; so each level closes S with one
    vector per line of the residue space W of the kernel
    (``_residue_lines``).  A level adds at most a dimensions, and exactly a
    unless T^(a-1) v lies in S, so only spans that grew by a at every level
    are kept.  The order in which lines and spans are visited does not
    show: the last level is sorted.
    """
    p = B.p
    level: dict[la.Rows, list[int]] = {(): []}  # span -> pivots
    for a in alpha:
        kernel = B.kernel(a)
        grown: dict[la.Rows, list[int]] = {}
        for S, pivots in level.items():
            W = la.row_space([la.reduce_vec(v, S, pivots, p) for v in kernel], p)
            for v in _residue_lines(W, p):
                orbit = (v,)
                for _ in range(a - 1):
                    orbit += B.image(orbit[-1:])
                if not any(la.reduce_vec(orbit[-1], S, pivots, p)):
                    continue
                R, R_pivots = la.rref(S + orbit, p)
                grown.setdefault(R, R_pivots)
        level = grown
    return sorted(level)


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
