"""Brute-force submodule census and fingerprint-based classification.

The census lists the invariant submodules of the canonical ambient
module level by level, adding one generator per part of alpha and
deduplicating by reduced row echelon form after each; one path serves
every prime.  It filters the result to the requested subspace and
quotient types and buckets the survivors by tableau and by
hom-dimension fingerprint against a catalog of known indecomposables.
Spans are visited in space_key order, so each class representative is
its least-keyed member.

Fingerprints agree for isomorphic embeddings; the converse is validated
against every nonisomorphy asserted by the worked examples but is not a
theorem for arbitrary inputs, so distinct classes with equal
fingerprints on new shapes would be merged silently.  Pass a richer
catalog to sharpen the separation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from . import linalg as la
from . import partitions as pt
from .errors import GuardExceeded, InvariantViolation
from .nilmod import (Embedding, canonical_module, hom_dim, realize_picket,
                     realize_pole, tableau_of_embedding)
from .poles import Pole, minimal_ambient
from .tableaux import LRTableau, Shape

DEFAULT_GUARD = 2**22


def _effective_guard(guard: int | None) -> int:
    if guard is not None:
        return guard
    env = os.environ.get("LRLAB_GUARD")
    return int(env) if env else DEFAULT_GUARD


def s4_catalog(p: int) -> list[tuple[str, Embedding]]:
    """The 20 indecomposable embeddings with nilpotency index at most 4.

    Four empty pickets, the fifteen poles over layer sets inside
    {0, 1, 2, 3} with minimal ambient, and the one object X whose
    subspace needs two generators.  X's tableau is re-checked against
    its known chain before the catalog is returned.
    """
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
    return catalog


def _x_object(p: int) -> Embedding:
    """Ambient N_(4,2); subspace generated by T x + y and T y, where x, y
    generate the two blocks."""
    module = canonical_module((4, 2), p, shifts=[0, 1])
    g1 = np.zeros(6, dtype=np.int64)
    g1[1] = 1  # T x
    g1[4] = 1  # y
    g2 = np.zeros(6, dtype=np.int64)
    g2[5] = 1  # T y
    return Embedding(module, [g1, g2])


def iso_fingerprint(E: Embedding, catalog) -> tuple[int, ...]:
    """hom_dim(C, E) for every catalog object C, in catalog order."""
    return tuple(hom_dim(C, E) for _, C in catalog)


@dataclass
class CensusClass:
    fingerprint: tuple[int, ...]
    tableau: LRTableau
    representative: Embedding
    submodule_count: int


@dataclass
class Census:
    shape: Shape
    p: int
    total_submodules: int
    per_tableau: dict[LRTableau, int]
    classes: list[CensusClass]
    catalog_names: list[str] = field(default_factory=list)

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
                                   key=lambda kv: kv[0].to_json()["chain"])
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
    budgets stay comparable across implementations.
    """
    if not slow and nominal_tuple_count(shape, p) > _effective_guard(guard):
        raise GuardExceeded(
            f"census for {shape} over F_{p} needs {nominal_tuple_count(shape, p)}"
            f" nominal tuples; pass slow=True to run anyway"
        )
    if catalog is None:
        top = shape.beta[0] if shape.beta else 0
        catalog = s4_catalog(p) if top <= 4 else picket_pole_catalog(p, top)

    B = canonical_module(shape.beta, p)
    n = B.dim
    spans = _distinct_submodules(B, shape.alpha)

    per_tableau: dict[LRTableau, int] = {}
    buckets: dict[tuple[int, ...], CensusClass] = {}
    total = 0
    for span in spans:
        E = Embedding(B, span)
        if E.alpha != shape.alpha or E.gamma != shape.gamma:
            continue
        total += 1
        t = tableau_of_embedding(E)
        per_tableau[t] = per_tableau.get(t, 0) + 1
        fp = iso_fingerprint(E, catalog)
        if fp in buckets:
            cls = buckets[fp]
            cls.submodule_count += 1
            if cls.tableau != t:
                raise InvariantViolation(
                    "fingerprint collision across distinct tableaux"
                )
        else:
            buckets[fp] = CensusClass(fp, t, E, 1)
    classes = sorted(
        buckets.values(), key=lambda c: (c.tableau.to_json()["chain"], c.fingerprint)
    )
    return Census(shape, p, total, per_tableau, classes,
                  [name for name, _ in catalog])


def picket_pole_catalog(p: int, top: int) -> list[tuple[str, Embedding]]:
    """Pickets and poles with ambient parts at most ``top``; a fallback
    separating family for shapes beyond nilpotency four."""
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
    return catalog


def _distinct_submodules(B, alpha) -> list[np.ndarray]:
    """Canonical bases of the distinct invariant subspaces generated by
    tuples with the i-th generator inside ker T^alpha_i, in space_key order.

    The search adds one generator per part of alpha and deduplicates after
    each.  For an invariant span S and v in ker T^a, the closure of S and v
    is the span of S, v, T v, ..., T^(a-1) v, and it depends only on the
    line through the residue of v modulo S; so each level closes S with one
    vector per line of the residue space of the kernel.
    """
    p, n = B.p, B.dim
    zero = np.zeros((0, n), dtype=np.int64)
    level = {la.space_key(zero): (zero, [])}
    for a in alpha:
        kernel = la.null_space(B.power(a), p)
        grown: dict[bytes, tuple[np.ndarray, list[int]]] = {}
        for S, pivots in level.values():
            grown.setdefault(la.space_key(S), (S, pivots))
            W = la.row_space((kernel - kernel[:, pivots] @ S) % p, p)
            r = W.shape[0]
            # one residue per line: first nonzero coordinate over W is 1
            for j in range(r):
                for tail in product(range(p), repeat=r - 1 - j):
                    v = W[j] + np.array(tail, dtype=np.int64) @ W[j + 1:]
                    orbit = [S, v % p]
                    for _ in range(a - 1):
                        orbit.append((B.action @ orbit[-1]) % p)
                    R, R_pivots = la.rref(np.vstack(orbit), p)
                    grown.setdefault(la.space_key(R), (R, R_pivots))
        level = grown
    return [level[key][0] for key in sorted(level)]
