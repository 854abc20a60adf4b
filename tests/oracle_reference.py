"""Per-tuple reference enumeration for the submodule census.

This is the definitional brute force that the level-wise search in
``lrlab.oracle`` replaced: close every generator tuple, with the i-th
generator inside ker T^alpha_i, and keep one span per canonical basis.
It works for every prime and is kept only so tests can require the same
set of invariant subspaces from both.  Next to it is the level-wise
search as it was before it dropped the spans that cannot reach dimension
|alpha|: it keeps every span of every dimension, and it lists the lines
of a residue space by coordinates, one product per line
(``residue_lines``).  ``unpruned_submodules`` is the census search as it
was before it was pruned by the quotient's type: it returns every
submodule of type alpha, so closed-form counts (Birkhoff's, Hall
symmetry) can check it, and the pruned search must equal it filtered to
one cotype (``cotype_submodules``).

``isomorphic`` is a referee for the census classes, which the census
forms by fingerprint: it looks for an isomorphism itself, among seeded
random combinations of a basis of the embedding morphisms
(``hom_basis``).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from lrlab import linalg
from lrlab.nilmod import _closed, invariant_closure
from lrlab.oracle import _residue_lines
from nilmod_reference import action_of, kron_hom_system, la, power, span_of


def distinct_submodules(B, alpha):
    """Canonical bases of the distinct invariant subspaces generated by
    tuples with the i-th generator inside ker T^alpha_i."""
    p, n = B.p, B.dim
    if not alpha:
        return [()]
    kernels = [la.null_space(power(B, a), p) for a in alpha]
    seen = set()
    coeff_ranges = [list(product(range(p), repeat=k.shape[0])) for k in kernels]
    for combo in product(*coeff_ranges):
        gens = []
        for coeffs, kern in zip(combo, kernels):
            if any(coeffs):
                v = np.zeros(n, dtype=np.int64)
                for c, row in zip(coeffs, kern):
                    if c:
                        v = (v + c * row) % p
                gens.append(v)
        seen.add(invariant_closure(B, gens)[0])
    return list(seen)


def level_wise_submodules(B, alpha):
    """Canonical bases of the same invariant subspaces, of every dimension,
    sorted: each level closes every span with one vector per line of the
    residue space of the kernel, and also keeps the span itself."""
    p = B.p
    level = {(): []}  # span -> pivots
    for a in alpha:
        kernel = B.kernel(a)
        grown = {}
        for S, pivots in level.items():
            grown.setdefault(S, pivots)
            W = linalg.row_space([linalg.reduce_vec(v, S, pivots, p) for v in kernel], p)
            for v in residue_lines(W, p):
                orbit = (v,)
                for _ in range(a - 1):
                    orbit += B.image(orbit[-1:])
                R, R_pivots = linalg.rref(S + orbit, p)
                grown.setdefault(R, R_pivots)
        level = grown
    return sorted(level)


def unpruned_submodules(B, alpha):
    """Canonical bases of the distinct invariant subspaces of dimension
    |alpha| generated by tuples with the i-th generator inside
    ker T^alpha_i, sorted: every submodule of type alpha, whatever its
    cotype.

    This is the census search before it was pruned by the quotient's
    type: it runs in block order and keeps every span that grew by the
    part at every level.
    """
    p = B.p
    level = {(): []}  # span -> pivots
    for a in alpha:
        kernel = B.kernel(a)
        grown = {}
        for S, pivots in level.items():
            W = linalg.row_space([linalg.reduce_vec(v, S, pivots, p) for v in kernel], p)
            for v in _residue_lines(W, p):
                orbit = (v,)
                for _ in range(a - 1):
                    orbit += B.image(orbit[-1:])
                if not any(linalg.reduce_vec(orbit[-1], S, pivots, p)):
                    continue
                R, R_pivots = linalg.rref(S + orbit, p)
                grown.setdefault(R, R_pivots)
        level = grown
    return sorted(level)


def cotype_submodules(B, alpha, gamma):
    """The spans of ``unpruned_submodules`` whose quotient has type gamma,
    in its order."""
    return [S for S in unpruned_submodules(B, alpha) if _closed(B, S).gamma == gamma]


def residue_lines(W, p):
    """One vector per line of the row space of W (rref), by coordinates:
    (1, t) times W[j:] for every j and every tail t over F_p, one product
    per line."""
    return [linalg.mul([(1,) + tail], W[j:], p)[0]
            for j in range(len(W))
            for tail in product(range(p), repeat=len(W) - 1 - j)]


def hom_basis(E1, E2):
    """A basis of Hom(E1, E2) as d2 x d1 arrays g, g T1 = T2 g and
    g(A1) <= A2: the null space of ``kron_hom_system``."""
    d1, d2 = E1.B.dim, E2.B.dim
    if d1 == 0 or d2 == 0:
        return []
    return [g.reshape(d2, d1) for g in la.null_space(kron_hom_system(E1, E2), E1.p)]


def isomorphic(E1, E2, rng, draws=200):
    """Whether some morphism E1 -> E2 is invertible, among ``draws``
    seeded random combinations of ``hom_basis``.

    An invertible g with g(A1) <= A2 maps A1 onto A2 when the two have
    equal dimension, so True is certain, and the g found is checked
    against both conditions here.  False only says that none was found;
    a caller that needs "not isomorphic" certain backs it with an
    invariant that isomorphic embeddings share, such as dim End.
    """
    p, n = E1.p, E1.B.dim
    if E1.p != E2.p or (n, E1.dim_sub()) != (E2.B.dim, E2.dim_sub()):
        return False
    if n == 0:
        return True
    basis = hom_basis(E1, E2)
    for _ in range(draws):
        g = np.zeros((n, n), dtype=np.int64)
        for h in basis:
            g = (g + rng.randrange(p) * h) % p
        if la.rank(g, p) == n:
            T1, T2, A1, A2 = action_of(E1.B), action_of(E2.B), span_of(E1), span_of(E2)
            assert not ((g @ T1 - T2 @ g) % p).any()
            assert la.rank(np.vstack([A2, (A1 @ g.T) % p]), p) == len(A2)
            return True
    return False
