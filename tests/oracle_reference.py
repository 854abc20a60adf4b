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
one cotype (``cotype_submodules``).  ``searched`` gives the pruned
search's spans as the embeddings the census builds from them, for the
tests that read the search's own output.  ``per_line_submodules`` is
the search as it was before its single-box levels took the cotype test
once per row of the residue space: every line alone, listed flat by
row additions (``listed_residue_lines``).

``fingerprint_plan`` and ``fingerprint`` are the census fingerprint as
it was before the position sets of one census were covered by chains:
one ``coordinate_meet_dim``, a full rank, per distinct position set.

``isomorphic`` is a referee for the census classes, which the census
forms by fingerprint: it looks for an isomorphism itself, among seeded
random combinations of a basis of the embedding morphisms
(``hom_basis``).

``closed_form_census`` is the census for beta_1 <= 4 without a search,
by Krull-Schmidt over the 20 indecomposables of ``s4_catalog``: its
classes are the multiplicities m in N^20 whose summed types are
(alpha, beta, gamma), each with fingerprint H m and
|Aut N_beta| / |Aut M| members.  It needs H = [dim Hom(C_i, C_j)]
(``hom_matrix``, by ``hom_dim``) and its inverse, which is an integer
matrix (``integer_inverse``, over the rationals).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np

from lrlab import linalg
from lrlab.nilmod import (Embedding, _from_echelon, _reduced_rank, coordinate_meet_dim,
                          direct_sum, generator_blocks, hom_dim, hom_images, hom_positions)
from lrlab import partitions as pt
from lrlab.errors import InvariantViolation
from lrlab.nilmod import _block_places
from lrlab.oracle import _distinct_submodules
from nilmod_reference import (action_of, image, kron_hom_system, la, orbit_closure, power,
                              span_of)


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
        seen.add(orbit_closure(B, gens)[0])
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
                    orbit += image(B, orbit[-1:])
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
            for v in listed_residue_lines(W, p):
                orbit = (v,)
                for _ in range(a - 1):
                    orbit += image(B, orbit[-1:])
                if not any(linalg.reduce_vec(orbit[-1], S, pivots, p)):
                    continue
                R, R_pivots = linalg.rref(S + orbit, p)
                grown.setdefault(R, R_pivots)
        level = grown
    return sorted(level)


def cotype_submodules(B, alpha, gamma):
    """The spans of ``unpruned_submodules`` whose quotient has type gamma,
    in its order."""
    return [S for S in unpruned_submodules(B, alpha) if Embedding(B, S).gamma == gamma]


def per_line_submodules(B, alpha, gamma):
    """The census search as it was before its single-box levels took the
    cotype test once per row of the residue space: the (echelon form,
    pivots) in B's layer order of the spans of type alpha and cotype
    gamma, in the order it reached them.  Every line, of every level, has
    its residues, leads and cotype test taken alone, and is recorded as
    reached."""
    p, n = B.p, B.dim
    if not pt.contains(B.sizes, gamma) or pt.weight(alpha) + pt.weight(gamma) != n:
        return []
    prefix = B._order[2]
    image = B._step
    columns = pt.transpose(gamma)
    level = {(): []}  # span -> pivots, in layer order
    for a in alpha:
        kernel = [B._layered(v) for v in B.kernel(a)]
        grown = {}
        for S, pivots in level.items():
            W = linalg.row_space([linalg.reduce_vec(v, S, pivots, p) for v in kernel], p)
            reached = set()
            for v in listed_residue_lines(W, p):
                if v in reached:
                    continue
                residues = [v]
                for _ in range(a - 1):
                    residues.append(linalg.reduce_vec(image((*residues[-1], 0)), S, pivots, p))
                if not any(residues[-1]):
                    continue
                same = [v]
                for res in residues[1:]:
                    same = [tuple([(x + c * y) % p for x, y in zip(u, res)])
                            for u in same for c in range(p)]
                reached.update(same)
                leads = [res.index(next(filter(None, res))) for res in residues]
                R_pivots = sorted(pivots + leads)
                d = n - len(R_pivots)
                r = [d - s + bisect_left(R_pivots, s) for s in prefix]
                if all([r[k] - r[k + 1] >= c for k, c in enumerate(columns)]):
                    R, got = linalg.extend(S, pivots, residues, p)
                    if got != R_pivots:
                        raise InvariantViolation(
                            f"search: a span grown from a parent has pivots {got}, not"
                            f" {R_pivots} from its residues' leads: beta {list(B.sizes)},"
                            f" alpha {list(alpha)}, gamma {list(gamma)}, p = {p}, parent"
                            f" span {[[row[i] for i in _block_places(B)] for row in S]}")
                    grown.setdefault(R, R_pivots)
        level = grown
    return list(level.items())


def searched(B, alpha, gamma):
    """The embeddings of the forward search's spans of type alpha and
    cotype gamma, built as the census builds them from the layer-order
    echelon forms the search hands over, sorted by block-order span."""
    found = _distinct_submodules(B, alpha, gamma)
    return sorted([_from_echelon(B, S, pivots) for S, pivots in found], key=lambda E: E.span)


def listed_residue_lines(W, p):
    """One vector per line of the row space of W (rref), as the search
    listed them before it grouped them by row: W[j] plus each vector of
    span(W[j+1:]), for every j from the last row up, each new vector one
    addition of a row to a vector already listed."""
    lines = []
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


def residue_lines(W, p):
    """One vector per line of the row space of W (rref), by coordinates:
    (1, t) times W[j:] for every j and every tail t over F_p, one product
    per line."""
    return [linalg.mul([(1,) + tail], W[j:], p)[0]
            for j in range(len(W))
            for tail in product(range(p), repeat=len(W) - 1 - j)]


def fingerprint_plan(catalog, sizes, p):
    """(steps, sets): per catalog object, in order, (base, index of its
    position set, None) for a cyclic source (``hom_positions``) and
    (unknowns, None, U) for another (``hom_images``); and the distinct
    position sets, in the order of their first use."""
    sets = {}
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


def fingerprint(plan, E):
    """The fingerprint of E by a ``fingerprint_plan``: E's span is ranked
    once per distinct position set."""
    steps, sets = plan
    meets = [coordinate_meet_dim(E.span, outside, E.p) for outside in sets]
    return tuple([base + meets[i] if U is None else base - _reduced_rank(U, E)
                  for base, i, U in steps])


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


def hom_matrix(catalog):
    """H[i][j] = dim Hom(C_i, C_j) over the catalog, by ``hom_dim``: the
    fingerprint of a sum with multiplicities m is H m."""
    return [[hom_dim(ci, cj) for _, cj in catalog] for _, ci in catalog]


def integer_inverse(H):
    """H^-1 by Gauss-Jordan over the rationals, for an H whose inverse is
    an integer matrix (a unimodular H); anything else fails an assert."""
    n = len(H)
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(H)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = [a - aug[r][col] * b for a, b in zip(aug[r], aug[col])]
    inverse = [row[n:] for row in aug]
    assert all(x.denominator == 1 for row in inverse for x in row), "H is not unimodular"
    return [[int(x) for x in row] for row in inverse]


def mat_vec(matrix, v):
    """The matrix times the vector v: m = H^-1 fp decodes a fingerprint,
    and fp = H m encodes multiplicities."""
    return [sum(a * b for a, b in zip(row, v)) for row in matrix]


def _gl_order(k, q):
    """|GL_k(F_q)|."""
    out = 1
    for i in range(k):
        out *= q ** k - q ** i
    return out


def _aut_order(H, m, q):
    """|Aut M| for M the sum with multiplicities m of catalog objects
    whose endomorphism rings are local with residue field F_q: End M has
    dimension m^T H m, and modulo its radical it is the product of the
    matrix rings M_(m_j)(F_q)."""
    dim_end = sum(mi * H[i][j] * mj for i, mi in enumerate(m) for j, mj in enumerate(m))
    out = q ** (dim_end - sum(x * x for x in m))
    for x in m:
        out *= _gl_order(x, q)
    return out


def _parts(alpha, beta, gamma):
    """The parts of three partitions, as one multiset."""
    return Counter([("alpha", a) for a in alpha] + [("beta", b) for b in beta]
                   + [("gamma", c) for c in gamma])


def _sums(types, remaining, j=0):
    """Every m, over the catalog objects from j on, whose objects' summed
    ``_parts`` are ``remaining``.  Every object has a part in beta, so
    each multiplicity is bounded."""
    if j == len(types):
        if not +remaining:
            yield []
        return
    k = 0
    while True:
        for rest in _sums(types, remaining, j + 1):
            yield [k] + rest
        if any(remaining[key] < count for key, count in types[j].items()):
            return
        remaining = remaining - types[j]
        k += 1


def closed_form_census(shape, p, catalog, H):
    """The census of ``shape`` over F_p, beta_1 <= 4, by Krull-Schmidt:
    the sorted (chain, fingerprint, count) of its classes.

    Every member is a sum of the catalog objects, fixed up to isomorphism
    by its multiplicities m, and types add under sums, so the classes are
    the m whose summed types are the shape's.  A class has fingerprint
    H m and the tableau chain of the sum (``direct_sum``).  Aut N_beta
    acts transitively on the submodules A with (A <= N_beta) isomorphic
    to M, with stabilizer Aut M, so the class has |Aut N_beta| / |Aut M|
    members; N_beta is the sum of the empty pickets (0 <= N_n), one per
    part n of beta.
    """
    types = [_parts(C.alpha, C.beta, C.gamma) for _, C in catalog]
    ambient = [shape.beta.count(C.beta[0]) if not C.alpha and len(C.beta) == 1 else 0
               for _, C in catalog]
    out = []
    for m in _sums(types, _parts(shape.alpha, shape.beta, shape.gamma)):
        summed = direct_sum(*[C for (_, C), k in zip(catalog, m) for _ in range(k)])
        count, rest = divmod(_aut_order(H, ambient, p), _aut_order(H, m, p))
        assert rest == 0, (shape, m)
        out.append((summed.chain(), tuple(mat_vec(H, m)), count))
    return sorted(out)
