import hashlib
import itertools
import json
import random
import re

import numpy as np
import pytest

import nilmod_reference as ref
import oracle_reference
import tableaux_reference
from conftest import (FIVE_CLASS, TWO_CLASS, census_pool, iter_all_shapes,
                      iter_strip_shapes, random_pole)
from linalg_reference import mat
from lrlab import linalg as la
from lrlab import nilmod
from lrlab import tableaux as tb
from lrlab.errors import InvariantViolation
from lrlab.nilmod import (Embedding, canonical_module, direct_sum,
                          generator_blocks, graded_pole_module, hom_dim,
                          hom_positions, invariant_closure,
                          invariant_intersection_dim, jordan_basis,
                          jordan_type, mu_entries,
                          picket_embedding, picket_dominance_test,
                          picket_hom_profile, pole_generator, realize_picket,
                          realize_pole, realize_tableau, tableau_of_embedding)
from lrlab.boxmoves import box_successors
from lrlab.cli import run
from lrlab.oracle import (_distinct_submodules, _fingerprint, _fingerprint_plan,
                          enumerate_submodules, iso_fingerprint, picket_pole_catalog,
                          s4_catalog)
from lrlab.partitions import partition, partitions_of
from lrlab.poles import (Picket, Pole, minimal_ambient, picket_tableau,
                         pole_pieces, pole_tableau, tableau_union)
from lrlab.tableaux import (LRTableau, Column, Shape, dominance_leq,
                            enumerate_tableaux, is_horizontal_strip)
from lrlab import witness
from lrlab.witness import witness_sequence


def test_nilmodule_rejects_non_nilpotent():
    # the kernel chain stops growing short of the whole space
    for T in ([[1, 0], [0, 1]], [[0, 0, 0], [1, 0, 0], [0, 0, 1]]):
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_basis(tuple(map(tuple, T)), 2)
        with pytest.raises(ValueError, match="not nilpotent"):
            Embedding.from_json({"p": 2, "T": T, "A_span": []})


def test_constructors_accept_any_rows_of_integers():
    # subspace vectors as lists, tuples in or out of [0, p) and arrays, and
    # T as JSON rows in or out of [0, p), all give the same rows of Python
    # ints in [0, p)
    want = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    B = canonical_module((3,), 3)
    assert B.action == want
    vectors = [[(0, 1, 0)], [[0, 4, 0]], ((0, -2, 0),), np.array([[0, 1, 0]])]
    for A in vectors:
        E = Embedding(B, A)
        assert E.span == ((0, 1, 0), (0, 0, 1))
        assert all(type(x) is int for row in E.B.action + E.span for x in row)
    for T in ([list(row) for row in want], [[0, 0, 3], [4, 0, 0], [0, -2, 0]]):
        data = Embedding.from_json({"p": 3, "T": T, "A_span": [[0, -2, 0]]}).to_json()
        assert data["T"] == [list(row) for row in want]
        assert data["A_span"] == [[0, 1, 0], [0, 0, 1]]


# largest prime with 5 p^2 < 2^63, and the next prime
P_MAX_DIM5, P_OVER_DIM5 = 1358187913, 1358187923


def test_prime_bounded_by_int64():
    assert 5 * P_MAX_DIM5**2 < 2**63 <= 5 * P_OVER_DIM5**2
    B = canonical_module((3, 2), P_MAX_DIM5)
    E = Embedding(B, [[0, 1, 0, 1, 0]])
    S = _random_invertible(np.random.default_rng(7), 5, P_MAX_DIM5)
    data = _conjugated(E, S)
    F = Embedding.from_json(data)
    assert jordan_type(F.B) == (3, 2)
    assert F.alpha == E.alpha == (2,)
    assert F.chain() == E.chain()
    assert hom_dim(F, F) == hom_dim(E, E)
    with pytest.raises(ValueError, match="too large"):
        Embedding.from_json(dict(data, p=P_OVER_DIM5))


def test_grading_consistency_checked():
    def load(T, grading):
        return Embedding.from_json({"p": 2, "T": T, "A_span": [], "grading": grading})

    T = [[0, 0], [1, 0]]
    assert load(T, [0, 1]).to_json()["grading"] == [0, 1]
    with pytest.raises(ValueError):
        load(T, [0, 5])
    with pytest.raises(ValueError, match=r"at \(1,0\)"):
        load(T, [0, 0])
    # e1 -> e0 -> e2: the first offence in column-major order is reported
    with pytest.raises(ValueError, match=r"at \(2,0\)"):
        load([[0, 1, 0], [0, 0, 0], [1, 0, 0]], [0, 0, 0])
    with pytest.raises(ValueError, match="a degree per basis vector"):
        load(T, [0])


def test_jordan_type_of_canonical():
    for beta in [(4, 3, 1), (2, 2, 2), (5,), ()]:
        M = canonical_module(beta, 3)
        assert jordan_type(M) == beta
    # blocks come in the order given, sorted or not
    for p in (2, 3):
        M = canonical_module((1, 3), p, shifts=[5, 0])
        assert jordan_type(M) == (3, 1)
        assert M.grading == (5, 0, 1, 2)
        assert M.action[2][1] == M.action[3][2] == 1 and sum(map(sum, M.action)) == 2
        # the module is its own Jordan basis, blocks in its order
        assert M.sizes == (1, 3)
        nilmod._check_basis(M.action, p, M.sizes, la.identity(4), la.identity(4))
        S = direct_sum(Embedding(M, []), Embedding(M, []))
        assert S.B.sizes == (1, 3, 1, 3)
    for bad in [(2, 0), (0,), (3, -1)]:
        with pytest.raises(ValueError, match="positive"):
            canonical_module(bad, 2)


def test_jordan_type_conjugation_invariant():
    rng = np.random.default_rng(2)
    M = canonical_module((4, 2, 1), 3)
    for _ in range(25):
        S = _random_invertible(rng, 7, 3)
        Sinv = _inverse_mod_p(S, 3)
        T2 = (S @ ref.action_of(M) @ Sinv) % 3
        F = Embedding.from_json({"p": 3, "T": T2.tolist()})
        assert jordan_type(F.B) == F.beta == ref.type_of_action(T2, 3) == (4, 2, 1)


def _random_invertible(rng, n, p):
    while True:
        S = rng.integers(0, p, size=(n, n))
        if la.rank(S.tolist(), p) == n:
            return S


def _inverse_mod_p(S, p):
    n = S.shape[0]
    aug = np.hstack([S % p, np.eye(n, dtype=np.int64)])
    R, piv = la.rref(aug.tolist(), p)
    assert piv == list(range(n))
    return mat([row[n:] for row in R], n)


def _conjugated(E, S):
    """The JSON of the image of E under the base change S: action
    S T S^-1, subspace S A."""
    p = E.p
    T = (((S @ ref.action_of(E.B)) % p) @ _inverse_mod_p(S, p)) % p
    return {"p": p, "T": T.tolist(), "A_span": ((ref.span_of(E) @ S.T) % p).tolist()}


def _conjugates(E, S):
    """The image of E under the base change S read through the boundary,
    and the same image kept in the conjugated basis for the references."""
    data = _conjugated(E, S)
    return Embedding.from_json(data), ref.general_embedding(data)


def _conjugate(E, S):
    return Embedding.from_json(_conjugated(E, S))


@pytest.mark.parametrize("p", [2, 3])
def test_matches_loop_reference_on_catalog_pairs(p):
    cat = [E for _, E in s4_catalog(p) + picket_pole_catalog(p, 5)]
    for i, E1 in enumerate(cat):
        for j, E2 in enumerate(cat):
            assert hom_dim(E1, E2) == ref.hom_dim(E1, E2) == ref.kron_hom_dim(E1, E2), (i, j)
            if j >= i:  # E2 + E1 is E1 + E2 with its blocks swapped
                S = direct_sum(E1, E2)
                assert S.alpha == ref.type_on_subspace(S.B, S.span), (i, j)
                assert S.chain() == ref.chain(S), (i, j)


@pytest.mark.parametrize("p", [2, 3])
def test_invariants_survive_base_change(p):
    # general position: non-canonical bases, pivots away from block generators
    rng = np.random.default_rng(p)
    cat = [E for _, E in s4_catalog(p)]
    shape = Shape((2, 1), (4, 3, 2), (3, 2, 1))
    realized = cat + [realize_tableau(t, p) for t in enumerate_tableaux(shape)]
    for E in realized:
        F, Fr = _conjugates(E, _random_invertible(rng, E.B.dim, p))
        assert F.alpha == E.alpha
        assert F.chain() == E.chain() == ref.chain(Fr)
        assert F.beta == E.beta
        for c in rng.choice(len(cat), size=3, replace=False):
            C = cat[c]
            G, Gr = _conjugates(C, _random_invertible(rng, C.B.dim, p))
            assert hom_dim(F, G) == hom_dim(E, C)
            assert hom_dim(G, F) == hom_dim(C, E) == ref.hom_dim(Gr, Fr)


def _coordinate_hom_dim(C, E):
    """dim Hom(C, E) as a census fingerprint reads it, for a cyclic C."""
    assert generator_blocks(C) is not None
    return iso_fingerprint(E, [("C", C)])[0]


@pytest.mark.parametrize("p", [2, 3])
def test_catalog_homs_from_coordinates_survive_base_change(p):
    # every cyclic object of both catalogs as a source, source and target in
    # general position: a transposed coordinate map would show here
    rng = np.random.default_rng(50 + p)
    cat = [E for name, E in s4_catalog(p) + picket_pole_catalog(p, 5) if name != "X"]
    shape = Shape((2, 1), (4, 3, 2), (3, 2, 1))
    targets = cat + [realize_tableau(t, p) for t in enumerate_tableaux(shape)]
    for C in cat:
        G = _conjugate(C, _random_invertible(rng, C.B.dim, p))
        for t in rng.choice(len(targets), size=2, replace=False):
            E = targets[t]
            F = _conjugate(E, _random_invertible(rng, E.B.dim, p))
            assert _coordinate_hom_dim(G, F) == hom_dim(G, F) == hom_dim(C, E)


def _random_sizes(rng):
    return [int(b) for b in rng.integers(1, 5, size=rng.integers(1, 4))]


@pytest.mark.parametrize("p", [2, 3])
def test_random_cyclic_sources_match_hom_dim(p):
    # random generators (not pole generators: several blocks, any lowest
    # coordinates, sometimes zero) against random targets, both conjugated
    rng = np.random.default_rng(60 + p)
    for _ in range(60):
        sizes = _random_sizes(rng)
        a = rng.integers(0, p, size=sum(sizes)) * (rng.random(sum(sizes)) < 0.5)
        C = Embedding(canonical_module(sizes, p), [a])
        target = _random_sizes(rng)
        E = Embedding(canonical_module(target, p),
                      rng.integers(0, p, size=(rng.integers(0, 3), sum(target))))
        G = _conjugate(C, _random_invertible(rng, C.B.dim, p))
        F = _conjugate(E, _random_invertible(rng, E.B.dim, p))
        assert _coordinate_hom_dim(G, F) == hom_dim(G, F) == ref.hom_dim(C, E)
        assert _coordinate_hom_dim(C, E) == hom_dim(C, E)


def test_generator_blocks():
    # a = T^2 g1 + g2 + T g2 in N_(4,2,1): lowest coordinates 2, 0 and none
    C = Embedding(canonical_module((4, 2, 1), 3), [[0, 0, 1, 0, 1, 1, 0]])
    assert generator_blocks(C) == ((4, 2), (2, 0), (1, 1))
    assert generator_blocks(C) is generator_blocks(C)  # kept on C
    assert generator_blocks(Embedding(canonical_module((3, 1), 2), [])) == ((3, 3), (1, 1))
    X = dict(s4_catalog(2))["X"]
    two = direct_sum(realize_picket(3, 1, 2), realize_picket(2, 1, 2))
    assert generator_blocks(X) is generator_blocks(two) is None
    # in N_(4,1,4), U = T^2 ker T^4 + ker T^2 is positions 2.. of each
    # size-4 block and the size-1 block; ker T^4, T^2, T have dims 9, 5, 3
    assert hom_positions(generator_blocks(C), (4, 1, 4)) == (9 + 5 + 3 - 5, (0, 1, 5, 6))


JORDAN_TYPES = [(4, 2, 1), (3, 3, 1, 1), (2, 2, 2), (5,), (1, 1, 1), (4, 3, 2, 1),
                (1,), ()]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_jordan_basis_of_random_conjugates(p):
    rng = np.random.default_rng(10 + p)
    for beta in JORDAN_TYPES:
        n = sum(beta)
        for blocks in (beta, tuple(reversed(beta))):
            S = _random_invertible(rng, n, p)
            T = (((S @ ref.action_of(canonical_module(blocks, p))) % p)
                 @ _inverse_mod_p(S, p)) % p
            sizes, Q, inverse = jordan_basis(tuple(map(tuple, T.tolist())), p)
            assert la.rank(Q, p) == n
            assert (mat(inverse, n) == _inverse_mod_p(mat(Q, n), p)).all()
            # row convention: a = c Q, so c maps to c Q T^T Q^-1
            row_action = (((mat(Q, n) @ T.T) % p) @ _inverse_mod_p(mat(Q, n), p)) % p
            assert (row_action == ref.action_of(canonical_module(sizes, p)).T).all()
            assert partition(sizes) == tuple(sizes) == ref.type_of_action(T, p) == beta
            assert Embedding.from_json({"p": p, "T": T.tolist()}).B.sizes == sizes


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hom_dim_matches_kron_reference_on_random_conjugates(p):
    rng = np.random.default_rng(20 + p)
    cat = [E for _, E in s4_catalog(p)]
    for _ in range(40):
        E, C = (cat[i] for i in rng.choice(len(cat), size=2))
        F, Fr = _conjugates(E, _random_invertible(rng, E.B.dim, p))
        G, Gr = _conjugates(C, _random_invertible(rng, C.B.dim, p))
        assert hom_dim(F, G) == ref.kron_hom_dim(Fr, Gr) == hom_dim(E, C)


HOM_CENSUS_SHAPES = [(TWO_CLASS, 2), (FIVE_CLASS, 2), (Shape((2, 1), (3, 2, 1), (2, 1)), 3)]


def _census_targets(shape, p):
    """Every embedding the census of ``shape`` over F_p fingerprints."""
    B = canonical_module(shape.beta, p)
    return [Embedding(B, S) for S, _ in _distinct_submodules(B, shape.alpha, shape.gamma)]


@pytest.mark.parametrize("shape,p", HOM_CENSUS_SHAPES, ids=str)
def test_hom_dim_matches_block_generator_reference_on_census_embeddings(shape, p):
    # both catalogs, both directions; the loop reference on every 20th
    # pair and on every pair with X (all pairs in the slow test below)
    cat = s4_catalog(p) + picket_pole_catalog(p, 5)
    targets = _census_targets(shape, p)
    assert targets
    for name, C in cat:
        assert len(nilmod._generators(C)) == len(C.alpha), name
    for i, E in enumerate(targets):
        assert len(nilmod._generators(E)) == len(E.alpha) == len(shape.alpha)
        for j, (name, C) in enumerate(cat):
            got = (hom_dim(C, E), hom_dim(E, C))
            assert got == (ref.block_hom_dim(C, E), ref.block_hom_dim(E, C)), (i, name)
            if name == "X" or (i + j) % 20 == 0:
                assert got == (ref.hom_dim(C, E), ref.hom_dim(E, C)), (i, name)


def _image_hom_dim(C, E):
    """dim Hom(C, E) as a census fingerprint reads it for a non-cyclic C:
    from the echelon form of C's unknown images for E's block sizes."""
    assert generator_blocks(C) is None
    return _fingerprint(_fingerprint_plan([("C", C)], E.B.sizes, E.p), E)[0]


@pytest.mark.parametrize("shape,p", HOM_CENSUS_SHAPES, ids=str)
def test_image_echelon_step_matches_hom_dim_on_census_embeddings(shape, p):
    # X on every census embedding, and on a random conjugate of each
    # fourth, read back in Jordan coordinates of the same sizes, where its
    # span is mostly another one
    rng = np.random.default_rng(90 + p)
    X = dict(s4_catalog(p))["X"]
    plan = _fingerprint_plan([("X", X)], shape.beta, p)
    moved = 0
    for i, E in enumerate(_census_targets(shape, p)):
        assert _fingerprint(plan, E) == (hom_dim(X, E),) == (ref.block_hom_dim(X, E),)
        if i % 4 == 0:
            F = _conjugate(E, _random_invertible(rng, E.B.dim, p))
            assert F.B.sizes == E.B.sizes
            assert (_image_hom_dim(X, F) == hom_dim(X, F) == ref.block_hom_dim(X, F)
                    == hom_dim(X, E))
            moved += F.span != E.span
    assert moved


@pytest.mark.parametrize("p", [2, 3])
def test_image_echelon_step_matches_hom_dim_on_random_conjugates(p):
    # random sources with two or three module generators against random
    # targets, both in general position
    rng = np.random.default_rng(95 + p)
    sources = 0
    while sources < 25:
        C, E = _random_embedding(rng, p), _random_embedding(rng, p)
        if generator_blocks(C) is not None:
            continue
        sources += 1
        G = _conjugate(C, _random_invertible(rng, C.B.dim, p))
        F = _conjugate(E, _random_invertible(rng, E.B.dim, p))
        assert (_image_hom_dim(G, F) == hom_dim(G, F) == ref.block_hom_dim(G, F)
                == hom_dim(C, E))
        assert _image_hom_dim(C, E) == hom_dim(C, E) == ref.block_hom_dim(C, E)


@pytest.mark.slow
def test_hom_dim_matches_loop_reference_on_census_embeddings():
    for shape, p in HOM_CENSUS_SHAPES:
        cat = s4_catalog(p) + picket_pole_catalog(p, 5)
        for i, E in enumerate(_census_targets(shape, p)):
            for name, C in cat:
                assert hom_dim(C, E) == ref.hom_dim(C, E), (shape, p, i, name)
                assert hom_dim(E, C) == ref.hom_dim(E, C), (shape, p, i, name)


def _random_embedding(rng, p):
    """Up to three random generators in a random canonical module."""
    sizes = _random_sizes(rng)
    return Embedding(canonical_module(sizes, p),
                     rng.integers(0, p, size=(rng.integers(0, 4), sum(sizes))))


@pytest.mark.parametrize("p", [2, 3])
def test_hom_dim_matches_references_on_random_conjugates(p):
    # random subspaces, often needing two or three module generators, with
    # source and target both in general position
    rng = np.random.default_rng(70 + p)
    several = 0
    for _ in range(50):
        E, C = _random_embedding(rng, p), _random_embedding(rng, p)
        F, Fr = _conjugates(E, _random_invertible(rng, E.B.dim, p))
        G, Gr = _conjugates(C, _random_invertible(rng, C.B.dim, p))
        assert len(nilmod._generators(F)) == len(F.alpha) == len(E.alpha)
        several += len(F.alpha) > 1
        for pair, raw in (((F, G), (Fr, Gr)), ((G, F), (Gr, Fr))):
            assert hom_dim(*pair) == ref.block_hom_dim(*pair) == ref.hom_dim(*raw)
        assert hom_dim(F, G) == hom_dim(E, C)
    assert several


@pytest.mark.parametrize("p", [2, 3])
def test_hom_dim_on_zero_and_full_subspaces(p):
    # A = 0 as a source and A = B as a target impose nothing, so both give
    # dim Hom(B1, B2) = sum of min(b, c) over pairs of blocks
    rng = np.random.default_rng(80 + p)
    cat = [C for _, C in s4_catalog(p)]
    for sizes in ((1,), (3, 1), (4, 2, 2)):
        B = canonical_module(sizes, p)
        zero, full = Embedding(B, []), Embedding(B, la.identity(B.dim))
        assert nilmod._generators(zero) == ()
        assert len(nilmod._generators(full)) == len(sizes)
        S = _random_invertible(rng, B.dim, p)
        # each object with its reference form: itself, or the conjugate as given
        for (Z, Zr), (U, Ur) in (((zero, zero), (full, full)),
                                 (_conjugates(zero, S), _conjugates(full, S))):
            for E, R in ((Z, Zr), (U, Ur)):
                assert hom_dim(E, E) == ref.block_hom_dim(E, E) == ref.hom_dim(R, R)
            for C in cat:
                free = sum(min(b, c) for b in sizes for c in C.beta)
                assert hom_dim(Z, C) == hom_dim(C, U) == free
                for pair, raw in (((Z, C), (Zr, C)), ((C, Z), (C, Zr)),
                                  ((U, C), (Ur, C)), ((C, U), (C, Ur))):
                    assert hom_dim(*pair) == ref.block_hom_dim(*pair) == ref.hom_dim(*raw)


@pytest.mark.parametrize("p", [2, 3])
def test_invariant_closure_matches_stacked_rref_loop(p):
    rng = np.random.default_rng(30 + p)
    grown = 0
    for beta in JORDAN_TYPES:
        n = sum(beta)
        B = canonical_module(beta, p)
        T = ref.action_of(B)
        if n:
            S = _random_invertible(rng, n, p)
            T = (((S @ T) % p) @ _inverse_mod_p(S, p)) % p
        for k in range(3):
            gens = rng.integers(0, p, size=(k, n))
            # in Jordan coordinates, and in general position through the
            # boundary, against the loop on the conjugated T as given; the
            # closure is in layer order, and the block-order span derived
            E = Embedding(B, gens)
            want, want_pivots = ref.invariant_closure(B, gens)
            assert E.span == tuple(map(tuple, want.tolist()))
            assert E._pivots == want_pivots
            assert invariant_closure(B, gens)[:2] == ref.in_layer_order(B, E.span)
            data = {"p": p, "T": T.tolist(), "A_span": gens.tolist()}
            got = Embedding.from_json(data).to_json()["A_span"]
            want, want_pivots = ref.invariant_closure(ref.general_embedding(data).B, gens)
            assert got == want.tolist()
            assert la.rref(got, p)[1] == want_pivots
            grown += len(got) > la.rank(gens.tolist(), p)
    assert grown >= 8  # over half the 14 nonempty generator sets grow


@pytest.mark.parametrize("p", [2, 3])
def test_graded_pole_generators_are_taken_as_they_are(p):
    """``graded_pole_module`` returns tuple rows of 0s and 1s, which
    ``Embedding`` keeps as they are instead of converting them entry by
    entry."""
    for shape in iter_strip_shapes(6):
        for t in enumerate_tableaux(shape):
            pieces = pole_pieces(t.columns)
            M, gens = nilmod.graded_pole_module(pieces, p, range(len(pieces)))
            assert all(type(g) is tuple and set(g) <= {0, 1} for g in gens)
            assert all(a is b for a, b in zip(nilmod._vectors(gens, M.dim, p), gens))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbit_closure_matches_stacked_rref_loop(p, monkeypatch):
    def check(B, vectors):
        # the closure in layer order, the block-order span derived from it,
        # and the orbit closure that the package took in block order; the
        # layer table read off the closure's echelon forms, against the one
        # that row-reduces every stage afresh
        want, want_pivots = ref.invariant_closure(B, vectors)
        want = tuple(map(tuple, want.tolist()))
        E = Embedding(B, vectors)
        assert (E.span, E._pivots) == (want, want_pivots) == ref.orbit_closure(B, vectors)
        assert invariant_closure(B, vectors)[:2] == ref.in_layer_order(B, want), vectors
        assert _same_table_as_reference(E), (B.sizes, vectors)

    # graded pole modules with the generators of their poles
    for shape in iter_strip_shapes(6):
        for t in enumerate_tableaux(shape):
            pieces = pole_pieces(t.columns)
            check(*nilmod.graded_pole_module(pieces, p, range(len(pieces))))
    # every closure of a witness sequence, among them that of the middle
    # term Y, whose generator carries a cross term
    closures, modules = [], []
    closure, graded = nilmod.invariant_closure, witness.graded_pole_module
    monkeypatch.setattr(nilmod, "invariant_closure",
                        lambda B, vectors: closures.append((B, vectors)) or closure(B, vectors))
    monkeypatch.setattr(witness, "graded_pole_module",
                        lambda *a: modules.append(graded(*a)) or modules[-1])
    edges = [(t, up, move) for shape in iter_strip_shapes(9)
             for t in enumerate_tableaux(shape) for up, move in box_successors(t)]
    for t, up, move in random.Random(p).sample(edges, 12):
        witness_sequence(t, up, move, p)
    monkeypatch.undo()
    for B, vectors in closures:
        check(B, vectors)
    # one graded module per term, built for Xt, Zt and Y in that order;
    # each of the 12 Ys is closed
    assert len(modules) == 36
    assert sum(any(B is M for M, _ in modules[2::3]) for B, _ in closures) == 12
    # random vectors in block sizes in any order
    rng = random.Random(50 + p)
    for _ in range(60):
        sizes, shifts = _random_blocks(rng)
        B = canonical_module(sizes, p, shifts)
        check(B, [[rng.randrange(p) for _ in range(B.dim)] for _ in range(rng.randint(0, 3))])


def test_closure_check_refuses_a_span_that_t_leaves(monkeypatch):
    # the residue pass stays as the invariance check: orbits cut short
    # leave the span, and the check names them
    B = canonical_module((3, 1), 2)
    image, calls = nilmod.NilModule.layer_image, []

    def short(self, rows):  # the first orbit step finds T v = 0
        calls.append(rows)
        return image(self, rows) if len(calls) > 1 else [(0,) * self.dim for _ in rows]

    monkeypatch.setattr(nilmod.NilModule, "layer_image", short)
    with pytest.raises(InvariantViolation, match=re.escape("[[1, 0, 0, 0]]")):
        invariant_closure(B, [[1, 0, 0, 0]])


def _ranks(lam):
    """rank T^k on N_lam for k = 0 .. lam_1."""
    return [sum(max(x - k, 0) for x in lam) for k in range((lam[0] if lam else 0) + 1)]


def test_type_from_ranks_matches_transpose_reference():
    # the ranks of every partition of weight <= 10, also with trailing
    # zeros, give it back
    for n in range(11):
        for lam in partitions_of(n):
            for extra in range(3):
                ranks = _ranks(lam) + [0] * extra
                assert nilmod._type_from_ranks(ranks) == ref._type_from_ranks(ranks) == lam
    # ranks ending in 0 whose differences are no partition: both refuse
    rng, refused = random.Random(18), 0
    for _ in range(400):
        ranks = [rng.randint(0, 6) for _ in range(rng.randint(0, 5))] + [0]
        try:
            want = ref._type_from_ranks(ranks)
        except ValueError:
            refused += 1
            with pytest.raises(InvariantViolation, match=re.escape(str(ranks))):
                nilmod._type_from_ranks(ranks)
        else:
            assert nilmod._type_from_ranks(ranks) == want
    assert refused > 100
    for ranks in ([2, 1], []):  # no last rank 0
        with pytest.raises(InvariantViolation, match=re.escape(str(ranks))):
            nilmod._type_from_ranks(ranks)


def test_layer_order_matches_dict_reference():
    rng = random.Random(18)
    cases = [(), (1,)] + [[rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
                          for _ in range(200)]
    assert sum(list(sizes) != sorted(sizes, reverse=True) for sizes in cases) > 100
    for sizes in cases:
        assert nilmod._layer_order(sizes) == ref._layer_order(sizes) == ref.layer_order(sizes)


def test_pole_degrees_match_lowest_coordinates():
    # each block's degree comes from the exponent pole_generator places,
    # as it came from the lowest nonzero coordinate of the generator row
    for shape in iter_strip_shapes(8):
        for t in enumerate_tableaux(shape):
            pieces = pole_pieces(t.columns)
            for cols in pieces:
                a, exponents = pole_generator(cols)
                lengths = [c.length for c in cols]
                assert exponents == [nilmod._lowest(a[o:o + b], 0)
                                     for o, b in zip(nilmod.block_offsets(lengths), lengths)]
            M, gens = nilmod.graded_pole_module(pieces, 2, range(len(pieces)))
            owner = [i for i, cols in enumerate(pieces) for _ in cols]
            offsets = nilmod.block_offsets(M.sizes)
            assert [M.grading[o] for o in offsets] == [
                i - nilmod._lowest(gens[i][o:o + b], 0)
                for i, o, b in zip(owner, offsets, M.sizes)], t


def test_beta_and_tableau_computed_once(monkeypatch):
    calls, chains = [], []
    rref, from_chain = la.rref, tb.from_chain
    monkeypatch.setattr(la, "rref", lambda *a: calls.append(1) or rref(*a))
    monkeypatch.setattr(tb, "from_chain",
                        lambda *a: chains.append(1) or from_chain(*a))
    E = realize_pole(Pole((0, 2), (3, 1)), 2)
    # and of an embedding read from JSON, converted as it was read
    for F in (E, Embedding.from_json(E.to_json())):
        chains.clear()  # building the pole tableau used one
        t = tableau_of_embedding(F)
        before = len(calls)
        for _ in range(2):
            assert tableau_of_embedding(F) is t
            F.chain(), F.alpha, F.beta, F.gamma, F.to_json(), repr(F)
        assert len(calls) == before and len(chains) == 1


def test_wrong_jordan_basis_raises(monkeypatch):
    # the boundary re-checks the basis it computed before it converts
    T = canonical_module((2, 1), 3).action
    I = la.identity(3)
    assert jordan_basis(T, 3) == ((2, 1), I, I)
    data = {"p": 3, "T": [list(row) for row in T], "A_span": []}
    Embedding.from_json(data)
    swapped = (I[1], I[0], I[2])  # T g listed before g
    twice = tuple(tuple(2 * x for x in row) for row in I)
    wrong = [((1, 2), I, I), ((3,), I, I), ((2,), I, I), ((2, 1), I, twice),
             ((2, 1), swapped, swapped), ((2, 0, 1), I, I)]
    for basis in wrong:
        monkeypatch.setattr(nilmod, "jordan_basis", lambda action, p, basis=basis: basis)
        with pytest.raises(InvariantViolation, match="not a Jordan basis"):
            Embedding.from_json(data)


def _random_blocks(rng):
    """Block sizes in any order, and degrees for them or None."""
    sizes = [rng.randint(1, 5) for _ in range(rng.randint(0, 5))]
    shifts = None if rng.random() < 0.3 else [rng.randint(-3, 3) for _ in sizes]
    return sizes, shifts


@pytest.mark.parametrize("p", [2, 3, 5])
def test_canonical_module_matches_references(p):
    rng = random.Random(40 + p)
    for _ in range(60):
        sizes, shifts = _random_blocks(rng)
        M = canonical_module(sizes, p, shifts)
        I = la.identity(M.dim)
        # its own Jordan basis, as the boundary checks a computed one
        nilmod._check_basis(M.action, p, tuple(sizes), I, I)
        assert M.sizes == tuple(sizes)
        if shifts is not None:
            assert M.grading == tuple(d + j for d, b in zip(shifts, sizes) for j in range(b))
        # the action raises that grading by one: the boundary reads it back
        E = Embedding(M, [])
        assert Embedding.from_json(E.to_json()).to_json() == E.to_json()
        assert M._order == ref.layer_order(sizes)
        # the computed basis of the same action finds the same blocks
        assert (jordan_basis(M.action, p)[0] == jordan_type(M)
                == ref.type_of_action(ref.action_of(M), p) == tuple(sorted(sizes, reverse=True)))
        for k in range(max(sizes, default=0) + 2):
            assert M.kernel(k) == la.null_space(ref.power(M, k).tolist(), p), (sizes, k)
        rows = [tuple(rng.randrange(p) for _ in range(M.dim)) for _ in range(5)]
        assert M.image(rows) == la.mul(rows, tuple(zip(*M.action)), p)
        assert M.image([]) == ()


@pytest.mark.parametrize("p", [2, 3])
def test_action_is_built_from_the_gather_when_read(p):
    # the matrix a module no longer keeps: the transposed shift of its
    # sizes, and the product that its gather stands for
    rng = random.Random(70 + p)
    for sizes in [(), (1,), (1, 1)] + [_random_blocks(rng)[0] for _ in range(40)]:
        M = canonical_module(sizes, p)
        assert M.action == tuple(zip(*nilmod._shift(sizes)))
        assert all(type(row) is tuple for row in M.action)
        rows = [tuple(rng.randrange(p) for _ in range(M.dim)) for _ in range(4)]
        assert M.image(rows) == la.mul(rows, tuple(zip(*M.action)), p)


# sha256 over json.dumps(realize_tableau(t, p).to_json(), sort_keys=True) of
# every tableau of a horizontal-strip shape with |beta| <= 8, p = 2 then 3
REALIZED_DIGEST = "e17d42f1ae0f90f9036c5c8c8722d3863600fd20d43593e42da998a7a3e3d1ad"


def test_realized_output_is_pinned():
    digest, count = hashlib.sha256(), 0
    for shape in iter_strip_shapes(8):
        for t in enumerate_tableaux(shape):
            for p in (2, 3):
                digest.update(json.dumps(realize_tableau(t, p).to_json(),
                                         sort_keys=True).encode())
                count += 1
    assert (count, digest.hexdigest()) == (1114, REALIZED_DIGEST)


@pytest.mark.parametrize("p", [2, 3])
def test_canonical_direct_sum_matches_general_sum(p):
    rng = random.Random(p)
    # one to three catalog objects and ungraded blocks per sum
    summands = ([E for _, E in s4_catalog(p)] + [E for _, E in picket_pole_catalog(p, 5)]
                + [Embedding(canonical_module(sizes, p), []) for sizes in ((2, 1), (3,))])
    targets = ([E for _, E in s4_catalog(p)]
               + [E for _, E in picket_pole_catalog(p, 5)][::3])
    for _ in range(25):
        parts = rng.sample(summands, rng.randint(1, 3))
        S, R = direct_sum(*parts), ref.general_direct_sum(*parts)
        assert (S.B.action, S.B.grading) == (R.B.action, R.B.grading)
        assert (S.span, S._pivots, S.chain()) == (R.span, R._pivots, ref.chain(R))
        assert S.B.sizes == tuple(b for e in parts for b in e.B.sizes)
        assert jordan_type(S.B) == ref.type_of_action(ref.action_of(R.B), p)
        # the stacked sum as input in its own basis
        G = Embedding.from_json(R.json)
        assert [hom_dim(C, S) for C in targets] == [hom_dim(C, G) for C in targets]
        assert [hom_dim(S, C) for C in targets[::2]] == [hom_dim(G, C) for C in targets[::2]]


def test_direct_sum_with_a_loaded_summand():
    # a summand read in another basis is in its Jordan form, ungraded, so
    # the sum is ungraded, in Jordan coordinates, and has the invariants of
    # the sum stacked from the summands as given
    rng = np.random.default_rng(5)
    E = realize_pole(Pole((0, 2), (3, 1)), 3)
    F, Fr = _conjugates(E, _random_invertible(rng, E.B.dim, 3))
    assert F.B.grading is None and E.B.grading is not None
    for parts, raw in (((E, F), (E, Fr)), ((F, E), (Fr, E)), ((F,), (Fr,))):
        S, R = direct_sum(*parts), ref.general_direct_sum(*raw)
        assert S.B.grading is None
        assert S.B.sizes == tuple(b for e in parts for b in e.B.sizes)
        assert S.alpha == ref.type_on_subspace(R.B, R.span)
        assert S.chain() == ref.chain(R)
        assert hom_dim(S, S) == ref.hom_dim(R, R)


def test_canonical_module_refuses_what_the_general_path_refuses():
    # the general path: an action in any basis, read by Embedding.from_json
    for bad in [(2, 0), [0], (3, -1)]:
        with pytest.raises(ValueError, match=rf"positive, got {re.escape(str(bad))}$"):
            canonical_module(bad, 2)
    T = [list(row) for row in canonical_module((3, 2), 2).action]
    for p in (1, 4, 9, P_OVER_DIM5):
        with pytest.raises(ValueError) as general:
            Embedding.from_json({"p": p, "T": T, "A_span": []})
        with pytest.raises(ValueError) as canonical:
            canonical_module((3, 2), p)
        assert str(canonical.value) == str(general.value)
    assert str(general.value).startswith(f"p = {P_OVER_DIM5} is too large for dimension 5")
    for shifts in ([0], [0, 1, 2]):  # one degree per block, no more and no fewer
        with pytest.raises(ValueError, match="a degree per basis vector"):
            canonical_module((3, 2), 2, shifts=shifts)


def test_canonical_module_checks_its_basis(monkeypatch):
    # the module checks its gather against the layer walk: a shift moved by
    # one place, or two coordinates of a layer swapped, is refused
    M = canonical_module((2, 1), 3)
    layers = nilmod._layer_order
    assert layers((2, 1)) == ([0, 2, 1], (3, 3, 0), [0, 2, 3])
    message = r"not a Jordan basis with blocks \(2, 1\)"
    corrupt = [lambda order, shift, prefix: (order, shift[1:] + shift[:1], prefix),
               lambda order, shift, prefix: ([order[1], order[0], *order[2:]], shift, prefix)]
    for wrong in corrupt:
        with monkeypatch.context() as m:
            m.setattr(nilmod, "_layer_order", lambda sizes: wrong(*layers(sizes)))
            with pytest.raises(InvariantViolation, match=message):
                canonical_module((2, 1), 3)
    # a basis read from JSON is still checked against the shift of its sizes
    I = la.identity(3)
    nilmod._check_basis(M.action, 3, M.sizes, I, I)
    monkeypatch.setattr(nilmod, "_shift", lambda sizes: I)
    with pytest.raises(InvariantViolation, match=message):
        nilmod._check_basis(M.action, 3, M.sizes, I, I)


def _general_copy(E):
    """E read back through the boundary from its action, grading and span:
    converted with a Jordan basis of its own, sizes sorted."""
    G = Embedding.from_json(E.to_json())
    assert G.B.sizes == jordan_type(E.B)
    return G


def test_realized_json_matches_general_path():
    for shape in list(iter_strip_shapes(6)) + [FIVE_CLASS, TWO_CLASS]:
        for t in enumerate_tableaux(shape):
            for p in (2, 3):
                E = realize_tableau(t, p)
                assert json.dumps(E.to_json()) == json.dumps(_general_copy(E).to_json()), t


def test_witness_json_matches_general_path():
    moves = [(t, t2, move) for shape in iter_strip_shapes(10)
             for t in enumerate_tableaux(shape) for t2, move in box_successors(t)]
    for t, t2, move in random.Random(3).sample(moves, 40):
        for p in (2, 3):
            ws = witness_sequence(t, t2, move, p)
            for E in (ws.xt, ws.y, ws.zt):
                G = _general_copy(E)
                assert json.dumps(E.to_json()) == json.dumps(G.to_json()), (t, t2)
                assert E.chain() == G.chain()


@pytest.mark.parametrize("p", [2, 3])
def test_census_embeddings_skip_closure_alike(p):
    # the census builds its embeddings without closing the search's spans,
    # from the block-order span and the search's layer-order echelon form,
    # which is the one an embedding derives from that span
    B = canonical_module(FIVE_CLASS.beta, p)
    spans = _distinct_submodules(B, FIVE_CLASS.alpha, FIVE_CLASS.gamma)
    assert spans
    for span, layered in spans:
        assert layered == ref.in_layer_order(B, span)
        for E in (nilmod._closed(B, span, layered), nilmod._closed(B, span)):
            F = Embedding(B, span)
            assert (E.span, E._pivots) == (F.span, F._pivots)
            assert (E._echelon, E._leads) == (F._echelon, F._leads) == layered
            assert (E.alpha, E.chain()) == (F.alpha, F.chain())


@pytest.mark.parametrize("p", [2, 3])
def test_mu_entries_matches_space_sum_reference(p):
    # a third of the catalog pairs, rows and columns past alpha_1 and beta_1
    cat = [E for _, E in s4_catalog(p)]
    for i, j in itertools.combinations_with_replacement(range(len(cat)), 2):
        if (i + j) % 3:
            continue
        S = direct_sum(cat[i], cat[j])
        for ell in range(1, 7):
            for r in range(1, 8):
                assert mu_entries(S, ell, r) == ref.mu_entries(S, ell, r), (i, j)


def test_picket_embedding_is_one_column_pole():
    for ell in range(1, 8):
        for i in range(10):
            for p in (2, 3):
                E, F = picket_embedding(i, ell, p), ref.picket_embedding(i, ell, p)
                assert E.B.action == F.B.action
                assert E.span == F.span
                # the generator T^(ell-m) g moves to degree 0
                m = min(i, ell)
                lift = ell - m if m else 0
                assert E.B.grading == tuple(d - lift for d in F.B.grading)
    with pytest.raises(ValueError):
        picket_embedding(-1, 3, 2)
    with pytest.raises(ValueError):
        picket_embedding(1, 0, 2)


def _same_as_reference(E):
    return (E.alpha, E.chain()) == (ref.type_on_subspace(E.B, E.span), ref.chain(E))


def test_strip_realizations_match_reference_in_two_echelons_per_stage(monkeypatch):
    calls = []
    rref, extend = la.rref, la.extend
    monkeypatch.setattr(la, "rref", lambda *a: calls.append("rref") or rref(*a))
    monkeypatch.setattr(la, "extend", lambda *a: calls.append("extend") or extend(*a))
    for shape in iter_strip_shapes(8):
        for t in enumerate_tableaux(shape):
            for p in (2, 3):
                calls.clear()
                E = realize_tableau(t, p)
                tableau_of_embedding(E)
                # no rref, and one extend per orbit level of the closure,
                # which reads the layer table off its echelon forms
                assert calls.count("rref") == 0, t
                assert calls.count("extend") == t.shape.alpha[0], t
                assert _same_as_reference(E), t


def test_witness_terms_match_reference():
    # every term's layer table, read off its closure (Y's generator carries
    # the cross term), and the direct sum of the end terms by the stage walk
    for shape in iter_strip_shapes(10):
        for t in enumerate_tableaux(shape):
            for t2, move in box_successors(t):
                for p in (2, 3):
                    ws = witness_sequence(t, t2, move, p)
                    assert _same_as_reference(ws.y), (t, t2)
                    assert _same_as_reference(direct_sum(ws.xt, ws.zt)), (t, t2)
                    for E in (ws.xt, ws.y, ws.zt):
                        assert _same_table_as_reference(E), (t, t2, p)


@pytest.mark.parametrize("p", [2, 3])
def test_census_spans_match_reference(p):
    # every span of type alpha, also those of another quotient type
    B = canonical_module(TWO_CLASS.beta, p)
    kept = 0
    for span in oracle_reference.unpruned_submodules(B, TWO_CLASS.alpha):
        E = Embedding(B, span)
        assert _same_as_reference(E)
        kept += (E.alpha, E.gamma) == (TWO_CLASS.alpha, TWO_CLASS.gamma)
    assert 0 < kept


def _same_table_as_reference(E):
    """E's layer table, carried from stage to stage by T, against the one
    that row-reduces every stage afresh from the block-order span."""
    return E._table() == ref.layer_table(E)


@pytest.mark.parametrize("p", [2, 3])
def test_layer_table_matches_reference_on_strip_realizations(p):
    for shape in iter_strip_shapes(8):
        for t in enumerate_tableaux(shape):
            assert _same_table_as_reference(realize_tableau(t, p)), t


def test_layer_table_matches_reference_on_census_pool_and_catalogs():
    # the census's embeddings from the search's layer-order forms
    spans = 0
    for shape, p in census_pool():
        B = canonical_module(shape.beta, p)
        for span, layered in _distinct_submodules(B, shape.alpha, shape.gamma):
            assert _same_table_as_reference(nilmod._closed(B, span, layered)), (shape, p, span)
            spans += 1
    assert spans == 390
    for p in (2, 3):
        for name, E in s4_catalog(p) + picket_pole_catalog(p, 5):
            assert _same_table_as_reference(E), (name, p)


@pytest.mark.parametrize("p", [2, 3])
def test_layer_table_matches_reference_in_random_bases(p):
    # embeddings read from JSON in random non-Jordan bases: catalog objects,
    # realizations and random subspaces; d[i][k] = dim(T^k B + T^i A) does
    # not depend on the basis
    rng = np.random.default_rng(90 + p)
    shape = Shape((2, 1), (4, 3, 2), (3, 2, 1))
    given = ([E for _, E in s4_catalog(p)]
             + [realize_tableau(t, p) for t in enumerate_tableaux(shape)])
    for E in given:
        F = _conjugate(E, _random_invertible(rng, E.B.dim, p))
        assert _same_table_as_reference(F) and F._table() == E._table()
    for beta in JORDAN_TYPES:
        n = sum(beta)
        S = _random_invertible(rng, n, p) if n else np.zeros((0, 0), dtype=np.int64)
        T = ref.action_of(canonical_module(beta, p))
        T = (((S @ T) % p) @ _inverse_mod_p(S, p)) % p if n else T
        for k in range(1, 3):
            data = {"p": p, "T": T.tolist(), "A_span": rng.integers(0, p, size=(k, n)).tolist()}
            F = Embedding.from_json(data)
            assert _same_table_as_reference(F), data
            assert F.chain() == ref.chain(ref.general_embedding(data)), data


@pytest.mark.parametrize("p", [2, 3, 5])
def test_t_carries_a_reduced_stage_to_reduced_rows(p):
    """In layer order T moves the coordinate c it keeps to to[c], in order.
    So on every stage of the layer table of a random invariant subspace
    (the closure of random vectors in a random module), the images of the
    rows whose pivot c T keeps are reduced, with pivots to[c]."""
    rng = random.Random(80 + p)
    kept = killed = 0
    for _ in range(80):
        sizes, shifts = _random_blocks(rng)
        B = canonical_module(sizes, p, shifts)
        n, to = B.dim, B._to
        for c, unit in enumerate(la.identity(n)):
            (image,) = B.layer_image([unit])
            assert image == (la.identity(n)[to[c]] if c in to else (0,) * n), (sizes, c)
        vectors = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        E = Embedding(B, vectors)
        R, pivots = E._echelon, E._leads
        assert (R, pivots) == ref.in_layer_order(B, E.span)
        while R:
            images = B.layer_image(R)
            moved = [(v, to[c]) for v, c in zip(images, pivots) if c in to]
            leads = [k for _, k in moved]
            assert leads == sorted(set(leads)), (sizes, vectors)
            for v, k in moved:
                assert v[:k] == (0,) * k and v[k] == 1, (sizes, vectors)
                assert all(v[j] == 0 for j in leads if j != k), (sizes, vectors)
            kept += len(moved)
            killed += len(R) - len(moved)
            R, pivots = la.rref(images, p)
    assert kept > 200 and killed > 100


@pytest.mark.parametrize("p", [2, 3, 5])
def test_membership_and_map_images_match_the_block_order_span(p):
    # ``contains`` and ``map_image`` read the layer-order form; on the
    # block-order span they are ``in_space`` and the row space of A M^T
    rng = random.Random(110 + p)
    members = 0
    for _ in range(60):
        sizes, shifts = _random_blocks(rng)
        B = canonical_module(sizes, p, shifts)
        n = B.dim
        E = Embedding(B, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, 2))])
        span, pivots = E.span, E._pivots
        sums = [tuple([sum(c * x for c, x in zip(cs, column)) % p for column in zip(*span)])
                for cs in ([rng.randrange(p) for _ in span] for _ in range(3))] if span else []
        for v in sums + [tuple(rng.randrange(p) for _ in range(n)) for _ in range(3)]:
            assert E.contains(v) == la.in_space(v, span, pivots, p), (sizes, v)
            members += E.contains(v)
        for m in (0, 1, rng.randint(2, 6)):
            M = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            assert E.map_image(M) == la.row_space(la.mul(span, list(zip(*M)), p), p), sizes
    assert members > 60


def test_realization_and_its_tableau_derive_no_block_span(monkeypatch):
    # the block-order span is derived only when read: a realization and its
    # tableau read none, and neither does a witness sequence, whose
    # subspace checks run on the layer-order forms
    monkeypatch.setattr(Embedding, "_derive_span",
                        lambda self: pytest.fail("block-order span derived"))
    with pytest.raises(pytest.fail.Exception, match="span derived"):
        Embedding(canonical_module((2, 1), 2), [[1, 0, 0]]).span
    for shape in iter_strip_shapes(6):
        for t in enumerate_tableaux(shape):
            for p in (2, 3):
                assert tableau_of_embedding(realize_tableau(t, p)) == t
                for up, move in box_successors(t):
                    assert all(witness_sequence(t, up, move, p).report.values())


def test_closure_built_embeddings_take_no_stage_walk(monkeypatch):
    # realizations and witness terms have their layer tables from their
    # closures; census spans and direct sums, handed over closed, have no
    # orbits and take the stage walk
    walk, walks = nilmod._stage_walk, []
    monkeypatch.setattr(nilmod, "_stage_walk", lambda *a: pytest.fail("stage walk taken"))
    for shape in iter_strip_shapes(9):
        for t in enumerate_tableaux(shape):
            for p in (2, 3):
                assert tableau_of_embedding(realize_tableau(t, p)) == t
                for up, move in box_successors(t):
                    assert all(witness_sequence(t, up, move, p).report.values())
    monkeypatch.setattr(nilmod, "_stage_walk", lambda *a: walks.append(a) or walk(*a))
    census = enumerate_submodules(TWO_CLASS, 2)
    assert len(walks) == census.total_submodules > 0
    E = realize_tableau(enumerate_tableaux(TWO_CLASS)[0], 2)
    assert direct_sum(E, E).chain() and len(walks) == census.total_submodules + 1


def test_json_alike_whether_span_is_read_before_or_after_the_chain():
    for shape in iter_strip_shapes(6):
        for t in enumerate_tableaux(shape):
            pieces = pole_pieces(t.columns)
            for p in (2, 3):
                first, second = (Embedding(*graded_pole_module(pieces, p, [0] * len(pieces)))
                                 for _ in range(2))
                first.span
                assert first.chain() == second.chain() == t.chain
                assert json.dumps(first.to_json()) == json.dumps(second.to_json()), t


def test_non_invariant_span_raises_from_embedding_and_cli(monkeypatch, capsys):
    # orbits cut short by a patch leave a span that T leaves: the invariance
    # check names the vectors, and ``lrlab tableau`` exits 1 with it
    image = nilmod.NilModule.layer_image

    def cut(calls):
        def short(self, rows):  # the first orbit step finds T v = 0
            calls.append(rows)
            return image(self, rows) if len(calls) > 1 else [(0,) * self.dim for _ in rows]
        return short

    message = ("the orbits of [[1, 0, 0]] in the module of blocks [3] over F_2 do not span"
               " an invariant subspace")
    monkeypatch.setattr(nilmod.NilModule, "layer_image", cut([]))
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        Embedding(canonical_module((3,), 2), [[1, 0, 0]])
    monkeypatch.setattr(nilmod.NilModule, "layer_image", cut([]))
    data = {"p": 2, "T": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "A_span": [[1, 0, 0]]}
    assert run(["tableau", json.dumps(data)]) == 1
    assert capsys.readouterr().err == f"verification failure: {message}\n"


def test_embedding_closes_generators():
    B = canonical_module((3, 2), 2)
    v = np.zeros(5, dtype=np.int64)
    v[0] = 1
    E = Embedding(B, [v])
    assert E.dim_sub() == 3  # v, Tv, T^2v
    assert E.alpha == (3,)


def test_pole_chain_both_fields():
    pole = Pole((0, 2, 3, 6), (7, 4, 1))
    want = ((6, 2), (6, 2, 1), (6, 3, 1), (6, 4, 1), (7, 4, 1))
    for p in (2, 3):
        E = realize_pole(pole, p)
        assert E.chain() == want
        assert tableau_of_embedding(E) == pole_tableau(pole)


def test_zero_subspace_tableau():
    B = canonical_module((3, 1), 2)
    E = Embedding(B, [])
    t = tableau_of_embedding(E)
    assert t.chain == ((3, 1),)
    assert mu_entries(E, 1, 1) == 0
    assert mu_entries(E, 2, 3) == 0


def test_mu_matches_tableau_counts_random():
    rng = random.Random(19)
    for _ in range(40):
        parts = [realize_pole(random_pole(rng), 2) for _ in range(rng.randint(1, 3))]
        E = direct_sum(*parts)
        t = tableau_of_embedding(E)
        counts = {}
        for c in t.columns:
            for j, e in enumerate(c.entries):
                counts[(e, c.row_of(j))] = counts.get((e, c.row_of(j)), 0) + 1
        top = t.shape.beta[0]
        s = t.shape.alpha[0] if t.shape.alpha else 0
        for ell in range(1, s + 1):
            for r in range(1, top + 1):
                assert mu_entries(E, ell, r) == counts.get((ell, r), 0)


def test_direct_sum_tableau_union():
    rng = random.Random(29)
    for _ in range(40):
        p1, p2 = random_pole(rng), random_pole(rng)
        E = direct_sum(realize_pole(p1, 3), realize_pole(p2, 3))
        assert tableau_of_embedding(E) == tableau_union(pole_tableau(p1),
                                                        pole_tableau(p2))


def test_hom_min_rule_and_identity():
    for ell in range(1, 5):
        for m in range(1, 5):
            E1 = Embedding(canonical_module((ell,), 5), [])
            E2 = Embedding(canonical_module((m,), 5), [])
            assert hom_dim(E1, E2) == min(ell, m)
    E = realize_pole(Pole((0, 2), (3, 1)), 2)
    assert hom_dim(E, E) >= 1
    zero = Embedding(canonical_module((), 2), [])
    assert hom_dim(E, zero) == hom_dim(zero, E) == hom_dim(zero, zero) == 0


def test_hom_field_mismatch():
    E1 = Embedding(canonical_module((2,), 2), [])
    E2 = Embedding(canonical_module((2,), 3), [])
    with pytest.raises(ValueError):
        hom_dim(E1, E2)


def test_picket_hom_equals_partial_sums():
    # Hom(E, P_i^ell) is the sum of min(x, ell) over the parts of chain[i];
    # the profile reads it off the chain.  Checked against solved systems
    # on both catalogs and realized tableaux, with i and ell one past
    # alpha_1 and beta_1, where the chain stops growing
    shape = Shape((2, 1), (4, 3, 2), (3, 2, 1))
    for p in (2, 3):
        objects = [E for _, E in s4_catalog(p) + picket_pole_catalog(p, 5)]
        objects += [realize_pole(Pole((0, 1, 4), (5, 2)), p)]
        objects += [realize_tableau(t, p) for t in enumerate_tableaux(shape)]
        for E in objects:
            chain = E.chain()
            max_i, max_ell = len(chain), E.beta[0] + 1
            want = [[sum(min(x, ell) for x in chain[min(i, len(chain) - 1)])
                     for ell in range(1, max_ell + 1)] for i in range(max_i + 1)]
            assert picket_hom_profile(E, max_i, max_ell) == want
            assert want == [[hom_dim(E, picket_embedding(i, ell, p))
                             for ell in range(1, max_ell + 1)]
                            for i in range(max_i + 1)]


def test_picket_dominance_agrees_with_tableaux():
    shape = Shape((2, 1), (4, 3, 2), (3, 2, 1))
    ts = enumerate_tableaux(shape)
    realized = [realize_tableau(t, 2) for t in ts]
    for a, ta in zip(realized, ts):
        for b, tb in zip(realized, ts):
            assert picket_dominance_test(a, b) == dominance_leq(ta, tb)


def test_profile_shape():
    E = realize_picket(3, 2, 2)
    table = picket_hom_profile(E, 2, 3)
    assert len(table) == 3 and all(len(row) == 3 for row in table)
    # row i is entrywise nondecreasing in ell
    for row in table:
        assert all(a <= b for a, b in zip(row, row[1:]))


def _pole_embedding(t, p):
    """The graded realization of the pole tableau t, generator in degree 0."""
    return Embedding(*graded_pole_module([t.columns], p, [0]))


def test_graded_pole_example():
    t = pole_tableau(Pole((0, 2, 5), (6, 3, 1)))
    E = _pole_embedding(t, 2)
    assert E.B.grading == (-3, -2, -1, 0, 1, 2, -1, 0, 1, 0)
    # a picket is a one-column pole
    picket = picket_tableau(Picket(3, 2))
    assert tableau_of_embedding(_pole_embedding(picket, 2)) == picket
    not_poles = [
        LRTableau([Column(2, 1, (1,)), Column(1, 0, (1,))]),  # repeated entry
        LRTableau([Column(3, 1, (1, 3)), Column(2, 1, (2,))]),  # no run
        LRTableau([Column(3, 2, (1,)), Column(1, 0, (2,))]),  # 2 in row 1
    ]
    for bad in not_poles:
        with pytest.raises(ValueError):
            pole_generator(bad.columns)
        with pytest.raises(ValueError):
            _pole_embedding(bad, 2)


def _json_without_beta(E):
    """E.to_json() less its beta, which T determines: beta costs a Jordan
    type per call."""
    return E.p, E.B.action, E.span, E.B.grading


def test_realize_pole_matches_run_reference():
    for k in range(1, 9):
        for layers in itertools.combinations(range(8), k):
            pole = Pole(layers, minimal_ambient(layers))
            for p in (2, 3):
                got = _json_without_beta(realize_pole(pole, p))
                want = _json_without_beta(ref.realize_pole(pole, p))
                assert got == want, pole


def test_pole_tableaux_round_trip():
    # every alpha = (k) tableau is a pole tableau, strip or not
    for shape in iter_all_shapes(8):
        if len(shape.alpha) != 1:
            continue
        for t in enumerate_tableaux(shape):
            for p in (2, 3):
                assert tableau_of_embedding(_pole_embedding(t, p)) == t


def test_realize_non_strip_matches_per_part_reference():
    refused = 0
    for shape in iter_all_shapes(8):
        if is_horizontal_strip(shape.beta, shape.gamma):
            continue
        for t in enumerate_tableaux(shape):
            try:
                want = _json_without_beta(ref.realize_tableau(t, 2))
            except ValueError:
                refused += 1
                with pytest.raises(ValueError):
                    realize_tableau(t, 2)
                continue
            assert _json_without_beta(realize_tableau(t, 2)) == want, t
    assert refused == 22


def test_realize_round_trip_exhaustive_small():
    # also the same embedding as the Pole round trip realization
    for shape in iter_strip_shapes(9):
        for t in enumerate_tableaux(shape):
            for p in (2, 3):
                E = realize_tableau(t, p)
                assert tableau_of_embedding(E) == t
                assert tb.from_chain(list(E.chain())) == t
                assert E.to_json() == tableaux_reference.realize_strip(t, p).to_json()


def test_strip_realization_builds_no_tableau(monkeypatch):
    # the pieces stay column groups and the re-check compares chains
    ts = [t for shape in iter_strip_shapes(6) for t in enumerate_tableaux(shape)]
    built = []
    init = LRTableau.__init__
    monkeypatch.setattr(LRTableau, "__init__",
                        lambda self, cols: built.append(1) or init(self, cols))
    for t in ts:
        built.clear()
        realize_tableau(t, 2)
        assert not built, t


def test_realize_rejects_a_sum_of_another_tableau(monkeypatch):
    # peeled poles of a tableau that is no strip summing to another tableau
    # are bad input; a strip's pole pieces always realize it, so a strip
    # whose realization reads back another chain is a bug, and the message
    # ends in the command that reproduces it
    strip = Shape((2, 1), (5, 2, 1), (4, 1))
    for shape, error, message in (
            (TWO_CLASS, ValueError, "not a union of pole tableaux: got "),
            (strip, InvariantViolation, "the realization of a horizontal strip reads back")):
        t, other = enumerate_tableaux(shape)
        wrong = realize_tableau(other, 2)
        monkeypatch.setattr(nilmod, "graded_pole_module",
                            lambda pieces, p, degrees, wrong=wrong: (wrong.B, wrong.span))
        with pytest.raises(error, match=message) as info:
            realize_tableau(t, 2)
        monkeypatch.undo()
        reproduced = "; reproduce with: lrlab realize '" in str(info.value)
        assert reproduced == (error is InvariantViolation)


def test_realize_non_horizontal_cases():
    # picket stacks realize fine
    u = tableau_union(picket_tableau(Picket(4, 3)), picket_tableau(Picket(1, 1)))
    E = realize_tableau(u, 2)
    assert tableau_of_embedding(E) == u
    # the two-generator exceptional tableau has no pole-sum realization
    gx = LRTableau([Column(4, 2, (1, 3)), Column(2, 0, (1, 2))])
    with pytest.raises(ValueError):
        realize_tableau(gx, 2)


def test_chain_pole_split_two_class_shape():
    from lrlab.nilmod import _chain_pole_split

    from lrlab.tableaux import reading_word

    ts = enumerate_tableaux(Shape((3, 1), (4, 3, 1), (3, 1)))
    larger = next(t for t in ts if reading_word(t) == (3, 2, 1, 1))
    piece, rest = _chain_pole_split(larger)
    assert piece == pole_tableau(Pole((1, 2, 3), (4,)))
    assert set(rest.columns) == {Column(3, 3, ()), Column(1, 0, (1,))}


def test_realize_empty_tableau():
    from lrlab.poles import empty_tableau

    t = empty_tableau((3, 1))
    E = realize_tableau(t, 2)
    assert E.dim_sub() == 0
    assert tableau_of_embedding(E) == t


def test_invariant_intersection_examples():
    M12 = direct_sum(realize_pole(Pole((0, 2, 3), (4, 1)), 2),
                     realize_picket(3, 0, 2), realize_picket(2, 1, 2))
    M3 = direct_sum(realize_picket(4, 1, 2), realize_picket(3, 3, 2),
                    realize_picket(2, 0, 2), realize_picket(1, 0, 2))
    assert invariant_intersection_dim(M12, 2, 1) == 1
    assert invariant_intersection_dim(M3, 2, 1) == 2
    assert invariant_intersection_dim(M12, 0, M12.B.dim) == M12.dim_sub()


@pytest.mark.parametrize("p", [2, 3])
def test_invariant_intersection_matches_zassenhaus_reference(p):
    rng = np.random.default_rng(40 + p)
    cat = [E for _, E in s4_catalog(p)]
    for i, j in itertools.combinations_with_replacement(range(len(cat)), 2):
        if (i + j) % 4:
            continue
        S = direct_sum(cat[i], cat[j])
        F = _conjugate(S, _random_invertible(rng, S.B.dim, p))
        for r in range(6):
            for s in range(6):
                want = ref.invariant_intersection_dim(S, r, s)
                assert invariant_intersection_dim(S, r, s) == want, (i, j, r, s)
                assert invariant_intersection_dim(F, r, s) == want, (i, j, r, s)


def _graded_invertible(rng, grading, p):
    """A random invertible S that keeps every degree: one random
    invertible block on the basis vectors of each degree."""
    S = np.zeros((len(grading), len(grading)), dtype=np.int64)
    for d in set(grading):
        at = [i for i, x in enumerate(grading) if x == d]
        S[np.ix_(at, at)] = _random_invertible(rng, len(at), p)
    return S


def test_embedding_json_round_trip():
    E = realize_pole(Pole((0, 2), (3, 1)), 2)
    data = E.to_json()
    E2 = Embedding.from_json(data)
    assert E2.to_json() == data
    # read in its Jordan form: sizes sorted, ungraded, the same invariants
    assert E2.B.sizes == (3, 1) and E2.B.grading is None
    assert tableau_of_embedding(E2) == tableau_of_embedding(E)
    # conjugated graded inputs, T off [0, p) and A_span neither closed nor
    # reduced, print back with T mod p and A_span closed under T and reduced
    rng = np.random.default_rng(90)
    shape = Shape((2, 1), (4, 3, 2), (3, 2, 1))
    for p in (2, 3, 5):
        for t in enumerate_tableaux(shape):
            E = realize_tableau(t, p)
            S = _graded_invertible(rng, E.B.grading, p)
            conj = _conjugated(E, S)
            # in the key order that to_json prints
            data = {"p": p, "beta": list(E.beta), "T": conj["T"], "A_span": conj["A_span"],
                    "grading": list(E.B.grading)}
            given = dict(data, T=(np.array(data["T"]) + p * rng.integers(-2, 3, size=(9, 9))).tolist())
            want = dict(data, A_span=[list(row) for row in ref.general_embedding(data).span])
            assert want["A_span"] != data["A_span"]
            F = Embedding.from_json(given)
            assert F.to_json() == want
            assert json.dumps(Embedding.from_json(want).to_json()) == json.dumps(want)
            assert (F.alpha, F.chain()) == (E.alpha, E.chain())
