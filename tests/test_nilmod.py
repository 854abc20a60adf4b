import itertools
import random

import numpy as np
import pytest

import nilmod_reference as ref
import tableaux_reference
from conftest import (FIVE_CLASS, TWO_CLASS, iter_all_shapes, iter_strip_shapes,
                      random_pole)
from linalg_reference import mat
from lrlab import linalg as la
from lrlab import nilmod
from lrlab import tableaux as tb
from lrlab.errors import InvariantViolation
from lrlab.nilmod import (Embedding, NilModule, canonical_module, direct_sum,
                          generator_blocks, graded_pole_embedding, hom_dim,
                          hom_positions, invariant_closure,
                          invariant_intersection_dim, jordan_basis,
                          jordan_type, mu_entries,
                          picket_embedding, picket_dominance_test,
                          picket_hom_profile, pole_generator, realize_picket,
                          realize_pole, realize_tableau, tableau_of_embedding)
from lrlab.boxmoves import box_successors
from lrlab.oracle import (_distinct_submodules, iso_fingerprint,
                          picket_pole_catalog, s4_catalog)
from lrlab.partitions import partition
from lrlab.poles import (Picket, Pole, minimal_ambient, picket_tableau,
                         pole_tableau, tableau_union)
from lrlab.tableaux import (LRTableau, Column, Shape, dominance_leq,
                            enumerate_tableaux, is_horizontal_strip)
from lrlab.witness import witness_sequence


def test_nilmodule_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        NilModule(2, np.eye(2, dtype=np.int64))


def test_constructors_accept_any_rows_of_integers():
    # lists, tuples in or out of [0, p) and arrays all give the same rows
    # of Python ints in [0, p)
    want = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    actions = [want, [list(row) for row in want], ((0, 0, 3), (4, 0, 0), (0, -2, 0)),
               np.array(want)]
    vectors = [[(0, 1, 0)], [[0, 4, 0]], ((0, -2, 0),), np.array([[0, 1, 0]])]
    for T, A in zip(actions, vectors):
        E = Embedding(NilModule(3, T), A)
        assert E.B.action == want and E.span == ((0, 1, 0), (0, 0, 1))
        assert all(type(x) is int for row in E.B.action + E.span for x in row)


# largest prime with 5 p^2 < 2^63, and the next prime
P_MAX_DIM5, P_OVER_DIM5 = 1358187913, 1358187923


def test_prime_bounded_by_int64():
    assert 5 * P_MAX_DIM5**2 < 2**63 <= 5 * P_OVER_DIM5**2
    B = canonical_module((3, 2), P_MAX_DIM5)
    E = Embedding(B, [[0, 1, 0, 1, 0]])
    S = _random_invertible(np.random.default_rng(7), 5, P_MAX_DIM5)
    F = _conjugate(E, S)
    assert jordan_type(F.B) == (3, 2)
    assert F.alpha == E.alpha == (2,)
    assert F.chain() == E.chain()
    assert hom_dim(F, F) == hom_dim(E, E)
    with pytest.raises(ValueError, match="too large"):
        NilModule(P_OVER_DIM5, F.B.action)


def test_grading_consistency_checked():
    T = np.zeros((2, 2), dtype=np.int64)
    T[1, 0] = 1
    NilModule(2, T, grading=(0, 1))
    with pytest.raises(ValueError):
        NilModule(2, T, grading=(0, 5))
    with pytest.raises(ValueError, match=r"at \(1,0\)"):
        NilModule(2, [[0, 0], [1, 0]], [0, 0])
    # e1 -> e0 -> e2: the first offence in column-major order is reported
    with pytest.raises(ValueError, match=r"at \(2,0\)"):
        NilModule(2, [[0, 1, 0], [0, 0, 0], [1, 0, 0]], [0, 0, 0])


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
        assert jordan_basis(M)[0] == (1, 3)
        S = direct_sum(Embedding(M, []), Embedding(M, []))
        assert jordan_basis(S.B)[0] == (1, 3, 1, 3)
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
        assert jordan_type(NilModule(3, T2)) == (4, 2, 1)


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


def _conjugate(E, S):
    """The image of E under the base change S: action S T S^-1, subspace S A."""
    p = E.p
    T = (((S @ ref.action_of(E.B)) % p) @ _inverse_mod_p(S, p)) % p
    return Embedding(NilModule(p, T), (ref.span_of(E) @ S.T) % p)


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
        F = _conjugate(E, _random_invertible(rng, E.B.dim, p))
        assert F.alpha == E.alpha
        assert F.chain() == E.chain() == ref.chain(F)
        assert F.beta == E.beta
        for c in rng.choice(len(cat), size=3, replace=False):
            C = cat[c]
            G = _conjugate(C, _random_invertible(rng, C.B.dim, p))
            assert hom_dim(F, G) == hom_dim(E, C)
            assert hom_dim(G, F) == hom_dim(C, E) == ref.hom_dim(G, F)


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
            B = NilModule(p, T)
            sizes, Q = jordan_basis(B)
            assert la.rank(Q, p) == n
            # row convention: a = c Q, so c maps to c Q T^T Q^-1
            row_action = (((mat(Q, n) @ T.T) % p) @ _inverse_mod_p(mat(Q, n), p)) % p
            assert (row_action == ref.action_of(canonical_module(sizes, p)).T).all()
            assert partition(sizes) == tuple(sizes) == jordan_type(B) == beta
            assert jordan_basis(B)[1] is Q  # kept on the module


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hom_dim_matches_kron_reference_on_random_conjugates(p):
    rng = np.random.default_rng(20 + p)
    cat = [E for _, E in s4_catalog(p)]
    for _ in range(40):
        E, C = (cat[i] for i in rng.choice(len(cat), size=2))
        F = _conjugate(E, _random_invertible(rng, E.B.dim, p))
        G = _conjugate(C, _random_invertible(rng, C.B.dim, p))
        assert hom_dim(F, G) == ref.kron_hom_dim(F, G) == hom_dim(E, C)


HOM_CENSUS_SHAPES = [(TWO_CLASS, 2), (FIVE_CLASS, 2), (Shape((2, 1), (3, 2, 1), (2, 1)), 3)]


def _census_targets(shape, p):
    """Every embedding the census of ``shape`` over F_p fingerprints."""
    B = canonical_module(shape.beta, p)
    spans = _distinct_submodules(B, shape.alpha)
    return [E for E in (Embedding(B, S) for S in spans) if E.gamma == shape.gamma]


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
        F = _conjugate(E, _random_invertible(rng, E.B.dim, p))
        G = _conjugate(C, _random_invertible(rng, C.B.dim, p))
        assert len(nilmod._generators(F)) == len(F.alpha) == len(E.alpha)
        several += len(F.alpha) > 1
        for pair in ((F, G), (G, F)):
            assert hom_dim(*pair) == ref.block_hom_dim(*pair) == ref.hom_dim(*pair)
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
        for Z, U in ((zero, full), (_conjugate(zero, S), _conjugate(full, S))):
            for E in (Z, U):
                assert hom_dim(E, E) == ref.block_hom_dim(E, E) == ref.hom_dim(E, E)
            for C in cat:
                free = sum(min(b, c) for b in sizes for c in C.beta)
                assert hom_dim(Z, C) == hom_dim(C, U) == free
                for pair in ((Z, C), (C, Z), (U, C), (C, U)):
                    assert hom_dim(*pair) == ref.block_hom_dim(*pair) == ref.hom_dim(*pair)


@pytest.mark.parametrize("p", [2, 3])
def test_invariant_closure_matches_stacked_rref_loop(p):
    rng = np.random.default_rng(30 + p)
    grown = 0
    for beta in JORDAN_TYPES:
        n = sum(beta)
        B = canonical_module(beta, p)
        if n:
            S = _random_invertible(rng, n, p)
            B = NilModule(p, (((S @ ref.action_of(B)) % p) @ _inverse_mod_p(S, p)) % p)
        for k in range(3):
            gens = rng.integers(0, p, size=(k, n))
            span, pivots = invariant_closure(B, gens)
            want, want_pivots = ref.invariant_closure(B, gens)
            assert span == tuple(map(tuple, want.tolist()))
            assert pivots == want_pivots
            grown += len(span) > la.rank(gens.tolist(), p)
    assert grown >= 8  # over half the 14 nonempty generator sets grow


def test_beta_and_tableau_computed_once(monkeypatch):
    calls, chains = [], []
    rref, from_chain = la.rref, tb.from_chain
    monkeypatch.setattr(la, "rref", lambda *a: calls.append(1) or rref(*a))
    monkeypatch.setattr(tb, "from_chain",
                        lambda *a: chains.append(1) or from_chain(*a))
    E = realize_pole(Pole((0, 2), (3, 1)), 2)
    # a module read from JSON computes its Jordan basis on first use
    for F in (E, Embedding.from_json(E.to_json())):
        chains.clear()  # building the pole tableau used one
        t = tableau_of_embedding(F)
        before = len(calls)
        for _ in range(2):
            assert tableau_of_embedding(F) is t
            F.chain(), F.alpha, F.beta, F.gamma, F.to_json(), repr(F)
        assert len(calls) == before and len(chains) == 1


def test_wrong_jordan_basis_raises():
    T = canonical_module((2, 1), 3).action
    I = np.eye(3, dtype=np.int64)
    assert jordan_basis(NilModule(3, T, basis=((2, 1), I, I))) == ((2, 1), la.identity(3))
    swapped = I[[1, 0, 2]]  # T g listed before g
    wrong = [((1, 2), I, I), ((3,), I, I), ((2,), I, I), ((2, 1), I, 2 * I),
             ((2, 1), swapped, swapped.T), ((2, 0, 1), I, I)]
    for basis in wrong:
        with pytest.raises(InvariantViolation, match="not a Jordan basis"):
            NilModule(3, T, basis=basis)


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
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda *a: calls.append(1) or rref(*a))
    for shape in iter_strip_shapes(8):
        for t in enumerate_tableaux(shape):
            for p in (2, 3):
                calls.clear()
                E = realize_tableau(t, p)
                tableau_of_embedding(E)
                # alpha_1 for the closure, alpha_1 for the layer table
                assert len(calls) <= 2 * t.shape.alpha[0] + 2, t
                assert _same_as_reference(E), t


def test_witness_terms_match_reference():
    for shape in iter_strip_shapes(8):
        for t in enumerate_tableaux(shape):
            for t2, move in box_successors(t):
                for p in (2, 3):
                    ws = witness_sequence(t, t2, move, p)
                    assert _same_as_reference(ws.y), (t, t2)
                    assert _same_as_reference(direct_sum(ws.xt, ws.zt)), (t, t2)


@pytest.mark.parametrize("p", [2, 3])
def test_census_spans_match_reference(p):
    # every span the search yields, also those of another quotient type
    B = canonical_module(TWO_CLASS.beta, p)
    kept = 0
    for span in _distinct_submodules(B, TWO_CLASS.alpha):
        E = Embedding(B, span)
        assert _same_as_reference(E)
        kept += (E.alpha, E.gamma) == (TWO_CLASS.alpha, TWO_CLASS.gamma)
    assert 0 < kept


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


def test_graded_pole_example():
    t = pole_tableau(Pole((0, 2, 5), (6, 3, 1)))
    E = graded_pole_embedding(t, 2)
    assert E.B.grading == (-3, -2, -1, 0, 1, 2, -1, 0, 1, 0)
    # a picket is a one-column pole
    picket = picket_tableau(Picket(3, 2))
    assert tableau_of_embedding(graded_pole_embedding(picket, 2)) == picket
    not_poles = [
        LRTableau([Column(2, 1, (1,)), Column(1, 0, (1,))]),  # repeated entry
        LRTableau([Column(3, 1, (1, 3)), Column(2, 1, (2,))]),  # no run
        LRTableau([Column(3, 2, (1,)), Column(1, 0, (2,))]),  # 2 in row 1
    ]
    for bad in not_poles:
        with pytest.raises(ValueError):
            pole_generator(bad.columns)
        with pytest.raises(ValueError):
            graded_pole_embedding(bad, 2)


def _json_without_beta(E):
    """E.to_json() less its beta, which T determines: beta costs a Jordan
    type per call."""
    return E.p, E.B.action, E.span, E.B.grading


def test_realize_pole_matches_run_reference():
    for k in range(1, 9):
        for layers in itertools.combinations(range(8), k):
            pole = Pole(layers, minimal_ambient(layers))
            for p in (2, 3):
                for shift in (0, 2):
                    got = _json_without_beta(realize_pole(pole, p, shift))
                    want = _json_without_beta(ref.realize_pole(pole, p, shift))
                    assert got == want, pole


def test_pole_tableaux_round_trip():
    # every alpha = (k) tableau is a pole tableau, strip or not
    for shape in iter_all_shapes(8):
        if len(shape.alpha) != 1:
            continue
        for t in enumerate_tableaux(shape):
            for p in (2, 3):
                assert tableau_of_embedding(graded_pole_embedding(t, p)) == t


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
    t, other = enumerate_tableaux(TWO_CLASS)
    wrong = realize_tableau(other, 2)
    monkeypatch.setattr(nilmod, "graded_pole_sum", lambda pieces, p: wrong)
    with pytest.raises(ValueError, match="not a union of pole tableaux: got "):
        realize_tableau(t, 2)


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


def test_embedding_json_round_trip():
    E = realize_pole(Pole((0, 2), (3, 1)), 2)
    data = E.to_json()
    E2 = Embedding.from_json(data)
    assert E2.span == E.span
    assert E2.B.grading == E.B.grading
    assert tableau_of_embedding(E2) == tableau_of_embedding(E)
