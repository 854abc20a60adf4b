import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_reference as linalg_ref
import nilmod_reference as ref
from conftest import FIVE_CLASS, TWO_CLASS, iter_strip_shapes
from lrlab import linalg as la
from lrlab.nilmod import realize_tableau, tableau_of_embedding
from lrlab.oracle import enumerate_submodules
from lrlab.tableaux import enumerate_tableaux


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_idempotent_and_rank(p):
    rng = np.random.default_rng(17)
    for _ in range(50):
        M = rng.integers(0, p, size=(5, 7))
        R, piv = la.rref(M, p)
        R2, piv2 = la.rref(R, p)
        assert (R == R2).all() and piv == piv2
        assert la.rank(M, p) == len(piv)
        # pivot columns are unit vectors
        for i, c in enumerate(piv):
            col = R[:, c]
            assert col[i] == 1 and (np.delete(col, i) == 0).all()


@pytest.mark.parametrize("p", [2, 3])
def test_null_space(p):
    rng = np.random.default_rng(5)
    for _ in range(40):
        M = rng.integers(0, p, size=(4, 6))
        N = la.null_space(M, p)
        assert N.shape[0] == 6 - la.rank(M, p)
        if N.shape[0]:
            assert not ((M @ N.T) % p).any()


@pytest.mark.parametrize("p", [2, 3])
def test_intersection_dimensions(p):
    rng = np.random.default_rng(23)
    for _ in range(60):
        A = la.row_space(rng.integers(0, p, size=(3, 6)), p)
        B = la.row_space(rng.integers(0, p, size=(3, 6)), p)
        inter = ref.space_intersect(A, B, p)
        sum_dim = ref.space_sum(A, B, p).shape[0]
        assert inter.shape[0] == A.shape[0] + B.shape[0] - sum_dim
        Ra, pa = la.rref(A, p)
        Rb, pb = la.rref(B, p)
        for v in inter:
            assert la.in_space(v, Ra, pa, p)
            assert la.in_space(v, Rb, pb, p)


def test_reduce_and_membership():
    A = la.row_space(np.array([[1, 1, 0], [0, 1, 1]]), 2)
    R, piv = la.rref(A, 2)
    assert la.in_space(np.array([1, 0, 1]), R, piv, 2)
    assert not la.in_space(np.array([1, 0, 0]), R, piv, 2)


def test_space_key_distinguishes():
    A = la.row_space(np.array([[1, 0]]), 2)
    B = la.row_space(np.array([[0, 1]]), 2)
    assert la.space_key(A) != la.space_key(B)
    assert la.space_key(A) == la.space_key(la.row_space(np.array([[1, 0]]), 2))


def _random_matrices(rng, p):
    """Seeded inputs for the kernel cross-check: empty, tiny, tall, wide and
    up to 40 x 30, dense and sparse, with negative entries, entries >= p
    and repeated rows."""
    big = min(3 * p, 2**40)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (2, 9), (9, 2), (6, 10),
              (12, 12), (20, 6), (6, 20), (24, 24), (40, 30)]
    for shape in shapes:
        for density in (1.0, 0.25):
            M = rng.integers(-big, big, size=shape)
            M[rng.random(shape) >= density] = 0
            yield M
            if shape[0] >= 2:
                rep = M.copy()
                rep[rng.integers(0, shape[0], size=shape[0] // 2)] = M[0]
                yield rep


def _same(got, want):
    (R, pivots), (R_ref, pivots_ref) = got, want
    return (R.dtype == R_ref.dtype and R.shape == R_ref.shape
            and (R == R_ref).all() and pivots == pivots_ref)


def test_rref_matches_numpy_reference(monkeypatch):
    """The list kernel equals the numpy reference on seeded random inputs,
    and on every echelon form of the published censuses and of the round
    trip on strip tableaux with |beta| <= 7 over F_2 and F_3."""
    for p in (2, 3, 5, 7, 1358187913):
        rng = np.random.default_rng(p)
        for M in _random_matrices(rng, p):
            assert _same(la.rref(M, p), linalg_ref.rref(M, p)), (M.tolist(), p)
            assert la.rank(M, p) == len(linalg_ref.rref(M, p)[1])

    kernel_rref, kernel_rank = la.rref, la.rank
    calls = []

    def checked_rref(M, p):
        got = kernel_rref(M, p)
        assert _same(got, linalg_ref.rref(M, p)), (M.tolist(), p)
        calls.append(M.size)
        return got

    def checked_rank(M, p):
        got = kernel_rank(M, p)
        assert got == len(linalg_ref.rref(M, p)[1]), (M.tolist(), p)
        return got

    monkeypatch.setattr(la, "rref", checked_rref)
    monkeypatch.setattr(la, "rank", checked_rank)
    for shape in (TWO_CLASS, FIVE_CLASS):
        enumerate_submodules(shape, 2)
    for shape in iter_strip_shapes(7):
        for t in enumerate_tableaux(shape):
            for p in (2, 3):
                assert tableau_of_embedding(realize_tableau(t, p)) == t
    assert len(calls) > 1000


@st.composite
def small_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 7))
    entries = st.integers(-2 * p, 2 * p)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols), p


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_matrices())
def test_rref_properties(case):
    M, p = case
    R, pivots = la.rref(M, p)
    assert R.dtype == np.int64 and R.shape == (len(pivots), M.shape[1])
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        unit = np.zeros(len(pivots), dtype=np.int64)
        unit[i] = 1
        assert (R[:, c] == unit).all()
    assert all(row.any() for row in R)
    R2, pivots2 = la.rref(R, p)
    assert (R2 == R).all() and pivots2 == pivots
    assert all(la.in_space(v, R, pivots, p) for v in M)
    assert la.rank(M, p) == len(pivots)
