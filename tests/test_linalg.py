import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linalg_reference as linalg_ref
import nilmod_reference as ref
from linalg_reference import mat
from conftest import FIVE_CLASS, TWO_CLASS, iter_strip_shapes
from lrlab import linalg as la
from lrlab.nilmod import realize_tableau, tableau_of_embedding
from lrlab.oracle import enumerate_submodules, s4_catalog
from lrlab.tableaux import enumerate_tableaux


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_idempotent_and_rank(p):
    rng = np.random.default_rng(17)
    for _ in range(50):
        M = rng.integers(0, p, size=(5, 7)).tolist()
        R, piv = la.rref(M, p)
        R2, piv2 = la.rref(R, p)
        assert R == R2 and piv == piv2
        assert la.rank(M, p) == len(piv)
        # pivot columns are unit vectors
        for i, c in enumerate(piv):
            assert [row[c] for row in R] == [int(j == i) for j in range(len(piv))]


@pytest.mark.parametrize("p", [2, 3])
def test_null_space(p):
    rng = np.random.default_rng(5)
    for _ in range(40):
        M = rng.integers(0, p, size=(4, 6))
        N = la.null_space(M.tolist(), p)
        assert len(N) == 6 - la.rank(M.tolist(), p)
        assert not ((M @ mat(N, 6).T) % p).any()


@pytest.mark.parametrize("p", [2, 3])
def test_intersection_dimensions(p):
    rng = np.random.default_rng(23)
    for _ in range(60):
        A = la.row_space(rng.integers(0, p, size=(3, 6)).tolist(), p)
        B = la.row_space(rng.integers(0, p, size=(3, 6)).tolist(), p)
        inter = ref.space_intersect(mat(A, 6), mat(B, 6), p)
        sum_dim = ref.space_sum(mat(A, 6), mat(B, 6), p).shape[0]
        assert inter.shape[0] == len(A) + len(B) - sum_dim
        Ra, pa = la.rref(A, p)
        Rb, pb = la.rref(B, p)
        for v in inter.tolist():
            assert la.in_space(v, Ra, pa, p)
            assert la.in_space(v, Rb, pb, p)


def test_reduce_and_membership():
    A = la.row_space([[1, 1, 0], [0, 1, 1]], 2)
    R, piv = la.rref(A, 2)
    assert la.in_space([1, 0, 1], R, piv, 2)
    assert not la.in_space([1, 0, 0], R, piv, 2)
    assert la.reduce_vec([1, 0, 0], R, piv, 2) == (0, 0, 1)


def test_space_key_distinguishes():
    # a canonical basis is a tuple of row tuples: its own dictionary key
    A = la.row_space([[1, 0]], 2)
    B = la.row_space([[0, 1]], 2)
    assert A == ((1, 0),) and A != B
    spaces = {A: "A", B: "B"}
    assert spaces[la.row_space([[1, 0], [3, 0]], 2)] == "A"
    assert spaces[la.row_space([[1, 1], [1, 0]], 2)[1:]] == "B"


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
    """The kernel's rows and pivots against the reference's array and
    pivots, every entry a Python int."""
    (R, pivots), (R_ref, pivots_ref) = got, want
    return (type(R) is tuple and all(type(row) is tuple for row in R)
            and all(type(x) is int for row in R for x in row)
            and R == tuple(map(tuple, R_ref.tolist())) and pivots == pivots_ref)


def test_rref_matches_numpy_reference(monkeypatch):
    """The kernel equals the numpy reference and the column sweep it
    replaced on seeded random inputs, and the numpy reference on every
    echelon form of the published censuses, with X's entry taken once per
    bucket and for every span (a caller's catalog), and of the round trip
    on strip tableaux with |beta| <= 7 over F_2 and F_3.  Every ``extend``
    call is checked and counted too: the census search extends a parent's
    echelon form by the residues of its orbit directly, and the closure
    extends one echelon form by its orbit levels."""
    for p in (2, 3, 5, 7, 1358187913):
        rng = np.random.default_rng(p)
        for M in _random_matrices(rng, p):
            got = la.rref(M.tolist(), p)
            assert _same(got, linalg_ref.rref(M, p)), (M.tolist(), p)
            assert got == linalg_ref.sweep_rref(M.tolist(), p), (M.tolist(), p)
            assert la.rank(M.tolist(), p) == len(linalg_ref.rref(M, p)[1])

    kernel_rref, kernel_rank, kernel_extend = la.rref, la.rank, la.extend
    calls, extended, extensions = [], [], []

    def checked_rref(M, p):
        got = kernel_rref(M, p)
        width = len(M[0]) if len(M) else 0
        assert _same(got, linalg_ref.rref(mat(M, width), p)), (M, p)
        calls.append(len(M) * width)
        return got

    def checked_rank(M, p):
        got = kernel_rank(M, p)
        width = len(M[0]) if len(M) else 0
        assert got == len(linalg_ref.rref(mat(M, width), p)[1]), (M, p)
        return got

    def checked_extend(R, pivots, M, p):
        got = kernel_extend(R, pivots, M, p)
        rows = [*R, *M]
        width = len(rows[0]) if rows else 0
        assert _same(got, linalg_ref.rref(mat(rows, width), p)), (R, pivots, M, p)
        extended.append(len(rows) * width)
        if R:  # rref extends the empty form; the search and the closure pass a parent
            extensions.append(len(M))
        return got

    monkeypatch.setattr(la, "rref", checked_rref)
    monkeypatch.setattr(la, "rank", checked_rank)
    monkeypatch.setattr(la, "extend", checked_extend)
    for shape in (TWO_CLASS, FIVE_CLASS):  # by class, and span by span
        enumerate_submodules(shape, 2)
        enumerate_submodules(shape, 2, catalog=s4_catalog(2))
    for shape in iter_strip_shapes(7):
        for t in enumerate_tableaux(shape):
            for p in (2, 3):
                assert tableau_of_embedding(realize_tableau(t, p)) == t
    assert len(calls) > 500 and len(extended) > 2000 and len(extensions) > 500


@st.composite
def small_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 7))
    entries = st.integers(-2 * p, 2 * p)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return rows, ncols, p


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_matrices())
def test_rref_properties(case):
    M, ncols, p = case
    R, pivots = la.rref(M, p)
    assert len(R) == len(pivots) and all(len(row) == ncols for row in R)
    assert all(0 <= x < p for row in R for x in row)
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert [row[c] for row in R] == [int(j == i) for j in range(len(pivots))]
    assert all(any(row) for row in R)
    R2, pivots2 = la.rref(R, p)
    assert R2 == R and pivots2 == pivots
    assert all(la.in_space(v, R, pivots, p) for v in M)
    assert la.rank(M, p) == len(pivots)


@st.composite
def extensions(draw):
    """An echelon form R of random rows and rows M to add, over F_p for a
    small and a large prime, with entries from -2p to 2p, some columns
    zero throughout and some rows of M zero."""
    p = draw(st.sampled_from([2, 3, 5, 1358187913]))
    ncols = draw(st.integers(0, 7))
    zero_columns = draw(st.sets(st.integers(0, 6), max_size=3))
    entries = st.integers(-2 * p, 2 * p)

    def rows(n):
        drawn = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                              max_size=n))
        return [[0 if c in zero_columns else x for c, x in enumerate(row)] for row in drawn]

    R, pivots = la.rref(rows(5), p)
    M = rows(5)
    for i in draw(st.lists(st.integers(0, len(M)), max_size=2)):
        M.insert(i, [0] * ncols)
    return R, pivots, M, p


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(extensions())
@example(((), [], [[0, 0, 0], [-1, 0, 2]], 3))  # a zero row, a zero column
@example((((1, 0, 0, 5),), [0], [[0, 0, 0, 0], [-2, 0, 1, -7]], 1358187913))
@example((((0, 1),), [1], [[0, -1], [0, 0]], 2))  # nothing new
@example(((), [], [[], []], 5))  # no columns
def test_extend_equals_the_echelon_form_of_the_stacked_rows(case):
    R, pivots, M, p = case
    got = la.extend(R, pivots, M, p)
    assert got == la.rref([*R, *M], p) == linalg_ref.sweep_rref([*R, *M], p)
