import random

import numpy as np
import pytest

import nilmod_reference as ref
from lrlab import linalg as la


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
