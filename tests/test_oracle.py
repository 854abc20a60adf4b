from fractions import Fraction

import pytest

import oracle_reference as ref
from conftest import FIVE_CLASS, TWO_CLASS
from lrlab import linalg as la
from lrlab.errors import GuardExceeded
from lrlab.nilmod import (canonical_module, direct_sum, hom_dim, realize_picket,
                          realize_pole)
from lrlab.oracle import (_distinct_submodules, enumerate_submodules,
                          iso_fingerprint, nominal_tuple_count, s4_catalog)
from lrlab.poles import Pole
from lrlab.tableaux import Shape, enumerate_tableaux


def test_catalog_has_twenty_objects():
    cat = s4_catalog(2)
    assert len(cat) == 20
    names = [n for n, _ in cat]
    assert names.count("X") == 1
    assert sum(1 for n in names if n.startswith("P^")) == 4


def test_two_class_census(censuses):
    census = censuses[TWO_CLASS]
    assert len(census.classes) == 2
    for t in enumerate_tableaux(TWO_CLASS):
        assert len(census.classes_of(t)) == 1
    assert census.total_submodules == sum(c.submodule_count for c in census.classes)


def test_five_class_census_distribution(censuses):
    census = censuses[FIVE_CLASS]
    assert len(census.classes) == 5
    counts = sorted(len(census.classes_of(t)) for t in enumerate_tableaux(FIVE_CLASS))
    assert counts == [1, 2, 2]


@pytest.mark.parametrize("shape,p", [
    (TWO_CLASS, 2),
    (Shape((2, 1), (3, 2, 1), (2, 1)), 2),
    (Shape((2, 1), (2, 1), ()), 3),
    (Shape((1, 1), (2, 1, 1), (1, 1)), 3),
    # repeated parts of alpha
    (Shape((1, 1, 1), (2, 2, 2, 1), (1, 1, 1, 1)), 2),
    (Shape((), (3, 1), (3, 1)), 3),
], ids=str)
def test_level_wise_search_matches_per_tuple_reference(shape, p):
    B = canonical_module(shape.beta, p)
    keys = [la.space_key(span) for span in _distinct_submodules(B, shape.alpha)]
    assert keys == sorted(set(keys))
    assert set(keys) == {la.space_key(span)
                         for span in ref.distinct_submodules(B, shape.alpha)}


def test_zero_alpha_census():
    shape = Shape((), (3, 1), (3, 1))
    census = enumerate_submodules(shape, 2)
    assert census.total_submodules == 1
    assert len(census.classes) == 1
    assert census.classes[0].representative.dim_sub() == 0


def test_guard():
    big = Shape((3, 1), (4, 3, 2, 1), (3, 2, 1))
    with pytest.raises(GuardExceeded):
        enumerate_submodules(big, 2, guard=100)
    assert nominal_tuple_count(big, 2) == (2 ** 10) ** 2


def test_census_generic_field_matches_gf2_structure():
    # same shape over F2 and F3: class COUNTS agree (field-independent
    # statements), submodule counts differ
    shape = Shape((2,), (3, 1), (1, 1))
    c2 = enumerate_submodules(shape, 2)
    c3 = enumerate_submodules(shape, 3)
    assert len(c2.classes) == len(c3.classes)
    assert {len(c2.classes_of(t)) for t in enumerate_tableaux(shape)} == \
        {len(c3.classes_of(t)) for t in enumerate_tableaux(shape)}


def test_fingerprints_separate_known_nonisomorphic():
    cat = s4_catalog(2)
    M12 = direct_sum(realize_pole(Pole((0, 2, 3), (4, 1)), 2),
                     realize_picket(3, 0, 2), realize_picket(2, 1, 2))
    M1 = direct_sum(realize_picket(4, 3, 2), realize_picket(3, 0, 2),
                    realize_picket(2, 0, 2), realize_picket(1, 1, 2))
    assert iso_fingerprint(M12, cat) != iso_fingerprint(M1, cat)


def test_fingerprint_recovers_multiplicities():
    # fingerprint of a direct sum solves back to its summand multiplicities
    # through the catalog self-hom matrix
    cat = s4_catalog(2)
    hom_matrix = [[Fraction(hom_dim(ci, cj)) for _, cj in cat] for _, ci in cat]
    mult = {4: 2, 9: 1, 16: 1}  # arbitrary catalog picks
    E = direct_sum(*[cat[i][1] for i, m in mult.items() for _ in range(m)])
    fp = [Fraction(x) for x in iso_fingerprint(E, cat)]
    solved = _solve_exact(hom_matrix, fp)
    assert solved is not None
    for i, value in enumerate(solved):
        assert value == mult.get(i, 0)


def _solve_exact(matrix, rhs):
    n = len(matrix)
    # fp[i] = sum_j hom(c_i, c_j) m_j, so solve H m = fp directly
    aug = [[matrix[i][j] for j in range(n)] + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def test_zero_embedding_fingerprint():
    from lrlab.nilmod import Embedding, canonical_module

    cat = s4_catalog(2)
    zero = Embedding(canonical_module((3, 1), 2), [])
    fp = iso_fingerprint(zero, cat)
    assert len(fp) == 20 and all(x >= 0 for x in fp)


def test_census_order_independence():
    # adding the generators for alpha's parts in the reverse order must
    # reach the same invariant subspaces: the search is order independent
    shape = Shape((2, 1), (3, 2, 1), (2, 1))
    for p, count in ((2, 45), (3, 111)):
        B = canonical_module(shape.beta, p)
        keys = [[la.space_key(S) for S in _distinct_submodules(B, alpha)]
                for alpha in (shape.alpha, tuple(reversed(shape.alpha)))]
        assert len(keys[0]) == count
        assert keys[0] == keys[1]
