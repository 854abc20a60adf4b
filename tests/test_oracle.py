import hashlib
import json
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle_reference as ref
from conftest import FIVE_CLASS, TWO_CLASS
from linalg_reference import mat
import lrlab.cli as cli
from lrlab import oracle
from lrlab.errors import GuardExceeded, InvariantViolation
from lrlab.nilmod import (Embedding, canonical_module, direct_sum, hom_dim,
                          realize_picket, realize_pole)
from lrlab.oracle import (_distinct_submodules, enumerate_submodules,
                          iso_fingerprint, nominal_tuple_count,
                          picket_pole_catalog, s4_catalog)
from lrlab.poles import Pole
from lrlab.tableaux import Shape, enumerate_tableaux


def test_catalog_has_twenty_objects():
    cat = s4_catalog(2)
    assert len(cat) == 20
    names = [n for n, _ in cat]
    assert names.count("X") == 1
    assert sum(1 for n in names if n.startswith("P^")) == 4


@pytest.mark.parametrize("p", [2, 3])
def test_catalogs_built_once(p, monkeypatch):
    builds = (lambda: s4_catalog(p), lambda: picket_pole_catalog(p, 5))
    firsts = [build() for build in builds]

    def refuse(*args):
        raise AssertionError("catalog rebuilt")

    monkeypatch.setattr(oracle, "realize_pole", refuse)
    monkeypatch.setattr(oracle, "realize_picket", refuse)
    for build, first in zip(builds, firsts):
        names = [name for name, _ in first]
        again = build()
        assert again is not first and again == first  # same objects, new list
        first.append(first[0])
        first[0] = ("mutated", None)
        assert [name for name, _ in build()] == names


# (chain of the class tableau, submodules, fingerprint) per class, in class order
CENSUS_CLASSES = {
    TWO_CLASS: [
        (((3, 1), (3, 2, 1), (3, 3, 1), (4, 3, 1)), 8,
         (3, 5, 7, 8, 2, 4, 6, 8, 3, 8, 10, 5, 12, 7, 4, 11, 9, 6, 4, 10)),
        (((3, 1), (4, 1, 1), (4, 2, 1), (4, 3, 1)), 8,
         (3, 5, 7, 8, 2, 5, 7, 8, 3, 8, 9, 6, 12, 7, 4, 10, 8, 6, 4, 10)),
    ],
    FIVE_CLASS: [
        (((3, 2, 1), (3, 2, 2, 1), (3, 3, 2, 1), (4, 3, 2, 1)), 32,
         (4, 7, 9, 10, 2, 5, 8, 10, 3, 10, 12, 6, 15, 9, 4, 13, 11, 7, 4, 12)),
        (((3, 2, 1), (3, 2, 2, 1), (3, 3, 2, 1), (4, 3, 2, 1)), 8,
         (4, 7, 9, 10, 2, 6, 8, 10, 3, 10, 12, 7, 16, 9, 4, 13, 11, 7, 4, 12)),
        (((3, 2, 1), (3, 3, 1, 1), (3, 3, 2, 1), (4, 3, 2, 1)), 16,
         (4, 7, 9, 10, 2, 6, 8, 10, 3, 10, 12, 7, 16, 9, 4, 13, 10, 7, 4, 12)),
        (((3, 2, 1), (3, 3, 1, 1), (3, 3, 2, 1), (4, 3, 2, 1)), 8,
         (4, 7, 9, 10, 2, 6, 9, 10, 3, 10, 12, 7, 16, 9, 4, 13, 10, 7, 4, 12)),
        (((3, 2, 1), (4, 2, 1, 1), (4, 2, 2, 1), (4, 3, 2, 1)), 32,
         (4, 7, 9, 10, 2, 6, 9, 10, 3, 10, 11, 7, 15, 9, 4, 12, 10, 7, 4, 12)),
    ],
}


# sha256 of the census JSON, class representatives included, as the
# search that kept every span and the block-generator hom_dim gave it
CENSUS_DIGESTS = {
    (TWO_CLASS, 2): "228d53ca80bbf212be7f97ebc2fdd2f7884107290f63ce51d608bca66a05e285",
    (FIVE_CLASS, 2): "fe1bbfa7300a11a957a389b93f77bfcd3daea6d0d414873138b700a4726d5a44",
    (Shape((2, 1), (3, 2, 1), (2, 1)), 3):
        "32f6021b2ec09fd80399ab1f7be76bed49bf6bdbbe8f7c5deecd97a25855ab36",
}


@pytest.mark.parametrize("shape,p", list(CENSUS_DIGESTS), ids=str)
def test_census_json_is_pinned(shape, p):
    census = json.dumps(enumerate_submodules(shape, p).to_json(), sort_keys=True)
    assert hashlib.sha256(census.encode()).hexdigest() == CENSUS_DIGESTS[shape, p]


def test_published_census_fingerprints(censuses):
    for shape, want in CENSUS_CLASSES.items():
        got = [(c.tableau.chain, c.submodule_count, c.fingerprint)
               for c in censuses[shape].classes]
        assert got == want


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
    spans = _distinct_submodules(B, shape.alpha)
    assert spans == sorted(set(spans))
    every = ref.distinct_submodules(B, shape.alpha)
    assert set(ref.level_wise_submodules(B, shape.alpha)) == set(every)
    assert set(spans) == {S for S in every if len(S) == sum(shape.alpha)}
    # spans of one dimension, the only ones a census compares, sort as
    # their int64 bytes sorted when they were arrays (entries below 256)
    for d in {len(S) for S in spans}:
        same = [S for S in spans if len(S) == d]
        assert same == sorted(same, key=lambda S: mat(S, B.dim).tobytes())


@pytest.mark.parametrize("shape", [TWO_CLASS, FIVE_CLASS, Shape((2, 1), (3, 2, 1), (2, 1))],
                         ids=str)
@pytest.mark.parametrize("p", [2, 3])
def test_census_dimension_skip_is_exact(shape, p):
    """The search returns, in order, exactly the |alpha|-row spans of the
    search that keeps every span, and each has type alpha, so the census
    types no span it then throws away."""
    B = canonical_module(shape.beta, p)
    size = sum(shape.alpha)
    spans = _distinct_submodules(B, shape.alpha)
    every = ref.level_wise_submodules(B, shape.alpha)
    assert spans == [S for S in every if len(S) == size]
    assert 0 < len(spans) < len(every)
    for span in spans:
        assert len(span) == size and Embedding(B, span).alpha == shape.alpha


def _census_embeddings(shape, p):
    """Every embedding the census of ``shape`` over F_p fingerprints."""
    B = canonical_module(shape.beta, p)
    for span in _distinct_submodules(B, shape.alpha):
        E = Embedding(B, span)
        if E.alpha == shape.alpha and E.gamma == shape.gamma:
            yield E


def _assert_fingerprints_solve_alike(shape, p):
    cat = s4_catalog(p)
    count = 0
    for E in _census_embeddings(shape, p):
        assert iso_fingerprint(E, cat) == tuple(hom_dim(C, E) for _, C in cat)
        count += 1
    assert count


@pytest.mark.parametrize("shape,p", [
    (TWO_CLASS, 2), (FIVE_CLASS, 2), (TWO_CLASS, 3),
    (Shape((2, 1), (3, 2, 1), (2, 1)), 3),
    (Shape((2, 2), (4, 2, 1), (3,)), 2),
    (Shape((2,), (4, 2, 1), (2, 2, 1)), 3),
], ids=str)
def test_fingerprints_match_hom_dim_on_census_embeddings(shape, p):
    _assert_fingerprints_solve_alike(shape, p)


@pytest.mark.slow
def test_fingerprints_match_hom_dim_on_census_pool():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "lrbench"))
    try:
        from workloads import CENSUS_POOL
    finally:
        sys.path.pop(0)
    assert len(CENSUS_POOL) == 50
    for shape, p in [(Shape(*raw), p) for raw, p in CENSUS_POOL] + [(FIVE_CLASS, 3)]:
        _assert_fingerprints_solve_alike(shape, p)


def test_fingerprint_solves_only_non_cyclic_sources(monkeypatch):
    solved = []

    def recording(C, E):
        solved.append(C)
        return hom_dim(C, E)

    monkeypatch.setattr(oracle, "hom_dim", recording)
    cat = s4_catalog(2)
    two = direct_sum(realize_picket(3, 1, 2), realize_pole(Pole((0, 2), (3, 1)), 2))
    E = next(_census_embeddings(FIVE_CLASS, 2))
    fp = iso_fingerprint(E, cat + [("two", two)])
    assert solved == [dict(cat)["X"], two]
    assert fp == tuple(hom_dim(C, E) for _, C in cat + [("two", two)])
    with pytest.raises(ValueError, match="different fields"):
        iso_fingerprint(E, s4_catalog(3))


def test_fingerprint_collision_names_a_reproducer():
    # one empty picket cannot tell the two tableaux of the published shape apart
    coarse = [("P^1_0", realize_picket(1, 0, 2))]
    with pytest.raises(InvariantViolation, match="fingerprint collision") as info:
        enumerate_submodules(TWO_CLASS, 2, catalog=coarse)
    message = str(info.value)
    assert json.dumps(TWO_CLASS.to_json()) in message
    assert "p = 2" in message and "fingerprint [3]" in message
    for chain in CENSUS_CLASSES[TWO_CLASS]:
        assert str([list(c) for c in chain[0]]) in message
    # a caller's catalog is named by its size; no command reproduces it
    assert message.endswith(", catalog a caller-given catalog of 1 objects")


def _reproduce(message, capsys):
    """The exit code and stderr of the command that ends ``message``."""
    command = message.rsplit("; reproduce with: ", 1)[1]
    assert "\n" not in command
    argv = shlex.split(command)
    assert argv[0] == "lrlab"
    code = cli.run(argv[1:])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("p", [2, 3])
def test_default_catalog_collision_names_it_and_its_command(monkeypatch, capsys, p):
    # a default catalog cut to one object collides, and the message ends
    # in the command that reproduces the failure, past the guard with --slow
    monkeypatch.setattr(oracle, "s4_catalog", lambda p: [("P^1_0", realize_picket(1, 0, p))])
    with pytest.raises(InvariantViolation, match="fingerprint collision") as info:
        enumerate_submodules(TWO_CLASS, p, slow=True)
    message = str(info.value)
    assert message.endswith(
        f", catalog s4_catalog({p}); reproduce with: lrlab oracle"
        f" '{json.dumps(TWO_CLASS.to_json(), separators=(',', ':'))}' -p {p}"
        + (" --slow" if p == 3 else ""))
    assert _reproduce(message, capsys) == (1, f"verification failure: {message}\n")


def test_census_refuses_a_span_of_another_type(monkeypatch, capsys):
    # the search returns only spans of type alpha; one that is not raises
    monkeypatch.setattr(oracle, "_distinct_submodules", lambda B, alpha: [((0, 0, 0, 1),)])
    shape = Shape((2,), (3, 1), (2,))
    with pytest.raises(InvariantViolation, match="span of type") as info:
        enumerate_submodules(shape, 2)
    message = str(info.value)
    assert json.dumps(shape.to_json()) in message
    assert "p = 2" in message and "[[0, 0, 0, 1]]" in message
    assert "[[0, 0, 0, 1]], catalog s4_catalog(2); reproduce with: lrlab oracle" in message
    assert _reproduce(message, capsys) == (1, f"verification failure: {message}\n")
    # past nilpotency four the default is the picket-pole catalog
    shape = Shape((2,), (5, 1), (4,))
    monkeypatch.setattr(oracle, "_distinct_submodules",
                        lambda B, alpha: [((0, 0, 0, 0, 0, 1),)])
    with pytest.raises(InvariantViolation, match="span of type") as info:
        enumerate_submodules(shape, 3)
    message = str(info.value)
    assert "catalog picket_pole_catalog(3, 5); reproduce with" in message
    assert _reproduce(message, capsys) == (1, f"verification failure: {message}\n")


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
    for p, count in ((2, 18), (3, 48)):
        B = canonical_module(shape.beta, p)
        keys = [_distinct_submodules(B, alpha)
                for alpha in (shape.alpha, tuple(reversed(shape.alpha)))]
        assert len(keys[0]) == count
        assert keys[0] == keys[1]
