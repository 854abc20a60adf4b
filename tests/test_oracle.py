import hashlib
import json
import random
import shlex
from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import nilmod_reference
import oracle_reference as ref
from conftest import FIVE_CLASS, TWO_CLASS, census_pool, iter_all_shapes, sub_partitions
from linalg_reference import mat
import lrlab.cli as cli
from lrlab import linalg as la
from lrlab import oracle
from lrlab import partitions as pt
from lrlab import tableaux as tb
from lrlab.errors import GuardExceeded, InvariantViolation
from lrlab.nilmod import (Embedding, canonical_module, direct_sum, hom_dim, hom_images,
                          realize_picket, realize_pole, tableau_of_embedding)
from lrlab.oracle import (_distinct_submodules, _fingerprint, _fingerprint_plan,
                          _residue_lines, enumerate_submodules, iso_fingerprint,
                          nominal_tuple_count, picket_pole_catalog, s4_catalog)
from lrlab.poles import Pole
from lrlab.tableaux import Shape, enumerate_tableaux
from lrlab.worked_examples import EXT_DEG_SHAPE, ext_deg_modules


def _spans(B, alpha, gamma):
    """The block-order spans of the census search, sorted."""
    return [E.span for E in ref.searched(B, alpha, gamma)]


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
    # more shapes of the benchmark's census pool, recorded before the search
    # listed residue lines by row additions: several classes per shape,
    (Shape((2, 1), (3, 2, 1), (2, 1)), 2):
        "7ef0e3b6b2c30398337f298a6ab1d2bdb08b1a9299e7fd99148ede4b79727003",
    (Shape((2, 1), (3, 2, 1, 1), (2, 1, 1)), 2):
        "f2a273460f2971848e2bd0e7b488275b0c7168448af00bc96d63c705613eed33",
    (Shape((2, 1), (4, 2, 1), (3, 1)), 2):
        "b3080618f1313bc12fa7acffc46dc1f54f55c4e6b42f99a085276d401acfca36",
    (Shape((3, 1), (4, 2, 1), (2, 1)), 2):
        "04180a0076ed7579e400f23f9ac233da7bed6c9e0246498b62801d79ac7d45d2",
    # many submodules over F_3,
    (Shape((3,), (3, 3), (3,)), 3):
        "223d2337a7aa12787a0ca6fd8b0f54f1f54540913d7846669282a77c801fbe11",
    (Shape((2,), (2, 2, 1), (2, 1)), 3):
        "fbe45cc25c91f01abbc83853a7871d471c859662eb13b81117a7cd48f9f3ad2f",
    # and repeated parts of alpha
    (Shape((1, 1), (2, 1, 1), (1, 1)), 3):
        "8c37d70cf12ac4d8bb8dd0816c2640941e63f86ef43b42bee9b0baa317895ddf",
    (Shape((1, 1, 1), (2, 2, 2, 1), (1, 1, 1, 1)), 2):
        "e27705c6534c42fc06aa510d679a118c8852fc44b547918803dd18ef02a5e66f",
    (Shape((2, 2), (2, 2, 1), (1,)), 2):
        "57eb3163d78ca3f66b744706e19888799b8fbbb3b630dbc268f4e93019e4945b",
    # two chains of position sets and a part of 3 or more, recorded before
    # the search skipped the lines a parent had reached and the
    # fingerprint took one echelon form per chain
    (Shape((4, 1), (4, 1), ()), 3):
        "8c2b9058add408530c5149d53bd6428135ba8bb81f5f3bbd9ee3c7306586b50a",
    (Shape((3,), (4, 1, 1), (1, 1, 1)), 3):
        "0206a069059c43e4709850b90092935ff1faea549b08e33bca25b28507f35677",
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
    spans = _spans(B, shape.alpha, shape.gamma)
    assert spans == sorted(set(spans))
    every = ref.distinct_submodules(B, shape.alpha)
    assert set(ref.level_wise_submodules(B, shape.alpha)) == set(every)
    typed = {S for S in every if len(S) == sum(shape.alpha)}
    assert set(ref.unpruned_submodules(B, shape.alpha)) == typed
    assert set(spans) == {S for S in typed if Embedding(B, S).gamma == shape.gamma}
    # spans of one dimension, the only ones a census compares, sort as
    # their int64 bytes sorted when they were arrays (entries below 256)
    for d in {len(S) for S in spans}:
        same = [S for S in spans if len(S) == d]
        assert same == sorted(same, key=lambda S: mat(S, B.dim).tobytes())


@pytest.mark.parametrize("shape", [TWO_CLASS, FIVE_CLASS, Shape((2, 1), (3, 2, 1), (2, 1))],
                         ids=str)
@pytest.mark.parametrize("p", [2, 3])
def test_census_dimension_skip_is_exact(shape, p):
    """The search returns, in order, exactly the |alpha|-row spans of
    cotype gamma of the search that keeps every span, and each has type
    alpha and cotype gamma, so the census types no span it then throws
    away."""
    B = canonical_module(shape.beta, p)
    size = sum(shape.alpha)
    spans = _spans(B, shape.alpha, shape.gamma)
    every = ref.level_wise_submodules(B, shape.alpha)
    assert spans == [S for S in every
                     if len(S) == size and Embedding(B, S).gamma == shape.gamma]
    assert 0 < len(spans) < len(ref.unpruned_submodules(B, shape.alpha)) < len(every)
    for span in spans:
        E = Embedding(B, span)
        assert len(span) == size and (E.alpha, E.gamma) == (shape.alpha, shape.gamma)


@pytest.mark.parametrize("shape,p", [
    (FIVE_CLASS, 2),
    (Shape((3,), (3, 3), (3,)), 3),  # 9 lines per span
    (Shape((2, 1), (3, 2, 1), (2, 1)), 3),
    # a second part of 2 or more, so residues modulo a nonzero parent count
    (Shape((2, 2), (3, 2, 1), (2,)), 3),
    (Shape((2, 2), (4, 2, 1), (3,)), 2),
    # a parent with a pivot at the lead of T v, so reducing moves that lead
    (Shape((2, 2), (3, 3, 1), (2, 1)), 2),
    (Shape((2, 2), (3, 3, 1), (2, 1)), 3),
], ids=str)
def test_search_takes_one_echelon_form_per_span_a_parent_reaches(shape, p, monkeypatch):
    """Output cannot show this: a search that closes every line, or takes
    an echelon form of every span it grows, still returns the same spans.
    Every ``extend`` call is recorded with its parent and the span it
    gives: no parent takes two that give one span, and every span it
    gives passes the cotype test (gamma lies inside the type of B / S),
    so no echelon form is taken for a span the search then drops."""
    extensions, conversions = [], []

    def recording_extend(R, pivots, M, p):
        out = la.extend(R, pivots, M, p)
        extensions.append((R, out[0]))
        return out

    def recording_rref(M, p):
        out = la.rref(M, p)
        conversions.append(out[0])
        return out

    monkeypatch.setattr(oracle, "la", SimpleNamespace(
        **{**vars(la), "extend": recording_extend, "rref": recording_rref}))
    B = canonical_module(shape.beta, p)
    spans = _spans(B, shape.alpha, shape.gamma)
    monkeypatch.undo()
    assert spans == sorted(ref.cotype_submodules(B, shape.alpha, shape.gamma))
    # the search hands over its own echelon forms and takes no ``rref``
    assert conversions == []
    reached = {}  # parent -> the spans its echelon forms gave
    for parent, R in extensions:
        reached.setdefault(parent, []).append(R)
    assert len(reached) > 1 or len(shape.alpha) == 1
    for parent, grown in reached.items():
        assert len(grown) == len(set(grown)), parent
    back = sorted(range(B.dim), key=B._order[0].__getitem__)
    for _, R in extensions:
        E = Embedding(B, [[row[i] for i in back] for row in R])
        assert pt.contains(E.gamma, shape.gamma), (R, E.gamma)


def test_residue_leads_give_the_pivots_of_the_grown_span(monkeypatch):
    """The lemma behind the search's cotype test, on every parent of the
    searches of the census pool (and of a shape where reducing moves a
    lead) and every line of its residue space that grows it by a full
    part a.  In layer order the residues r_0 = v, r_1, ..., r_(a-1) of
    the orbit v, T v, ... modulo the parent S vanish on S's pivots,
    r_(i+1) is the residue of T r_i, and their first nonzero entries
    strictly increase; so the pivots of rref(S + orbit) are S's pivots
    merged with those leads."""
    parents = []
    extend = la.extend

    def recording(R, pivots, M, p):
        out = extend(R, pivots, M, p)
        parents.append(out)
        return out

    monkeypatch.setattr(oracle, "la", SimpleNamespace(**{**vars(la), "extend": recording}))
    lines = moved = 0
    for shape, p in census_pool() + [(Shape((2, 2), (3, 3, 1), (2, 1)), 2)]:
        B = canonical_module(shape.beta, p)
        order, shift, _ = B._order
        del parents[:]
        _distinct_submodules(B, shape.alpha, shape.gamma)
        parts = {sum(shape.alpha[:i]): a for i, a in enumerate(shape.alpha)}
        levels = {R: piv for R, piv in [((), [])] + parents if len(R) in parts}
        for S, pivots in levels.items():
            a = parts[len(S)]
            kernel = [tuple([v[q] for q in order]) for v in B.kernel(a)]
            W = la.row_space([la.reduce_vec(v, S, pivots, p) for v in kernel], p)
            for v in _residue_lines(W, p):
                orbit = [v]
                for _ in range(a - 1):
                    orbit.append(tuple([(orbit[-1] + (0,))[k] for k in shift]))
                residues = [la.reduce_vec(w, S, pivots, p) for w in orbit]
                if not any(residues[-1]):
                    continue
                lines += 1
                assert residues[0] == v
                for r, r_next in zip(residues, residues[1:]):
                    T_r = tuple([(r + (0,))[k] for k in shift])
                    assert la.reduce_vec(T_r, S, pivots, p) == r_next
                assert all(r[c] == 0 for r in residues for c in pivots)
                leads = [next(j for j, x in enumerate(r) if x) for r in residues]
                assert leads == sorted(set(leads)), (shape, p, S, v)
                assert sorted(pivots + leads) == la.rref(S + tuple(orbit), p)[1]
                moved += leads != [next(j for j, x in enumerate(w) if x) for w in orbit]
    assert lines > 4000 and moved  # 4654 lines; the orbit's leads are not the residues'


def test_search_refuses_an_echelon_form_off_its_residues_leads(monkeypatch, capsys):
    """A grown span whose echelon form has other pivots than the merge of
    its parent's pivots and its residues' leads raises, naming beta,
    alpha, gamma, p and the parent span in block order.  The census
    re-raises it with the user's shape, the side it searched and the
    catalog note, which ends in the command that reproduces it: here the
    swap of the five-class shape, whose census searches the five-class
    one."""
    extend = la.extend

    def wrong(R, pivots, M, p):
        out, out_pivots = extend(R, pivots, M, p)
        return out, out_pivots[:-1] + [out_pivots[-1] + 1] if R else out_pivots

    monkeypatch.setattr(oracle, "la", SimpleNamespace(**{**vars(la), "extend": wrong}))
    B = canonical_module(FIVE_CLASS.beta, 2)
    with pytest.raises(InvariantViolation) as err:
        _distinct_submodules(B, FIVE_CLASS.alpha, FIVE_CLASS.gamma)
    message = str(err.value)
    assert "beta [4, 3, 2, 1], alpha [3, 1], gamma [3, 2, 1], p = 2" in message
    parent = json.loads(message.split("parent span ")[1])
    assert len(parent) == 3 and Embedding(B, parent).alpha == (3,)
    swapped = Shape(FIVE_CLASS.gamma, FIVE_CLASS.beta, FIVE_CLASS.alpha)
    assert oracle._searches_dual(B.sizes, swapped.alpha, swapped.gamma)
    with pytest.raises(InvariantViolation) as err:
        enumerate_submodules(swapped, 2, slow=True)
    census_message = str(err.value)
    assert census_message.startswith(message + "; census of shape "
                                     + json.dumps(swapped.to_json()) + ", p = 2,"
                                     " searched on its dual side (gamma, beta, alpha),"
                                     " catalog s4_catalog(2); reproduce with: lrlab oracle")
    assert census_message.endswith(" -p 2 --slow")
    assert _reproduce(census_message, capsys) == (1, f"verification failure: {census_message}\n")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_residue_lines_match_the_coordinate_enumeration(p):
    """The lines built by row additions are those of the coordinate
    products they replaced, each once and with a first nonzero entry 1."""
    rng = random.Random(p)
    for rows in [0, 1, 1, 2, 2, 3, 3, 4]:
        n = rng.randint(max(rows, 1), 7)
        W = ()
        while len(W) < rows:  # seeded random rref of exactly ``rows`` rows
            W = la.row_space([[rng.randrange(p) for _ in range(n)] for _ in range(rows)], p)
        lines = _residue_lines(W, p)
        assert len(lines) == len(set(lines)) == (p ** rows - 1) // (p - 1)
        assert set(lines) == set(ref.residue_lines(W, p))
        assert all(next(x for x in v if x) == 1 for v in lines)


def _census_embeddings(shape, p):
    """Every embedding the census of ``shape`` over F_p fingerprints."""
    yield from ref.searched(canonical_module(shape.beta, p), shape.alpha, shape.gamma)


def _assert_fingerprints_solve_alike(shape, p):
    """The census's plan, built once for the shape, ``iso_fingerprint``
    and one ``hom_dim`` per catalog object agree on every census span."""
    cat = s4_catalog(p)
    plan = _fingerprint_plan(cat, shape.beta, p)
    count = 0
    for E in _census_embeddings(shape, p):
        assert _fingerprint(plan, E) == iso_fingerprint(E, cat) == \
            tuple(hom_dim(C, E) for _, C in cat)
        count += 1
    assert count


def _assert_chains_match_the_per_set_reference(shape, p, catalog):
    """Every position set of the reference plan is a prefix of its chain's
    column order in the census's plan, and the two plans give the same
    fingerprint on every census span; returns the numbers of sets and
    chains."""
    steps, orders = plan = _fingerprint_plan(catalog, shape.beta, p)
    ref_steps, sets = ref_plan = ref.fingerprint_plan(catalog, shape.beta, p)
    for (base, i, L, U), (ref_base, j, ref_U) in zip(steps, ref_steps, strict=True):
        assert (base, U) == (ref_base, ref_U)
        if U is None:
            assert sorted(orders[i][:L]) == list(sets[j])
    count = 0
    for E in _census_embeddings(shape, p):
        assert _fingerprint(plan, E) == ref.fingerprint(ref_plan, E)
        count += 1
    assert count
    return len(sets), len(orders)


@pytest.mark.parametrize("shape", [
    TWO_CLASS, FIVE_CLASS, Shape((2, 1), (3, 2, 1), (2, 1)),
    Shape((2, 2), (4, 2, 1), (3,)), Shape((2,), (4, 2, 1), (2, 2, 1)),
], ids=str)
@pytest.mark.parametrize("p", [2, 3])
def test_chain_fingerprints_match_the_per_set_reference(shape, p):
    sets, chains = _assert_chains_match_the_per_set_reference(shape, p, s4_catalog(p))
    assert chains < sets


def test_chain_fingerprints_match_the_per_set_reference_beyond_nilpotency_four():
    shape = Shape((2, 1), (5, 2, 1), (4, 1))
    assert _assert_chains_match_the_per_set_reference(
        shape, 2, picket_pole_catalog(2, 5)) == (16, 3)


@pytest.mark.parametrize("shape,p", [
    (TWO_CLASS, 2), (FIVE_CLASS, 2), (TWO_CLASS, 3),
    (Shape((2, 1), (3, 2, 1), (2, 1)), 3),
    (Shape((2, 2), (4, 2, 1), (3,)), 2),
    (Shape((2,), (4, 2, 1), (2, 2, 1)), 3),
], ids=str)
def test_fingerprints_match_hom_dim_on_census_embeddings(shape, p):
    _assert_fingerprints_solve_alike(shape, p)


@pytest.mark.slow
def test_fingerprints_match_hom_dim_oncensus_pool():
    for shape, p in census_pool() + [(FIVE_CLASS, 3)]:
        _assert_fingerprints_solve_alike(shape, p)


def test_fingerprint_solves_only_non_cyclic_sources(monkeypatch):
    solved = []

    def recording(C, sizes):
        solved.append(C)
        return hom_images(C, sizes)

    monkeypatch.setattr(oracle, "hom_images", recording)
    cat = s4_catalog(2)
    two = direct_sum(realize_picket(3, 1, 2), realize_pole(Pole((0, 2), (3, 1)), 2))
    E = next(_census_embeddings(FIVE_CLASS, 2))
    fp = iso_fingerprint(E, cat + [("two", two)])
    assert solved == [dict(cat)["X"], two]
    assert fp == tuple(hom_dim(C, E) for _, C in cat + [("two", two)])
    with pytest.raises(ValueError, match="different fields"):
        iso_fingerprint(E, s4_catalog(3))


def test_census_refuses_a_catalog_over_another_field_before_searching(monkeypatch):
    # no span of this shape has quotient gamma, so no fingerprint is taken
    shape = Shape((2,), (2, 2), (1, 1))
    assert enumerate_submodules(shape, 2).total_submodules == 0
    with pytest.raises(ValueError, match="different fields"):
        enumerate_submodules(shape, 2, catalog=s4_catalog(3))

    def refuse(B, alpha, gamma):
        raise AssertionError("searched")

    monkeypatch.setattr(oracle, "_distinct_submodules", refuse)
    with pytest.raises(ValueError, match="different fields"):
        enumerate_submodules(TWO_CLASS, 2, catalog=s4_catalog(2) + s4_catalog(3)[:1])


def test_census_builds_one_tableau_per_chain(monkeypatch):
    s4_catalog(2)  # X's tableau is checked when the catalog is built
    from_chain, chains = tb.from_chain, []

    def counting(chain):
        chains.append(tuple(chain))
        return from_chain(chain)

    monkeypatch.setattr(tb, "from_chain", counting)
    census = enumerate_submodules(FIVE_CLASS, 2)
    distinct = {E.chain() for E in _census_embeddings(FIVE_CLASS, 2)}
    assert sorted(chains) == sorted(distinct) and len(distinct) == 3
    for c in census.classes:
        assert c.tableau == from_chain(list(c.representative.chain()))
        # classes of one chain share the tableau that per_tableau counts
        assert any(t is c.tableau for t in census.per_tableau)


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
    monkeypatch.setattr(oracle, "_distinct_submodules", lambda B, alpha, gamma:
                        [nilmod_reference.in_layer_order(B, ((0, 0, 0, 1),))])
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
    monkeypatch.setattr(oracle, "_distinct_submodules", lambda B, alpha, gamma:
                        [nilmod_reference.in_layer_order(B, ((0, 0, 0, 0, 0, 1),))])
    with pytest.raises(InvariantViolation, match="span of type") as info:
        enumerate_submodules(shape, 3)
    message = str(info.value)
    assert "catalog picket_pole_catalog(3, 5); reproduce with" in message
    assert _reproduce(message, capsys) == (1, f"verification failure: {message}\n")


def test_census_refuses_a_span_of_another_cotype(monkeypatch, capsys):
    # T B in N_(3,1) has type (2) but cotype (1, 1); the search returns
    # only spans of cotype gamma, and one that is not raises
    span = ((0, 1, 0, 0), (0, 0, 1, 0))
    monkeypatch.setattr(oracle, "_distinct_submodules",
                        lambda B, alpha, gamma: [nilmod_reference.in_layer_order(B, span)])
    shape = Shape((2,), (3, 1), (2,))
    with pytest.raises(InvariantViolation, match="span of type") as info:
        enumerate_submodules(shape, 2)
    message = str(info.value)
    assert "type [2] and cotype [1, 1]: shape " + json.dumps(shape.to_json()) in message
    assert ("p = 2, span [[0, 1, 0, 0], [0, 0, 1, 0]], catalog s4_catalog(2);"
            " reproduce with: lrlab oracle") in message
    assert _reproduce(message, capsys) == (1, f"verification failure: {message}\n")


def test_census_refuses_a_dual_span_mapped_to_a_span_that_is_not_invariant(monkeypatch,
                                                                            capsys):
    """A span found on the dual side maps back by its block-reversed
    annihilator; one that maps to a span that T does not keep raises with
    the message of the closure's invariance check, here for the reversed
    span in place of its annihilator, which the transpose keeps instead."""
    monkeypatch.setattr(oracle, "la", SimpleNamespace(**{**vars(la), "null_space": la.row_space}))
    shape = Shape(FIVE_CLASS.gamma, FIVE_CLASS.beta, FIVE_CLASS.alpha)
    with pytest.raises(InvariantViolation, match="do not span an invariant subspace") as info:
        enumerate_submodules(shape, 2, slow=True)
    message = str(info.value)
    rows = json.loads(message.split("the orbits of ")[1].split(" in the module")[0])
    assert message == (f"the orbits of {rows} in the module of blocks [4, 3, 2, 1] over F_2"
                       " do not span an invariant subspace; census of shape"
                       f" {json.dumps(shape.to_json())}, p = 2, searched on its dual side"
                       " (gamma, beta, alpha), catalog s4_catalog(2); reproduce with:"
                       f" lrlab oracle '{json.dumps(shape.to_json(), separators=(',', ':'))}'"
                       " -p 2 --slow")
    assert len(rows) == sum(FIVE_CLASS.alpha)
    assert _reproduce(message, capsys) == (1, f"verification failure: {message}\n")


def test_zero_alpha_census():
    shape = Shape((), (3, 1), (3, 1))
    census = enumerate_submodules(shape, 2)
    assert census.total_submodules == 1
    assert len(census.classes) == 1
    assert census.classes[0].representative.dim_sub() == 0


def test_census_on_the_dual_side_of_a_type_outside_beta():
    """A shape's alpha need not fit inside beta, and then it has no
    submodule; its census searches the dual side, where alpha is the
    cotype, and finds none either.  With gamma empty the one candidate is
    B itself, of type beta."""
    for shape, total in [(Shape((2, 1), (2, 1), ()), 1), (Shape((3,), (2, 1), ()), 0),
                         (Shape((1, 1, 1), (2, 1), ()), 0), (Shape((3,), (2, 2), (1,)), 0),
                         (Shape((1, 1), (2,), ()), 0)]:
        assert oracle._searches_dual(shape.beta, shape.alpha, shape.gamma), shape
        for p in (2, 3):
            census = enumerate_submodules(shape, p)
            assert census.total_submodules == len(census.classes) == total, (shape, p)


def test_search_answers_at_its_edges():
    """The search's own contract: an empty alpha has the zero span exactly
    when gamma is beta, and a cotype outside beta has no span (it once
    raised IndexError).  On the dual side the census of (1, 1) in (2)
    with gamma empty searches type () and cotype (1, 1), and that of (3)
    in (2, 2) with cotype (1) searches type (1) and cotype (3): neither
    finds a span."""
    for p in (2, 3):
        B = canonical_module((2, 2), p)
        assert _spans(B, (), (2, 2)) == [()]
        assert _spans(B, (), (2, 1)) == _spans(B, (), (1, 1)) == _spans(B, (), ()) == []
        assert _spans(B, (1,), (3,)) == _spans(B, (), (2, 2, 1)) == _spans(B, (2,), (3, 1)) == []
        for shape in (Shape((1, 1), (2,), ()), Shape((3,), (2, 2), (1,))):
            B = canonical_module(shape.beta, p)
            assert oracle._searches_dual(B.sizes, shape.alpha, shape.gamma), shape
            assert _distinct_submodules(B, shape.gamma, shape.alpha) == []
            assert oracle._census_spans(B, shape.alpha, shape.gamma) == []


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


@lru_cache(maxsize=None)
def _hom_inverse(p):
    """The catalog's hom matrix H over F_p, by ``hom_dim``, and its
    inverse over the rationals, which is an integer matrix."""
    H = ref.hom_matrix(s4_catalog(p))
    return H, ref.integer_inverse(H)


@pytest.mark.parametrize("p", [2, 3])
def test_fingerprint_recovers_multiplicities(p):
    # fingerprint of a direct sum solves back to its summand multiplicities
    # through the catalog self-hom matrix, checked entry by entry against
    # the block-generator solver
    cat = s4_catalog(p)
    H, inverse = _hom_inverse(p)
    assert H == [[nilmod_reference.block_hom_dim(ci, cj) for _, cj in cat] for _, ci in cat]
    mult = {4: 2, 9: 1, 16: 1}  # arbitrary catalog picks
    E = direct_sum(*[cat[i][1] for i, m in mult.items() for _ in range(m)])
    assert ref.mat_vec(inverse, iso_fingerprint(E, cat)) == [mult.get(i, 0) for i in range(20)]


def _is_local(E):
    """Whether every endomorphism of E is nilpotent or invertible, over
    all p^(dim End) combinations of ``ref.hom_basis``: then End is local
    and E is indecomposable."""
    p, n = E.p, E.B.dim
    basis = np.array(ref.hom_basis(E, E))
    ends = np.tensordot(np.array(list(product(range(p), repeat=len(basis)))), basis, 1) % p
    power = ends
    for _ in range(n.bit_length()):  # the 2^k-th powers, 2^k > n
        power = power @ power % p
    nilpotent = ~power.any(axis=(1, 2))
    return all(la.rank(g, p) == n for g in ends[~nilpotent].tolist())


@pytest.mark.parametrize("p", [2, 3])
def test_catalog_objects_have_local_endomorphism_rings(p):
    cat = s4_catalog(p)
    assert {len(ref.hom_basis(C, C)) for _, C in cat} == {1, 2, 3, 4, 5, 6, 8, 9}
    assert all(_is_local(C) for _, C in cat)
    assert not _is_local(direct_sum(cat[0][1], cat[4][1]))


def _decomposed_classes(shapes, p):
    """Krull-Schmidt: the catalog objects are indecomposable (local End),
    so a census member with beta_1 <= 4 is a sum of them, fixed up to
    isomorphism by the multiplicities m, and its fingerprint is H m with
    H = [dim Hom(C_i, C_j)].  H is unimodular, so equal fingerprints mean
    isomorphic members: each class of each census over F_p of ``shapes``
    is the sum that H^-1 fingerprint names.  Returns the number of
    classes."""
    cat = s4_catalog(p)
    inverse = _hom_inverse(p)[1]
    rng = random.Random(23)
    classes = 0
    for shape in shapes:
        for c in enumerate_submodules(shape, p).classes:
            m = ref.mat_vec(inverse, c.fingerprint)
            assert min(m) >= 0, (shape, m)
            summed = direct_sum(*[C for (_, C), k in zip(cat, m) for _ in range(k)])
            assert ref.isomorphic(summed, c.representative, rng), (shape, m)
            classes += 1
    return classes


@pytest.mark.parametrize("p", [2, 3])
def test_census_classes_are_sums_of_catalog_objects(p):
    shapes = [shape for shape, q in CENSUS_DIGESTS if q == p]
    assert _decomposed_classes(shapes, p) == {2: 21, 3: 8}[p]


def test_census_pool_classes_are_sums_of_catalog_objects():
    pool = census_pool()
    assert sum(_decomposed_classes([shape for shape, q in pool if q == p], p)
               for p in (2, 3)) == 65


def _assert_closed_form(shapes):
    """On every (shape, p) of ``shapes``, beta_1 <= 4: every census class
    decodes to multiplicities in N^20, and the census's sorted (chain,
    fingerprint, count) triples are those of the closed-form census by
    Krull-Schmidt (``ref.closed_form_census``).  Returns the number of
    classes."""
    classes = 0
    for shape, p in shapes:
        H, inverse = _hom_inverse(p)
        census = enumerate_submodules(shape, p, slow=True)
        got = sorted((c.tableau.chain, c.fingerprint, c.submodule_count) for c in census.classes)
        assert all(min(ref.mat_vec(inverse, fp)) >= 0 for _, fp, _ in got), (shape, p)
        assert got == ref.closed_form_census(shape, p, s4_catalog(p), H), (shape, p)
        classes += len(got)
    return classes


def test_census_pool_matches_the_closed_form():
    assert _assert_closed_form(census_pool()) == 65


@pytest.mark.slow
def test_censuses_match_the_closed_form():
    """Every shape with beta_1 <= 4 and a nonzero LR coefficient, with
    |beta| <= 7 at p = 2 and |beta| <= 6 at p = 3."""
    shapes = [(s, p) for p, w in ((2, 7), (3, 6)) for s in iter_all_shapes(w)
              if s.beta[0] <= 4 and enumerate_tableaux(s)]
    assert len(shapes) == 731
    _assert_closed_form(shapes)


def _count_x(monkeypatch):
    """A one-entry list that counts the census's X entries, the calls of
    ``_reduced_rank``, from now on."""
    calls, reduced_rank = [0], oracle._reduced_rank

    def counting(U, E):
        calls[0] += 1
        return reduced_rank(U, E)

    monkeypatch.setattr(oracle, "_reduced_rank", counting)
    return calls


def test_x_entry_is_taken_once_per_closed_bucket(monkeypatch):
    """On the pool, the census with the default catalog gives the output of
    the per-span path (the same catalog passed by the caller), and takes
    X's entry at most 110 times where the per-span path takes it for each
    of the 390 spans with beta_1 <= 4."""
    calls = _count_x(monkeypatch)
    counts = []
    for per_span in (True, False):
        calls[0] = 0
        out = [enumerate_submodules(shape, p, catalog=s4_catalog(p) if per_span else None)
               .to_json() for shape, p in census_pool()]
        counts.append(calls[0])
        if per_span:
            want = out
    assert out == want
    assert counts[0] == 390 and counts[1] <= 110, counts


OPEN_CASE = Shape((3, 2, 1), (4, 4, 2, 2), (3, 2, 1))


def test_an_open_bucket_takes_x_for_every_span(monkeypatch):
    """X + P(1,3) and P(1,) + P(2,3) + P(0,1,3) share their cyclic entries
    and their tableau, and both are classes of ``OPEN_CASE`` at p = 2: its
    three classes fall in two buckets, one of them open.  The census equals
    the per-span path's, and takes X's entry for the 91 spans of the open
    bucket and the first of the other, not for all 234."""
    calls = _count_x(monkeypatch)
    census = enumerate_submodules(OPEN_CASE, 2, slow=True)
    assert calls[0] == 91 and census.total_submodules == 234
    fps = [c.fingerprint for c in census.classes]
    assert len(fps) == 3 and len({fp[:19] for fp in fps}) == 2
    per_span = enumerate_submodules(OPEN_CASE, 2, slow=True, catalog=s4_catalog(2))
    assert calls[0] == 91 + 234
    assert census.to_json() == per_span.to_json()


@pytest.mark.parametrize("p", [2, 3])
def test_decoder_inverts_the_hom_matrix_and_delta_spans_its_cyclic_kernel(p):
    """The census's decoder is the integer inverse of H (so H is
    unimodular), and delta is X + P(1,3) - P(1,) - P(2,3) - P(0,1,3): H
    delta is 0 on every cyclic row.  A hom matrix that is not unimodular,
    here singular, raises."""
    catalog = s4_catalog(p)
    terms, delta = oracle._decoder(tuple(catalog))
    H, want = _hom_inverse(p)
    assert [[dict(row).get(j, 0) for j in range(20)] for row in terms] == want
    signs = {"X": 1, "P(1, 3)": 1, "P(1,)": -1, "P(2, 3)": -1, "P(0, 1, 3)": -1}
    assert delta == [signs.get(name, 0) for name, _ in catalog]
    assert ref.mat_vec(H, delta) == [0] * 19 + [1]
    with pytest.raises(InvariantViolation, match="is not unimodular"):
        oracle._decoder(tuple(catalog + catalog[:1]))


def test_a_class_that_does_not_decode_names_its_reproducer(monkeypatch, capsys):
    """A default catalog that lacks P(2,) still has a unimodular hom
    matrix, but a class of (2,1) in (3,2,1) with cotype (2,1) at p = 2 is
    not a sum of its objects: its fingerprint decodes to a negative
    multiplicity, which raises, naming the fingerprint, the shape and the
    command, which exits 1."""
    full = s4_catalog(2)
    monkeypatch.setattr(oracle, "s4_catalog", lambda p: full[:6] + full[7:])
    shape = Shape((2, 1), (3, 2, 1), (2, 1))
    with pytest.raises(InvariantViolation, match="not a sum of catalog objects") as info:
        enumerate_submodules(shape, 2)
    message = str(info.value)
    assert message.startswith("the class of fingerprint [")
    assert message.endswith(
        f"not a sum of catalog objects: shape {json.dumps(shape.to_json())}, p = 2, catalog"
        f" s4_catalog(2); reproduce with: lrlab oracle"
        f" '{json.dumps(shape.to_json(), separators=(',', ':'))}' -p 2")
    assert _reproduce(message, capsys) == (1, f"verification failure: {message}\n")


def test_zero_embedding_fingerprint():
    from lrlab.nilmod import Embedding, canonical_module

    cat = s4_catalog(2)
    zero = Embedding(canonical_module((3, 1), 2), [])
    fp = iso_fingerprint(zero, cat)
    assert len(fp) == 20 and all(x >= 0 for x in fp)


def test_census_order_independence():
    # adding the generators for alpha's parts in the reverse order must
    # reach the same invariant subspaces: the search is order independent,
    # pruned or not
    shape = Shape((2, 1), (3, 2, 1), (2, 1))
    for p, count, kept in ((2, 18, 9), (3, 48, 20)):
        B = canonical_module(shape.beta, p)
        orders = (shape.alpha, tuple(reversed(shape.alpha)))
        every = [ref.unpruned_submodules(B, alpha) for alpha in orders]
        keys = [_spans(B, alpha, shape.gamma) for alpha in orders]
        assert len(every[0]) == count and len(keys[0]) == kept
        assert every[0] == every[1]
        assert keys[0] == keys[1] == ref.cotype_submodules(B, shape.alpha, shape.gamma)


def _gaussian(n, k, q):
    """The Gaussian binomial [n choose k]_q, 0 outside 0 <= k <= n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _birkhoff_count(alpha, beta, q):
    """Birkhoff's count of the submodules of type alpha of N_beta over F_q:
    the product over i of q^(a'_(i+1) (b'_i - a'_i)) times
    [b'_i - a'_(i+1) choose a'_i - a'_(i+1)]_q, with a' and b' the
    conjugates of alpha and beta (L. M. Butler, Subgroup lattices and
    symmetric functions, Mem. AMS 539, 1994, Ch. 1)."""
    a, b = pt.transpose(alpha), pt.transpose(beta)
    top = max(len(a), len(b))
    a, b = a + (0,) * (top + 1 - len(a)), b + (0,) * (top - len(b))
    out = 1
    for i, bi in enumerate(b):
        out *= q ** (a[i + 1] * (bi - a[i])) * _gaussian(bi - a[i + 1], a[i] - a[i + 1], q)
    return out


def _types_in_range(max_weight, p):
    """(beta, alpha) for every beta with |beta| <= max_weight and every
    alpha inside it, () included, whose census stays inside the default
    guard."""
    for n in range(1, max_weight + 1):
        for beta in pt.partitions_of(n):
            for alpha in [()] + [a for m in range(1, n + 1) for a in pt.partitions_of(m)]:
                if pt.contains(beta, alpha) and \
                        (p ** n) ** len(alpha) <= oracle.DEFAULT_GUARD:
                    yield beta, alpha


@lru_cache(maxsize=None)
def _strata(beta, alpha, p):
    """The spans of the unpruned reference search for type alpha in N_beta
    over F_p, by cotype, each list in the search's order."""
    B = canonical_module(beta, p)
    out = {}
    for S in ref.unpruned_submodules(B, alpha):
        out.setdefault(Embedding(B, S).gamma, []).append(S)
    return out


# (p, largest |beta|): the ranges in tier-1, then the full ones under
# --runslow, with the number of (beta, alpha) pairs each checks against
# Birkhoff's count and of nonzero Hall-symmetric (beta, alpha, gamma)
COUNT_RANGES = {(2, 6): (215, 263), (3, 5): (95, 100)}
SLOW_COUNT_RANGES = {(2, 7): (399, 517), (3, 6): (180, 183)}


def _assert_birkhoff(p, max_weight):
    checked = 0
    for beta, alpha in _types_in_range(max_weight, p):
        spans = sum(_strata(beta, alpha, p).values(), [])
        assert len(spans) == _birkhoff_count(alpha, beta, p), (beta, alpha)
        checked += 1
    return checked


@pytest.mark.parametrize("p,max_weight", COUNT_RANGES, ids=str)
def test_unpruned_search_meets_birkhoffs_count(p, max_weight):
    """The reference search, which the pruned one must match, finds every
    submodule of type alpha: as many as Birkhoff's formula counts."""
    assert _assert_birkhoff(p, max_weight) == COUNT_RANGES[p, max_weight][0]


@pytest.mark.slow
@pytest.mark.parametrize("p,max_weight", SLOW_COUNT_RANGES, ids=str)
def test_unpruned_search_meets_birkhoffs_count_slow(p, max_weight):
    assert _assert_birkhoff(p, max_weight) == SLOW_COUNT_RANGES[p, max_weight][0]


def test_birkhoffs_count_on_known_values():
    # lines and planes of F_q^3, the socle alone in N_(2), and no
    # submodule of type (2) in N_(1,1)
    assert [_birkhoff_count((1,) * k, (1, 1, 1), 3) for k in range(4)] == [1, 13, 13, 1]
    assert _birkhoff_count((1,), (2,), 5) == 1
    assert _birkhoff_count((2,), (1, 1), 2) == 0


def _assert_hall_symmetric(p, max_weight):
    """Submodules of type alpha and cotype gamma are as many as those of
    type gamma and cotype alpha (Macdonald, Symmetric functions and Hall
    polynomials, Ch. II), on every pair in range both ways."""
    pairs = 0
    types = {}
    for beta, alpha in _types_in_range(max_weight, p):
        types.setdefault(beta, []).append(alpha)
    for beta, alphas in types.items():
        for alpha in alphas:
            for gamma in alphas:
                counts = [len(_strata(beta, x, p).get(y, ())) for x, y in
                          ((alpha, gamma), (gamma, alpha))]
                assert counts[0] == counts[1], (beta, alpha, gamma)
                pairs += counts[0] > 0
    return pairs


@pytest.mark.parametrize("p,max_weight", COUNT_RANGES, ids=str)
def test_counts_by_cotype_are_hall_symmetric(p, max_weight):
    assert _assert_hall_symmetric(p, max_weight) == COUNT_RANGES[p, max_weight][1]


@pytest.mark.slow
@pytest.mark.parametrize("p,max_weight", SLOW_COUNT_RANGES, ids=str)
def test_counts_by_cotype_are_hall_symmetric_slow(p, max_weight):
    assert _assert_hall_symmetric(p, max_weight) == SLOW_COUNT_RANGES[p, max_weight][1]


def _n(partition):
    """n(lambda) = sum of (i - 1) lambda_i."""
    return sum([i * x for i, x in enumerate(partition)])


def _interpolate(points):
    """The coefficients, lowest first, of the polynomial of degree below
    len(points) through the points (q, y), over the rationals (Lagrange)."""
    coeffs = [Fraction(0)] * len(points)
    for i, (q_i, y_i) in enumerate(points):
        basis, scale = [Fraction(1)], Fraction(1)
        for j, (q_j, _) in enumerate(points):
            if j != i:
                basis = [a - q_j * b for a, b in zip([0] + basis, basis + [0])]
                scale *= q_i - q_j
        coeffs = [c + y_i * b / scale for c, b in zip(coeffs, basis)]
    return coeffs


def _monic_of_degree(counts, d):
    """Whether the counts at the first d + 1 of ``EQUAL_DIMENSION_PRIMES``
    interpolate to a monic integer polynomial of degree d that predicts
    the count at the next one, if there is one (not for d = 3)."""
    primes = EQUAL_DIMENSION_PRIMES[:d + 2]
    coeffs = _interpolate([(q, counts[q]) for q in primes[:d + 1]])
    return (all(c.denominator == 1 for c in coeffs) and coeffs[-1] == 1
            and all(sum(c * q ** k for k, c in enumerate(coeffs)) == counts[q]
                    for q in primes[d + 1:]))


# a census at 11 would predict the d = 3 counts, but takes minutes on |beta| <= 6
EQUAL_DIMENSION_PRIMES = (2, 3, 5, 7)


def _assert_strata_of_equal_dimension(max_weight, max_d):
    """The paper's claim over F_q: the variety of short exact sequences of
    a shape is cut by its LR tableaux into strata of equal dimension
    d = n(beta) - n(alpha) - n(gamma).  Over F_q each stratum's submodules
    number a monic polynomial in q of degree d, the leading term
    c q^d of the Hall polynomial shared among the c tableaux (Macdonald,
    Symmetric functions and Hall polynomials, Ch. II; T. Klein, J. Algebra
    12, 1969).  On every shape in range with a nonempty alpha and a
    tableau, each tableau's census counts pass ``_monic_of_degree``, and
    a count off by one at any one prime fails it.  Returns the number of
    shapes."""
    shapes = 0
    for shape in iter_all_shapes(max_weight):
        d = _n(shape.beta) - _n(shape.alpha) - _n(shape.gamma)
        tableaux = enumerate_tableaux(shape)
        if d > max_d or not tableaux:
            continue
        censuses = {q: enumerate_submodules(shape, q, slow=True).per_tableau
                    for q in EQUAL_DIMENSION_PRIMES[:d + 2]}
        for t in tableaux:
            counts = {q: per_tableau.get(t, 0) for q, per_tableau in censuses.items()}
            assert _monic_of_degree(counts, d), (shape, t, counts)
            for q in counts:
                for off in (-1, 1):
                    assert not _monic_of_degree({**counts, q: counts[q] + off}, d), (shape, t)
        shapes += 1
    return shapes


def test_strata_count_monic_polynomials_of_degree_d():
    assert _assert_strata_of_equal_dimension(6, 2) == 205


@pytest.mark.slow
@pytest.mark.parametrize("max_weight,max_d,shapes", [(6, 3, 232), (7, 2, 408)], ids=str)
def test_strata_count_monic_polynomials_of_degree_d_slow(max_weight, max_d, shapes):
    assert _assert_strata_of_equal_dimension(max_weight, max_d) == shapes


def _dual(E: Embedding) -> Embedding:
    """D(A <= B) = ((B/A)* <= B*): the transposed action, on the dual
    space, with the functionals that vanish on A as the subspace."""
    return Embedding.from_json({"p": E.p, "T": [list(c) for c in zip(*E.B.action)],
                                "A_span": [list(r) for r in la.null_space(E.span, E.p)]})


def _force_forward_search(monkeypatch):
    """Every census searches its own type, never the dual side, so that
    two censuses related by D come from two separate searches."""
    monkeypatch.setattr(oracle, "_searches_dual", lambda sizes, alpha, gamma: False)


def test_census_classes_correspond_under_duality(monkeypatch):
    """D is a duality on invariant-subspace pairs, B* is isomorphic to B,
    and D(A <= B) has A's cotype as its type and A's type as its cotype
    (Ringel and Schmidmeier).  So the census of (alpha, beta, gamma) and
    that of (gamma, beta, alpha) correspond class by class, with equal
    counts: on every pool shape the duals of one census's representatives,
    each with its tableau chain, its fingerprint (computed afresh, since D
    is contravariant) and its class's count, are the other census's
    classes.  A split, merged or miscounted class on either side shows.
    Both censuses search forward: the side-choosing census would take one
    of them from the other's search, mapped through D.  The swapped census
    often needs ``slow``, since the nominal tuple count is not symmetric
    in alpha and gamma."""
    _force_forward_search(monkeypatch)
    classes = 0
    for shape, p in census_pool():
        catalog = s4_catalog(p)
        duals = [(D.chain(), iso_fingerprint(D, catalog), c.submodule_count)
                 for c in enumerate_submodules(shape, p).classes
                 for D in [_dual(c.representative)]]
        swapped = enumerate_submodules(Shape(shape.gamma, shape.beta, shape.alpha), p, slow=True)
        assert sorted(duals) == sorted((c.tableau.chain, c.fingerprint, c.submodule_count)
                                       for c in swapped.classes), (shape, p)
        classes += len(duals)
    assert classes == 65


def test_census_class_counts_correspond_under_duality_beyond_nilpotency_four(monkeypatch):
    """The class-level check for beta_1 >= 5, where no catalog is known to
    be complete: on every shape with beta_1 >= 5, |beta| <= 8, alpha and
    gamma not empty and a nonzero LR coefficient, at p = 2, the sorted
    class counts of the census and of its alpha-gamma swap are equal, both
    searched forward.  A fingerprint merge on one side would show here.
    Every census with |beta| <= 7 there has one class, so this check is
    Hall symmetry; three at |beta| = 8, over beta = (5, 2, 1), have three
    classes on two tableaux."""
    _force_forward_search(monkeypatch)
    shapes = [s for s in iter_all_shapes(8)
              if s.beta[0] >= 5 and s.gamma and enumerate_tableaux(s)]
    assert (len(shapes), sum(pt.weight(s.beta) <= 7 for s in shapes)) == (277, 88)
    split = 0
    for shape in shapes:
        counts = [sorted(c.submodule_count for c in
                         enumerate_submodules(Shape(*side), 2, slow=True).classes)
                  for side in ((shape.alpha, shape.beta, shape.gamma),
                               (shape.gamma, shape.beta, shape.alpha))]
        assert counts[0] == counts[1], shape
        split += len(counts[0]) > 1
    assert split == 3


def _assert_pruned_search_is_the_stratum(p, max_weight, top=None):
    """On every shape in range with beta_1 <= top: the pruned search, and
    the census's side-choosing path (``_census_spans``), are the reference
    filtered to cotype gamma, in its order, and the tableaux of its spans
    are those of the shape (one stratum per tableau; T. Klein, J. London
    Math. Soc. 43, 1968).  Returns the number of shapes and of those whose
    census searches the dual side."""
    shapes = dual = 0
    for beta, alpha in _types_in_range(max_weight, p):
        if top and beta[0] > top:
            continue
        B = canonical_module(beta, p)
        strata = _strata(beta, alpha, p)
        for gamma in sub_partitions(beta):
            if pt.weight(gamma) + pt.weight(alpha) != pt.weight(beta):
                continue
            shape = Shape(alpha, beta, gamma)
            spans = _spans(B, alpha, gamma)
            assert spans == strata.get(gamma, []), shape
            assert [E.span for E in oracle._census_spans(B, alpha, gamma)] == spans, shape
            got = {tableau_of_embedding(Embedding(B, S)) for S in spans}
            assert got == set(enumerate_tableaux(shape)), shape
            shapes += 1
            dual += oracle._searches_dual(B.sizes, alpha, gamma)
    return shapes, dual


# (p, largest |beta|): the shapes whose census searches the dual side
DUAL_SIDE = {(2, 6): 139, (3, 5): 49, (5, 4): 20}


@pytest.mark.parametrize("p,max_weight,shapes", [(2, 6, 338), (3, 5, 129), (5, 4, 56)], ids=str)
def test_pruned_search_is_one_stratum_per_tableau(p, max_weight, shapes):
    assert _assert_pruned_search_is_the_stratum(p, max_weight) == (shapes,
                                                                   DUAL_SIDE[p, max_weight])


@pytest.mark.slow
@pytest.mark.parametrize("p,max_weight,top,shapes", [(2, 7, None, 739), (3, 6, 4, 254)],
                         ids=str)
def test_pruned_search_is_one_stratum_per_tableau_slow(p, max_weight, top, shapes):
    assert _assert_pruned_search_is_the_stratum(p, max_weight, top)[0] == shapes


def _members(shape, p, catalog):
    """The census spans of ``shape`` over F_p, regrouped by fingerprint
    from the search, in the census's order."""
    groups = {}
    for E in _census_embeddings(shape, p):
        groups.setdefault(iso_fingerprint(E, catalog), []).append(E)
    return groups


def _assert_members_isomorphic(shape, p, catalog=None):
    """Every member of every census class is isomorphic to the class
    representative, its first member."""
    census = enumerate_submodules(shape, p, slow=True, catalog=catalog)
    members = _members(shape, p, catalog or s4_catalog(p))
    assert sorted(c.fingerprint for c in census.classes) == sorted(members)
    rng = random.Random(19)
    for c in census.classes:
        group = members[c.fingerprint]
        assert len(group) == c.submodule_count
        assert group[0].span == c.representative.span
        assert all(ref.isomorphic(E, c.representative, rng) for E in group)


@pytest.mark.parametrize("shape,p", [
    (TWO_CLASS, 2), (FIVE_CLASS, 2), (Shape((2, 1), (3, 2, 1), (2, 1)), 3),
], ids=str)
def test_census_members_are_isomorphic_to_their_representative(shape, p):
    _assert_members_isomorphic(shape, p)


@pytest.mark.slow
@pytest.mark.parametrize("extra", [False, True], ids=["pickets and poles", "with M1 to M23"])
def test_nilpotency_six_census_members_are_isomorphic(extra):
    catalog = picket_pole_catalog(2, 6) + (list(ext_deg_modules(2).items()) if extra else [])
    _assert_members_isomorphic(EXT_DEG_SHAPE, 2, catalog)


def test_referee_catches_the_merge_of_a_trimmed_catalog():
    """Without P(2,) the five-class census reports four classes and no
    error; the referee finds members of one class that are not isomorphic
    to its representative, each certain by its endomorphism dimension."""
    full = s4_catalog(2)
    assert full[6][0] == "P(2,)"
    trimmed = full[:6] + full[7:]
    census = enumerate_submodules(FIVE_CLASS, 2, catalog=trimmed)
    assert len(census.classes) == 4
    members = _members(FIVE_CLASS, 2, trimmed)
    rng = random.Random(19)
    apart = []
    for c in census.classes:
        R = c.representative
        end = len(ref.hom_basis(R, R))
        for E in members[c.fingerprint]:
            if not ref.isomorphic(E, R, rng):
                assert len(ref.hom_basis(E, E)) != end
                apart.append(E)
    assert len(apart) == 8
