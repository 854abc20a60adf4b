"""Acceptance suite: one test per agreed criterion, each printing a
PASS/FAIL line (run pytest with -s to see them inline)."""

import random
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import FIVE_CLASS, TWO_CLASS, iter_strip_shapes, random_pole
from lrlab.boxmoves import box_leq, box_successors, dom_to_box_chain, dom_to_box_step
from lrlab.nilmod import (direct_sum, hom_dim, invariant_intersection_dim,
                          mu_entries, picket_embedding, picket_dominance_test,
                          realize_picket, realize_pole, realize_tableau,
                          tableau_of_embedding)
from lrlab.oracle import (enumerate_submodules, iso_fingerprint,
                          picket_pole_catalog)
from lrlab.poles import Pole, pole_tableau, tableau_union
from lrlab.tableaux import (Shape, dominance_leq, enumerate_tableaux, from_word,
                            is_horizontal_strip, is_vertical_strip, reading_word)
from lrlab.witness import witness_sequence
from lrlab.worked_examples import EXT_DEG_SHAPE, ext_deg_modules

RUNNING = Shape((3, 2), (4, 3, 3, 2, 1), (3, 2, 2, 1))
ALGO = Shape((3, 2, 1), (6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1))


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:>2} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS  {description}")


def test_criterion_01_enumeration_counts():
    with criterion(1, "published tableau counts"):
        assert len(enumerate_tableaux(RUNNING)) == 2
        assert len(enumerate_tableaux(FIVE_CLASS)) == 3
        assert len(enumerate_tableaux(Shape((4, 2), (6, 4, 2), (4, 2)))) == 3
        assert len(enumerate_tableaux(TWO_CLASS)) == 2


def test_criterion_02_first_chain():
    with criterion(2, "chain of the first two-filling tableau"):
        first = enumerate_tableaux(RUNNING)[0]
        assert first.chain == (
            (3, 2, 2, 1), (3, 3, 2, 1, 1), (4, 3, 2, 2, 1), (4, 3, 3, 2, 1)
        )


def test_criterion_03_strips():
    with criterion(3, "strip predicates"):
        assert is_horizontal_strip(RUNNING.beta, RUNNING.gamma)
        assert not is_vertical_strip(RUNNING.beta, RUNNING.gamma)
        assert is_horizontal_strip(ALGO.beta, ALGO.gamma)
        assert is_vertical_strip(ALGO.beta, ALGO.gamma)


def test_criterion_04_word_rewriting():
    with criterion(4, "word-rewriting step with both choices"):
        low = from_word(ALGO, (1, 3, 2, 2, 1, 1))
        high = from_word(ALGO, (2, 3, 2, 1, 1, 1))
        assert reading_word(dom_to_box_step(low, high, pick_l=3)) == \
            (2, 3, 1, 2, 1, 1)
        assert dom_to_box_step(low, high, pick_l=1) == low


def test_criterion_05_exhaustive_orders(strip_tableaux_12):
    with criterion(5, "box/dominance equivalences, exhaustive"):
        for shape, ts in strip_tableaux_12.items():
            for t in ts:
                for t2, _ in box_successors(t):
                    assert dominance_leq(t, t2) and not dominance_leq(t2, t)
        for shape in iter_strip_shapes(14, need_vertical=True):
            ts = enumerate_tableaux(shape)
            for a in ts:
                for b in ts:
                    dom = dominance_leq(a, b)
                    assert box_leq(a, b) == dom
                    if dom:
                        chain = dom_to_box_chain(a, b)
                        assert chain[0] == a and chain[-1] == b
                        for lo, hi in zip(chain, chain[1:]):
                            assert hi in [x for x, _ in box_successors(lo)]


def test_criterion_06_pole_chain():
    with criterion(6, "pole chain symbolically and over both fields"):
        pole = Pole((0, 2, 3, 6), (7, 4, 1))
        want = ((6, 2), (6, 2, 1), (6, 3, 1), (6, 4, 1), (7, 4, 1))
        assert pole_tableau(pole).chain == want
        for p in (2, 3):
            E = realize_pole(pole, p)
            assert E.chain() == want
            assert tableau_of_embedding(E).chain == want


def test_criterion_07_graded_pole():
    with criterion(7, "graded realization of the three-block pole"):
        pole = Pole((0, 2, 5), (6, 3, 1))
        E = realize_pole(pole, 2)
        blocks = {(6, -3), (3, -1), (1, 0)}
        got = set()
        grading = E.B.grading
        i = 0
        for size in (6, 3, 1):
            got.add((size, grading[i]))
            i += size
        assert got == blocks
        gen = np.zeros(10, dtype=np.int64)
        gen[3] = gen[7] = gen[9] = 1  # coordinates of 1, T, T^3 on the blocks
        assert E.contains(gen)
        assert tableau_of_embedding(E) == pole_tableau(pole)


def test_criterion_08_realize_round_trip(strip_tableaux_12):
    with criterion(8, "realize/tableau round trip, exhaustive, two fields"):
        for shape, ts in strip_tableaux_12.items():
            for t in ts:
                for p in (2, 3):
                    assert tableau_of_embedding(realize_tableau(t, p)) == t


def test_criterion_09_witnesses(strip_tableaux_12):
    with criterion(9, "witness sequences on every box-move edge, two fields"):
        from lrlab.tableaux import Column, LRTableau

        low = LRTableau(
            [Column(9, 8, (3,)), Column(9, 8, (4,)), Column(7, 6, (2,)),
             Column(5, 4, (3,)), Column(3, 2, (2,)), Column(1, 0, (1,)),
             Column(1, 0, (1,))]
        )
        high = LRTableau(
            [Column(9, 8, (3,)), Column(9, 8, (4,)), Column(7, 6, (3,)),
             Column(5, 4, (2,)), Column(3, 2, (2,)), Column(1, 0, (1,)),
             Column(1, 0, (1,))]
        )
        small = Shape((2, 1), (5, 2, 1), (4, 1))
        pairs = [
            (low, high),
            (from_word(small, (1, 2, 1)), from_word(small, (2, 1, 1))),
        ]
        for a, b in pairs:
            move = next(m for t2, m in box_successors(a) if t2 == b)
            for p in (2, 3):
                ws = witness_sequence(a, b, move, p)
                assert all(ws.report.values())
        for shape, ts in strip_tableaux_12.items():
            for t in ts:
                for t2, move in box_successors(t):
                    for p in (2, 3):
                        ws = witness_sequence(t, t2, move, p)
                        assert all(ws.report.values())


def test_criterion_10_census_classes(censuses):
    with criterion(10, "census class counts for both catalog shapes"):
        two = censuses[TWO_CLASS]
        assert len(two.classes) == 2
        for t in enumerate_tableaux(TWO_CLASS):
            assert len(two.classes_of(t)) == 1
        five = censuses[FIVE_CLASS]
        assert len(five.classes) == 5
        counts = sorted(len(five.classes_of(t)) for t in enumerate_tableaux(FIVE_CLASS))
        assert counts == [1, 2, 2]


def test_criterion_11_invariant_intersections():
    with criterion(11, "invariant-intersection dimensions"):
        M12 = direct_sum(realize_pole(Pole((0, 2, 3), (4, 1)), 2),
                         realize_picket(3, 0, 2), realize_picket(2, 1, 2))
        M3 = direct_sum(realize_picket(4, 1, 2), realize_picket(3, 3, 2),
                        realize_picket(2, 0, 2), realize_picket(1, 0, 2))
        assert invariant_intersection_dim(M12, 2, 1) == 1
        assert invariant_intersection_dim(M3, 2, 1) == 2


def test_criterion_12_hom_identities(censuses):
    with criterion(12, "picket-hom identities on all census embeddings"):
        for census in censuses.values():
            embeddings = [cls.representative for cls in census.classes]
            for E in embeddings:
                chain = E.chain()
                for i in range(0, 5):
                    ch = chain[min(i, len(chain) - 1)]
                    for ell in range(1, 5):
                        got = hom_dim(E, picket_embedding(i, ell, 2))
                        assert got == sum(min(x, ell) for x in ch)
            for a in embeddings:
                for b in embeddings:
                    ta = tableau_of_embedding(a)
                    tb = tableau_of_embedding(b)
                    assert picket_dominance_test(a, b) == dominance_leq(ta, tb)


def test_criterion_13_mu_formula(censuses):
    with criterion(13, "entry-count formula matches tableau counts"):
        rng = random.Random(41)
        pool = [cls.representative for census in censuses.values()
                for cls in census.classes]
        for _ in range(100):
            parts = [realize_pole(random_pole(rng), 2)
                     for _ in range(rng.randint(1, 3))]
            pool.append(direct_sum(*parts))
        for E in pool:
            t = tableau_of_embedding(E)
            counts = {}
            for c in t.columns:
                for j, e in enumerate(c.entries):
                    key = (e, c.row_of(j))
                    counts[key] = counts.get(key, 0) + 1
            s = t.shape.alpha[0] if t.shape.alpha else 0
            top = t.shape.beta[0] if t.shape.beta else 0
            for ell in range(1, s + 1):
                for r in range(1, top + 1):
                    assert mu_entries(E, ell, r) == counts.get((ell, r), 0)


def test_criterion_14_union_law(strip_tableaux_12):
    with criterion(14, "tableau of a direct sum is the rowwise union"):
        rng = random.Random(43)
        pool = [t for ts in strip_tableaux_12.values() for t in ts]
        for _ in range(200):
            ta, tb = rng.choice(pool), rng.choice(pool)
            Ea, Eb = realize_tableau(ta, 2), realize_tableau(tb, 2)
            assert tableau_of_embedding(direct_sum(Ea, Eb)) == tableau_union(ta, tb)


@pytest.mark.slow
def test_criterion_15_census_nilpotency_six():
    with criterion(15, "slow census inventory (verifiable parts)"):
        mods = ext_deg_modules(2)
        catalog = picket_pole_catalog(2, 6) + list(mods.items())
        census = enumerate_submodules(EXT_DEG_SHAPE, 2, slow=True, catalog=catalog)
        fp = {name: iso_fingerprint(E, catalog) for name, E in mods.items()}
        assert fp["M12"] != fp["M23"]
        assert {c.fingerprint for c in census.classes} == set(fp.values())
        assert sum(c.submodule_count for c in census.classes) == \
            census.total_submodules
        ts = enumerate_tableaux(EXT_DEG_SHAPE)
        by_word = {reading_word(t): t for t in ts}
        g1, g3 = by_word[max(by_word)], by_word[min(by_word)]
        g2 = next(t for t in ts if t not in (g1, g3))
        assert len(census.classes_of(g3)) == 1
        assert tableau_of_embedding(mods["M3"]) == g3
        assert tableau_of_embedding(mods["M23"]) == g2


@pytest.mark.slow
def test_criterion_15_grouping_as_stated():
    """The stated grouping puts M12 on the middle tableau; the embedding
    pictured for M12 computes to the dominance-largest tableau instead
    (see the decisions ledger), so this faithful transcription fails."""
    with criterion(15, "slow census grouping exactly as stated"):
        mods = ext_deg_modules(2)
        ts = enumerate_tableaux(EXT_DEG_SHAPE)
        by_word = {reading_word(t): t for t in ts}
        g1 = by_word[max(by_word)]
        g2 = next(t for t in ts if t not in (g1, by_word[min(by_word)]))
        catalog = picket_pole_catalog(2, 6) + list(mods.items())
        census = enumerate_submodules(EXT_DEG_SHAPE, 2, slow=True, catalog=catalog)
        assert tableau_of_embedding(mods["M12"]) == g2, \
            "M12 belongs to the dominance-largest tableau, not the middle one"
        assert len(census.classes_of(g1)) == 2
