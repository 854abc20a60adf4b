import random
from itertools import permutations

import pytest

import tableaux_reference as ref
from conftest import iter_all_shapes, iter_strip_shapes
from lrlab import partitions as pt
from lrlab.tableaux import (Column, LRTableau, Shape, dominance_leq,
                            enumerate_tableaux, from_chain, from_word,
                            is_horizontal_strip, is_vertical_strip,
                            reading_word, validate)

RUNNING = Shape((3, 2), (4, 3, 3, 2, 1), (3, 2, 2, 1))


def test_shape_invariants():
    with pytest.raises(ValueError):
        Shape((1,), (3, 2), (3, 2))  # weights disagree
    with pytest.raises(ValueError):
        Shape((2,), (2, 1), (2, 2))  # gamma not inside beta


def test_enumeration_counts():
    assert len(enumerate_tableaux(RUNNING)) == 2
    assert len(enumerate_tableaux(Shape((3, 1), (4, 3, 2, 1), (3, 2, 1)))) == 3
    assert len(enumerate_tableaux(Shape((4, 2), (6, 4, 2), (4, 2)))) == 3
    assert len(enumerate_tableaux(Shape((3, 1), (4, 3, 1), (3, 1)))) == 2
    assert len(enumerate_tableaux(Shape((), (3, 1), (3, 1)))) == 1
    # infeasible: alpha too tall for a single added column
    assert enumerate_tableaux(Shape((1, 1), (3, 2, 2), (3, 2))) == []


def test_running_example_chains():
    t1, t2 = enumerate_tableaux(RUNNING)
    assert t1.chain == ((3, 2, 2, 1), (3, 3, 2, 1, 1), (4, 3, 2, 2, 1), (4, 3, 3, 2, 1))
    assert t2.chain == ((3, 2, 2, 1), (3, 2, 2, 2, 1), (3, 3, 3, 2, 1), (4, 3, 3, 2, 1))


def test_validate_reports():
    t1, _ = enumerate_tableaux(RUNNING)
    assert validate(t1).ok
    empty = enumerate_tableaux(Shape((), (3, 1), (3, 1)))[0]
    assert validate(empty).ok
    bad = LRTableau([Column(3, 1, (1, 1)), Column(1, 0, (2,))])
    report = validate(bad)
    assert not report.ok
    assert any("column-strict" in v for v in report.violations)


def test_tableau_refuses_counts_of_no_alpha():
    # one entry 1 but two entries 2: no alpha has these entry counts
    with pytest.raises(ValueError, match="not a transposed partition"):
        LRTableau([Column(3, 1, (2, 2)), Column(1, 0, (1,))])
    t = LRTableau([Column(2, 1, (1,)), Column(1, 0, (1,))])
    assert t.shape.alpha == (1, 1)


def test_from_word_refuses_counts_other_than_alpha():
    # RUNNING needs entries 1, 1, 2, 2, 3; the counts of the first word
    # are no transposed partition, those of the second are, but not alpha's
    for word in [(1, 2, 2, 3, 3), (1, 1, 1, 1, 1)]:
        with pytest.raises(ValueError, match=r"entry counts \{1: [15].*"
                           r"alpha = \[3, 2\] needs \{1: 2, 2: 2, 3: 1\}"):
            from_word(RUNNING, word)


def test_column_structure_rejected():
    with pytest.raises(ValueError):
        Column(3, 1, (1,))  # not fully filled
    with pytest.raises(ValueError):
        # bases must assemble into a skew diagram
        LRTableau([Column(4, 1, (1, 2, 3)), Column(3, 3, ())])


def test_strips():
    assert is_horizontal_strip(RUNNING.beta, RUNNING.gamma)
    assert not is_vertical_strip(RUNNING.beta, RUNNING.gamma)
    b, g = (6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1)
    assert is_horizontal_strip(b, g) and is_vertical_strip(b, g)
    assert is_horizontal_strip((3, 2), (3, 2)) and is_vertical_strip((3, 2), (3, 2))


def test_vertical_strip_matches_transpose_reference():
    parts = [q for n in range(9) for q in pt.partitions_of(n)]
    for beta in parts:
        for gamma in parts:
            assert is_vertical_strip(beta, gamma) == ref.is_vertical_strip(beta, gamma)


def test_reading_words():
    shape = Shape((3, 2, 1), (6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1))
    words = {reading_word(t) for t in enumerate_tableaux(shape)}
    assert (1, 3, 2, 2, 1, 1) in words
    assert (2, 3, 2, 1, 1, 1) in words
    empty = enumerate_tableaux(Shape((), (2, 1), (2, 1)))[0]
    assert reading_word(empty) == ()


def test_from_word_rejects_mismatches():
    shape = Shape((3, 2, 1), (6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1))
    with pytest.raises(ValueError):
        from_word(shape, (1, 1, 1, 1, 1, 1))  # wrong multiset
    with pytest.raises(ValueError):
        from_word(shape, (1, 2, 3))  # wrong length


def test_dominance():
    t1, t2 = enumerate_tableaux(RUNNING)
    assert dominance_leq(t1, t2)
    assert not dominance_leq(t2, t1)
    assert dominance_leq(t1, t1)
    other = enumerate_tableaux(Shape((3, 1), (4, 3, 1), (3, 1)))[0]
    with pytest.raises(ValueError):
        dominance_leq(t1, other)


def test_round_trips_exhaustive():
    for shape in iter_strip_shapes(9):
        for t in enumerate_tableaux(shape):
            assert from_chain(t.chain) == t
            assert from_word(shape, reading_word(t)) == t
            assert validate(t).ok


def test_round_trips_general_shapes():
    for shape in iter_all_shapes(7):
        for t in enumerate_tableaux(shape):
            assert from_chain(t.chain) == ref.from_chain(t.chain) == t
            assert from_word(shape, reading_word(t)) == t
            assert validate(t).ok


def test_from_chain_rejections():
    with pytest.raises(ValueError):
        from_chain([(2,), (1,)])  # not nested
    with pytest.raises(ValueError):
        from_chain([(1,), (2,), (4,)])  # stage sizes increase
    with pytest.raises(ValueError):
        from_chain([(2,), (2,)])  # repeated final stage


def _random_chain(rng: random.Random) -> list[tuple[int, ...]]:
    """A nested chain grown box by box; a column may gain several boxes
    in one stage and stage sizes may rise, so many chains are invalid."""
    cur = sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))), reverse=True)
    chain = [tuple(cur)]
    for _ in range(rng.randint(0, 4)):
        for _ in range(rng.randint(1, 4)):
            c = rng.randint(0, len(cur))
            if c == len(cur):
                cur.append(0)
            if c == 0 or cur[c - 1] > cur[c]:
                cur[c] += 1
            elif not cur[c]:
                cur.pop()
        chain.append(tuple(cur))
    return chain


def _from_chain_outcome(build, chain):
    try:
        return build(chain)
    except ValueError:
        return ValueError


def test_from_chain_matches_stage_growth_reference():
    rng = random.Random(20141)
    built = 0
    for _ in range(5000):
        chain = _random_chain(rng)
        got = _from_chain_outcome(from_chain, chain)
        assert got == _from_chain_outcome(ref.from_chain, chain), chain
        built += got is not ValueError
    assert 500 < built < 4500  # both outcomes are well represented


def test_from_chain_huge_parts_stay_cheap():
    # no per-row work: a one-column chain of height 10^12 builds at once
    t = from_chain([(10**12,)])
    assert t.columns == (Column(10**12, 10**12, ()),)
    assert validate(from_chain([(10**12, 1), (10**12, 2)])).ok
    with pytest.raises(ValueError):
        from_chain([(1,), (10**12,)])  # one column gains 10^12 - 1 boxes


def test_dominance_is_partial_order_on_enumerations():
    for shape in iter_strip_shapes(9):
        ts = enumerate_tableaux(shape)
        for a in ts:
            assert dominance_leq(a, a)
            for b in ts:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
                for c in ts:
                    if dominance_leq(a, b) and dominance_leq(b, c):
                        assert dominance_leq(a, c)


def brute_force_tableaux(shape: Shape) -> set[LRTableau]:
    """Referee: place the entry multiset into the skew cells in every
    order and keep the fillings that validate."""
    cells = []
    for length, base in shape.cells():
        cells.append(length - base)
    entries = [v for v, c in enumerate(pt.transpose(shape.alpha), start=1)
               for _ in range(c)]
    out = set()
    for perm in set(permutations(entries)):
        cols = []
        pos = 0
        ok = True
        for (length, base), n in zip(shape.cells(), cells):
            chunk = perm[pos : pos + n]
            pos += n
            try:
                cols.append(Column(length, base, tuple(chunk)))
            except ValueError:
                ok = False
                break
        if not ok:
            continue
        try:
            t = LRTableau(cols)
        except ValueError:
            continue
        if validate(t).ok:
            out.add(t)
    return out


def test_enumeration_against_brute_force_small():
    for shape in iter_all_shapes(6):
        assert set(enumerate_tableaux(shape)) == brute_force_tableaux(shape)


@pytest.mark.slow
def test_enumeration_against_brute_force_larger():
    for shape in iter_all_shapes(8):
        assert set(enumerate_tableaux(shape)) == brute_force_tableaux(shape)


def test_enumeration_matches_public_constructor(strip_tableaux_12):
    # enumerate_tableaux hands its columns and shape to the known-shape path
    for shape, ts in strip_tableaux_12.items():
        for t in ts:
            rebuilt = LRTableau(t.columns)
            assert rebuilt.columns == t.columns and rebuilt.shape == t.shape == shape


def test_enumeration_matches_generator_reference(strip_tableaux_12):
    # the same list in the same order as the previous search
    blank = [Shape((), beta, beta) for n in range(9) for beta in pt.partitions_of(n)]
    for shape in [*iter_all_shapes(8), *blank]:
        assert enumerate_tableaux(shape) == ref.enumerate_tableaux(shape)
    for shape, ts in strip_tableaux_12.items():
        assert ts == ref.enumerate_tableaux(shape)


def test_enumeration_order_is_lexicographic():
    # nothing sorts the list: the search visits the words in order
    for shape in [*iter_strip_shapes(8), *iter_all_shapes(6)]:
        words = [reading_word(t) for t in enumerate_tableaux(shape)]
        assert words == sorted(words)
        assert len(set(words)) == len(words)


def test_json_round_trip():
    t1, _ = enumerate_tableaux(RUNNING)
    data = t1.to_json()
    assert data["chain"][0] == [3, 2, 2, 1]
    assert LRTableau.from_json(data) == t1
