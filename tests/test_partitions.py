import random

import pytest

from lrlab import partitions as pt


def all_partitions_upto(n):
    for k in range(n + 1):
        yield from pt.partitions_of(k)


def test_normalization():
    assert pt.partition([4, 3, 3, 0, 0]) == (4, 3, 3)
    assert pt.partition([]) == ()
    with pytest.raises(ValueError):
        pt.partition([2, 3])
    with pytest.raises(ValueError):
        pt.partition([1, -1])


def test_transpose_values():
    assert pt.transpose((3, 2)) == (2, 2, 1)
    assert pt.transpose(()) == ()
    assert pt.transpose((4, 3, 3, 2, 1)) == (5, 4, 3, 1)


def test_transpose_involution_exhaustive():
    for p in all_partitions_upto(20):
        assert pt.transpose(pt.transpose(p)) == p


def test_natural_leq_values():
    assert pt.natural_leq((3, 3, 2, 1, 1), (3, 2, 2, 2, 1))
    assert not pt.natural_leq((3, 2, 2, 2, 1), (3, 3, 2, 1, 1))
    assert pt.natural_leq((2, 2), (2, 2))


def test_natural_leq_is_partial_order():
    rng = random.Random(7)
    pool = [p for p in all_partitions_upto(12)]
    for _ in range(3000):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert pt.natural_leq(a, a)
        if pt.weight(a) == pt.weight(b):
            if pt.natural_leq(a, b) and pt.natural_leq(b, a):
                assert a == b
        if pt.natural_leq(a, b) and pt.natural_leq(b, c):
            assert pt.natural_leq(a, c)


def test_natural_leq_matches_transpose_definition():
    pool = list(all_partitions_upto(8))
    for a in pool:
        for b in pool:
            ta, tb = pt.transpose(a), pt.transpose(b)
            rows = max(len(ta), len(tb))
            want = all(sum(ta[:r]) <= sum(tb[:r]) for r in range(1, rows + 1))
            assert pt.natural_leq(a, b) == want, (a, b)


def test_union():
    assert pt.union((3, 1), (2,)) == (3, 2, 1)
    assert pt.union((4, 3, 3), (3, 1)) == (4, 3, 3, 3, 1)
    rng = random.Random(11)
    pool = [p for p in all_partitions_upto(10)]
    for _ in range(500):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert pt.union(a, b) == pt.union(b, a)
        assert pt.union(pt.union(a, b), c) == pt.union(a, pt.union(b, c))
        assert pt.weight(pt.union(a, b)) == pt.weight(a) + pt.weight(b)
        assert pt.union(a, ()) == a


def test_json_round_trip():
    p = pt.partition((4, 3, 3, 2, 1))
    assert pt.from_json(pt.to_json(p)) == p
    for bad in ({"not": "a partition"}, [1.5], [2, True], ["2"]):
        with pytest.raises(ValueError):
            pt.from_json(bad)
