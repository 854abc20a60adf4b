"""Value semantics of the immutable records: repr, equality, hash,
construction and the messages their checks raise."""

import copy
import pickle

import pytest

from lrlab.boxmoves import BoxMove
from lrlab.poles import ExtendedPole, Picket, Pole
from lrlab.tableaux import Column, Shape

RECORDS = [
    (Shape((3, 1), (4, 3, 1), (3, 1)),
     "Shape(alpha=(3, 1), beta=(4, 3, 1), gamma=(3, 1))",
     ((3, 1), (4, 3, 1), (3, 1))),
    (Column(3, 1, (1, 2)), "Column(length=3, base=1, entries=(1, 2))",
     (3, 1, (1, 2))),
    (BoxMove(1, 2, 5, 1, 0, 2),
     "BoxMove(u=1, v=2, r=5, s=1, source_column_u=0, source_column_v=2)",
     (1, 2, 5, 1, 0, 2)),
    (Picket(5, 2), "Picket(n=5, m=2)", (5, 2)),
    (Pole((0, 2, 3, 6), (7, 4, 1)),
     "Pole(layers=(0, 2, 3, 6), ambient=(7, 4, 1))", ((0, 2, 3, 6), (7, 4, 1))),
    (ExtendedPole(Pole((0,), (1,)), (1, 3)),
     "ExtendedPole(pole=Pole(layers=(0,), ambient=(1,)), empty_pickets=(3, 1))",
     (Pole((0,), (1,)), (3, 1))),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_repr_is_pinned(record, text, fields):
    assert repr(record) == text == str(record)


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_equality_and_hash_by_fields(record, text, fields):
    twin = type(record)(*fields)
    assert twin == record and not twin != record
    assert twin is not record
    assert hash(twin) == hash(record) == hash(fields)
    assert len({record, twin}) == 1


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_record_equals_no_tuple_and_no_other_record(record, text, fields):
    assert record != fields and fields != record
    for other, _, _ in RECORDS:
        if other is not record:
            assert record != other


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_copy_and_pickle_keep_the_value(record, text, fields):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_differing_in_one_field_differ():
    assert Shape((1,), (2,), (1,)) != Shape((1,), (1, 1), (1,))
    assert Column(3, 1, (1, 2)) != Column(3, 1, (1, 3))
    assert Picket(5, 2) != Picket(5, 3)
    assert ExtendedPole(None, (2,)) != ExtendedPole(None, (2, 1))


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_fields_are_read_only(record, text, fields):
    name = repr(record).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert repr(record) == text


def test_keyword_construction_and_normalization():
    assert Shape(alpha=[3, 1, 0], beta=(4, 3, 1), gamma=[3, 1]) \
        == Shape((3, 1), (4, 3, 1), (3, 1))
    assert Column(length=3, base=1, entries=(1, 2)) == Column(3, 1, (1, 2))
    assert BoxMove(u=1, v=2, r=5, s=1, source_column_u=0, source_column_v=2) \
        == BoxMove(1, 2, 5, 1, 0, 2)
    assert Picket(n=5, m=2) == Picket(5, 2)
    pole = Pole(layers=[0, 2], ambient=[3, 1])
    assert pole.layers == (0, 2) and pole.ambient == (3, 1)
    assert type(pole.layers) is tuple and type(pole.ambient) is tuple
    assert ExtendedPole(pole=pole).empty_pickets == ()
    assert ExtendedPole(None, empty_pickets=[1, 3, 2]).empty_pickets == (3, 2, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: Shape((2,), (2,), (1,)),
     "|beta| must equal |alpha| + |gamma|: Shape(alpha=(2,), beta=(2,), gamma=(1,))"),
    (lambda: Shape((1,), (2,), (1, 1)),
     "gamma must fit inside beta columnwise: Shape(alpha=(1,), beta=(2,), gamma=(1, 1))"),
    (lambda: Shape([1, 0], [2], [1]), None),
    (lambda: Shape((1, 2), (3,), ()), "parts must be weakly decreasing, got (1, 2)"),
    (lambda: Column(0, 0, ()),
     "bad column geometry: Column(length=0, base=0, entries=())"),
    (lambda: Column(2, 3, ()),
     "bad column geometry: Column(length=2, base=3, entries=())"),
    (lambda: Column(3, 1, (1,)),
     "column must be fully filled: Column(length=3, base=1, entries=(1,))"),
    (lambda: Column(2, 1, [0]),
     "entries must be positive: Column(length=2, base=1, entries=[0])"),
    (lambda: BoxMove(2, 1, 5, 2, 0, 1),
     "need u < v, r > s and nonnegative source columns: "
     "BoxMove(u=2, v=1, r=5, s=2, source_column_u=0, source_column_v=1)"),
    (lambda: Picket(3, 4), "need 0 <= m <= n with n positive: Picket(n=3, m=4)"),
    (lambda: Pole([], (1,)),
     "layers must be nonempty and nonnegative: Pole(layers=[], ambient=(1,))"),
    (lambda: Pole([2, 2], [3]),
     "layers must be strictly increasing: Pole(layers=[2, 2], ambient=[3])"),
    (lambda: Pole([0, 3], [3, 0]),
     "ambient too small for top layer: Pole(layers=(0, 3), ambient=(3,))"),
    (lambda: ExtendedPole(None), "an extended pole needs a pole or empty pickets"),
])
def test_check_messages(build, message):
    if message is None:  # trailing zeros are dropped, not refused
        assert build() == Shape((1,), (2,), (1,))
        return
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
