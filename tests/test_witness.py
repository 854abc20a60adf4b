import pytest

from conftest import iter_strip_shapes
from lrlab.boxmoves import box_successors
from lrlab.errors import InvariantViolation
from lrlab.nilmod import tableau_of_embedding
from lrlab.tableaux import Column, LRTableau, Shape, enumerate_tableaux, from_word
from lrlab.witness import _verify, witness_sequence


def nine_column_pair():
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
    move = next(m for t2, m in box_successors(low) if t2 == high)
    return low, high, move


def test_large_example_verifies():
    low, high, move = nine_column_pair()
    for p in (2, 3):
        ws = witness_sequence(low, high, move, p)
        assert all(ws.report.values())
        assert tableau_of_embedding(ws.y) == low


def test_small_example_verifies():
    shape = Shape((2, 1), (5, 2, 1), (4, 1))
    low = from_word(shape, (1, 2, 1))
    high = from_word(shape, (2, 1, 1))
    move = next(m for t2, m in box_successors(low) if t2 == high)
    for p in (2, 3):
        ws = witness_sequence(low, high, move, p)
        assert all(ws.report.values())


def test_wrong_move_rejected():
    low, high, move = nine_column_pair()
    with pytest.raises(ValueError):
        witness_sequence(high, low, move, 2)


def test_verify_compares_both_tableaux():
    low, high, move = nine_column_pair()
    ws = witness_sequence(low, high, move, 2)
    ws.tableau_low, ws.tableau_high = high, low
    with pytest.raises(InvariantViolation,
                       match=r"\['middle_tableau', 'end_tableau'\]"):
        _verify(ws)


def test_json_serializable():
    import json

    low, high, move = nine_column_pair()
    ws = witness_sequence(low, high, move, 2)
    payload = json.dumps(ws.to_json())
    assert '"report"' in payload


def test_exhaustive_edges_small():
    for shape in iter_strip_shapes(9):
        for t in enumerate_tableaux(shape):
            for t2, move in box_successors(t):
                for p in (2, 3):
                    ws = witness_sequence(t, t2, move, p)
                    assert all(ws.report.values())
