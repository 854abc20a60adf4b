import shlex

import pytest

import lrlab.cli as cli
from conftest import iter_strip_shapes
from lrlab import linalg as la
from lrlab import witness
from lrlab.boxmoves import box_successors
from lrlab.errors import InvariantViolation
from lrlab.nilmod import direct_sum, realize_tableau, tableau_of_embedding
from lrlab.poles import box_move_pole_partition
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
                       match=r"\['middle_tableau', 'end_tableau'\]") as info:
        _verify(ws)
    # the message ends in one command naming the sequence's two tableaux
    command = str(info.value).split("; reproduce with: ")[1]
    assert "\n" not in command
    argv = shlex.split(command)
    assert argv[:2] == ["lrlab", "witness"]
    args = cli.build_parser().parse_args(argv[1:])
    assert cli._shape(args.shape) == low.shape
    assert from_word(low.shape, cli._word(args.frm)) == high
    assert from_word(low.shape, cli._word(args.to)) == low
    assert (args.move, args.prime) == (f"{move.u},{move.v}", 2)


def test_verify_refuses_tampered_maps():
    # every map check of the report fails on some broken iota or pi
    low, high, move = nine_column_pair()
    ws = witness_sequence(low, high, move, 3)
    iota, pi = ws.iota, ws.pi
    cases = [
        ([[0] * len(iota[0]) for _ in iota], pi, ["iota_injective"]),
        ([row[1:] + row[:1] for row in iota], pi,
         ["iota_commutes", "iota_degree_zero", "iota_maps_subspace"]),
        (iota[:-1] + [[1] + iota[-1][1:]], pi, ["composition_zero", "iota_degree_zero"]),
        (iota, [[0] * len(pi[0]) for _ in pi], ["pi_surjective", "pi_onto_subspace"]),
        (iota, pi[1:] + pi[:1], ["pi_commutes", "pi_degree_zero", "pi_onto_subspace"]),
        (iota, [[int(x != 0) for x in row] for row in pi],
         ["composition_zero", "pi_onto_subspace"]),
    ]
    for ws.iota, ws.pi, failed in cases:
        ws.report = {}
        with pytest.raises(InvariantViolation) as info:
            _verify(ws)
        message, command = str(info.value).split("; reproduce with: ")
        assert message == f"witness verification failed: {failed}"
        assert command.startswith("lrlab witness '")


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


def test_common_part_matches_a_direct_sum(monkeypatch):
    """Xt, Y and the maps are those of the construction that realized the
    common part G3 alone (``realize_tableau``) and direct-summed it onto
    the sub and middle terms, with iota the identity on it."""
    edges = [(t, t2, move) for shape in iter_strip_shapes(9)
             for t in enumerate_tableaux(shape) for t2, move in box_successors(t)]
    for p in (2, 3):
        new = [witness_sequence(t, t2, move, p) for t, t2, move in edges]
        with monkeypatch.context() as m:  # the sequences without G3, unverified
            m.setattr(witness, "pole_pieces", lambda columns: [])
            m.setattr(witness, "_verify", lambda ws: None)
            bare = [witness_sequence(t, t2, move, p) for t, t2, move in edges]
        summed = 0
        for (t, t2, move), ws, old in zip(edges, new, bare):
            g3 = box_move_pole_partition(t, t2, move)[2]
            if g3.columns:
                U = realize_tableau(g3, p)
                pad, n = [0] * U.B.dim, old.xt.B.dim
                old.xt, old.y = direct_sum(old.xt, U), direct_sum(old.y, U)
                old.iota = ([row + pad for row in old.iota]
                            + [[0] * n + list(e) for e in la.identity(U.B.dim)])
                old.pi = [row + pad for row in old.pi]
                summed += 1
            assert (ws.xt.to_json(), ws.y.to_json(), ws.zt.to_json()) == \
                (old.xt.to_json(), old.y.to_json(), old.zt.to_json())
            assert (ws.iota, ws.pi) == (old.iota, old.pi)
        assert 0 < summed < len(edges)
