import hashlib
import json
import random
import shlex

import pytest

import lrlab.cli as cli
import witness_reference
from conftest import iter_strip_shapes
from lrlab import linalg as la
from lrlab import nilmod, poles, witness
from lrlab.boxmoves import box_successors
from lrlab.errors import InvariantViolation
from lrlab.nilmod import (Embedding, NilModule, direct_sum, realize_tableau,
                          tableau_of_embedding)
from lrlab.poles import box_move_pole_partition, chain_union, pole_partition_columns
from lrlab.tableaux import (Column, LRTableau, Shape, enumerate_tableaux, from_word,
                            reading_word)
from lrlab.witness import _t_times, _times_t, _verify, witness_sequence


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


def _reproduced(message: str):
    """(low, high, "u,v", p) of the one ``lrlab witness`` command that a
    failure message ends in, read back through the CLI's parser."""
    command = message.split("; reproduce with: ")[1]
    assert "\n" not in command
    argv = shlex.split(command)
    assert argv[:2] == ["lrlab", "witness"]
    args = cli.build_parser().parse_args(argv[1:])
    shape = cli._shape(args.shape)
    return (from_word(shape, cli._word(args.frm)), from_word(shape, cli._word(args.to)),
            args.move, args.prime)


def test_verify_compares_both_tableaux():
    low, high, move = nine_column_pair()
    ws = witness_sequence(low, high, move, 2)
    ws.tableau_low, ws.tableau_high = high, low
    with pytest.raises(InvariantViolation,
                       match=r"\['middle_tableau', 'end_tableau'\]") as info:
        _verify(ws)
    # the message ends in one command naming the sequence's two tableaux
    assert _reproduced(str(info.value)) == (high, low, f"{move.u},{move.v}", 2)


def _tampered_maps(ws):
    """(iota, pi, the checks they fail) for six broken maps of ``ws``."""
    iota, pi = ws.iota, ws.pi
    return [
        ([[0] * len(iota[0]) for _ in iota], pi, ["iota_injective"]),
        ([row[1:] + row[:1] for row in iota], pi,
         ["iota_commutes", "iota_degree_zero", "iota_maps_subspace"]),
        (iota[:-1] + [[1] + iota[-1][1:]], pi, ["composition_zero", "iota_degree_zero"]),
        (iota, [[0] * len(pi[0]) for _ in pi], ["pi_surjective", "pi_onto_subspace"]),
        (iota, pi[1:] + pi[:1], ["pi_commutes", "pi_degree_zero", "pi_onto_subspace"]),
        (iota, [[int(x != 0) for x in row] for row in pi],
         ["composition_zero", "pi_onto_subspace"]),
    ]


def test_verify_refuses_tampered_maps():
    # every map check of the report fails on some broken iota or pi
    low, high, move = nine_column_pair()
    ws = witness_sequence(low, high, move, 3)
    for ws.iota, ws.pi, failed in _tampered_maps(ws):
        ws.report = {}
        with pytest.raises(InvariantViolation) as info:
            _verify(ws)
        message, command = str(info.value).split("; reproduce with: ")
        assert message == f"witness verification failed: {failed}"
        assert command.startswith("lrlab witness '")


def test_json_serializable():
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


def test_maps_by_generator_images_match_the_hand_indexed_reference():
    for shape in iter_strip_shapes(9):
        for t in enumerate_tableaux(shape):
            for t2, move in box_successors(t):
                for p in (2, 3):
                    ws = witness_sequence(t, t2, move, p)
                    iota, pi, Y = witness_reference.witness_maps(t, t2, move, p)
                    assert (ws.iota, ws.pi, ws.y.to_json()) == (iota, pi, Y.to_json())


def test_verify_refuses_the_s_block_image_without_its_shift(monkeypatch):
    """The block of length s in Xt sent to g_X^r + g_Z^s instead of
    T^{r-s} g_X^r + g_Z^s: g_X^r is not killed by T^s, so the map does
    not commute with T."""
    low, high, move = nine_column_pair()
    build = witness._map

    def mutant(images, sizes, n):
        return build([[(terms[0][0] - (move.r - move.s), 1), terms[1]]
                      if len(terms) == 2 else terms for terms in images], sizes, n)

    monkeypatch.setattr(witness, "_map", mutant)
    for p in (2, 3):
        with pytest.raises(InvariantViolation, match=r"failed: \[[^]]*'iota_commutes'"):
            witness_sequence(low, high, move, p)


@pytest.mark.parametrize("piece", [0, 1, 4], ids=["g1", "g2", "g2t"])
def test_repeated_column_lengths_in_a_piece_fail_verification(monkeypatch, capsys, piece):
    """Blocks are found by column length, so a pole piece whose lengths
    repeat is refused as a verification failure (exit code 1), not a
    missing key or index."""
    low, high, move = nine_column_pair()
    parts = list(pole_partition_columns(low, high, move))
    parts[piece] = (*parts[piece], parts[piece][-1])
    monkeypatch.setattr(witness, "pole_partition_columns", lambda *args: tuple(parts))
    with pytest.raises(InvariantViolation, match="column lengths repeat") as info:
        witness_sequence(low, high, move, 2)
    # the message ends in the command of the edge, as a failed verification does
    assert _reproduced(str(info.value)) == (low, high, f"{move.u},{move.v}", 2)
    words = [",".join(map(str, reading_word(t))) for t in (low, high)]
    shape = json.dumps(low.shape.to_json())
    argv = ["witness", shape, "--from", words[0], "--to", words[1],
            "--move", f"{move.u},{move.v}", "-p", "2"]
    assert cli.run(argv) == cli.EXIT_VERIFICATION
    assert "verification failure: column lengths repeat" in capsys.readouterr().err


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


def test_failed_partition_check_ends_in_the_reproducing_command(monkeypatch):
    low, high, move = nine_column_pair()
    monkeypatch.setattr(poles, "_is_pole_piece", lambda cols: False)
    for p in (2, 3):
        with pytest.raises(InvariantViolation) as info:
            witness_sequence(low, high, move, p)
        message = str(info.value)
        assert message.startswith("property (1) fails for g1; reproduce with: ")
        assert _reproduced(message) == (low, high, f"{move.u},{move.v}", p)


def _edges_small():
    return [(t, t2, move) for shape in iter_strip_shapes(9)
            for t in enumerate_tableaux(shape) for t2, move in box_successors(t)]


def _products_with_t(ws):
    """The four products of ``_verify``'s commutation checks, as gathers
    and as ``la.mul`` with the action matrices."""
    p, xt, y, zt = ws.y.p, ws.xt.B, ws.y.B, ws.zt.B
    iota, pi = ([[x % p for x in row] for row in m] for m in (ws.iota, ws.pi))
    return ([_times_t(iota, xt.sizes), _t_times(iota, y.sizes),
             _times_t(pi, y.sizes), _t_times(pi, zt.sizes)],
            [la.mul(iota, xt.action, p), la.mul(y.action, iota, p),
             la.mul(pi, y.action, p), la.mul(zt.action, pi, p)])


def test_gathers_match_products_with_the_action():
    seen = 0
    for t, t2, move in _edges_small():
        for p in (2, 3):
            ws = witness_sequence(t, t2, move, p)
            gathers, products = _products_with_t(ws)
            assert gathers == products
            seen += 1
    low, high, move = nine_column_pair()
    ws = witness_sequence(low, high, move, 3)
    for ws.iota, ws.pi, _ in _tampered_maps(ws):
        gathers, products = _products_with_t(ws)
        assert gathers == products
    # modules of dimension 0 and 1 and a few more, under random matrices
    rng = random.Random(5)
    for sizes in [(), (1,), (1, 1), (2,), (3, 1, 1), (2, 2, 1), (4, 3, 1, 1)]:
        B, n = NilModule(sizes, 3), sum(sizes)
        for m in (0, 1, 3):
            M = [[rng.randrange(3) for _ in range(n)] for _ in range(m)]
            assert _times_t(M, sizes) == la.mul(M, B.action, 3)
            M = [[rng.randrange(3) for _ in range(m)] for _ in range(n)]
            assert _t_times(M, sizes) == la.mul(B.action, M, 3)
    assert seen == 72


def test_witness_builds_no_tableau_and_multiplies_no_action(monkeypatch):
    """The fast path: the pole partition stays on column tuples, no
    module's action matrix is read, so no product is taken with one, and
    the end tableau is read off the summands without a direct sum.  The
    realization and its tableau read no action either."""
    monkeypatch.setattr(LRTableau, "__init__",
                        lambda *args: pytest.fail("LRTableau constructed"))
    monkeypatch.setattr(NilModule, "action",
                        property(lambda self: pytest.fail("action read")))
    for module in (nilmod, witness):
        monkeypatch.setattr(module, "direct_sum",
                            lambda *args: pytest.fail("direct sum built"), raising=False)
    with pytest.raises(pytest.fail.Exception, match="action read"):
        NilModule((2, 1), 2).action
    for t, t2, move in _edges_small():
        for p in (2, 3):
            assert all(witness_sequence(t, t2, move, p).report.values())
    monkeypatch.undo()
    tableaux = [t for shape in iter_strip_shapes(6) for t in enumerate_tableaux(shape)]
    monkeypatch.setattr(NilModule, "action",
                        property(lambda self: pytest.fail("action read")))
    for t in tableaux:
        for p in (2, 3):
            assert tableau_of_embedding(realize_tableau(t, p)) == t


def test_witness_op_takes_two_ranks_and_one_row_space(monkeypatch):
    """The linear algebra of one op: the ranks of iota (on its transpose)
    and of pi, and the echelon form of pi's image, each one ``rref``, so
    one ``extend`` each; no closure extends an echelon form, and none of
    Xt, Y and Zt derives its own."""
    calls = []
    for name in ("rank", "row_space", "rref", "extend"):
        monkeypatch.setattr(la, name, lambda *a, name=name, f=getattr(la, name):
                            calls.append(name) or f(*a))
    ops = 0
    for t, t2, move in _edges_small():
        for p in (2, 3):
            calls.clear()
            ws = witness_sequence(t, t2, move, p)
            assert sorted(calls) == ["extend"] * 3 + ["rank"] * 2 + ["row_space"] + ["rref"] * 3
            assert all(E._rref is None for E in (ws.xt, ws.y, ws.zt)), (t, t2, p)
            ops += 1
    assert ops == 72


def test_end_tableau_is_the_chain_of_the_direct_sum():
    """The union of the summands' chains, the shorter one padded, is the
    chain of the direct sum that ``_verify`` used to build: on every edge
    with |beta| <= 9, most of them with alpha_1 of Xt below that of Zt."""
    padded = 0
    for t, t2, move in _edges_small():
        for p in (2, 3):
            ws = witness_sequence(t, t2, move, p)
            a, b = ws.xt.chain(), ws.zt.chain()
            want = direct_sum(ws.xt, ws.zt).chain()
            assert chain_union(a, b) == chain_union(b, a) == want == t2.chain
            assert direct_sum(ws.zt, ws.xt).chain() == want
            padded += len(a) != len(b)
    assert padded == 70


def test_verify_refuses_a_wrong_zt_span():
    # Zt's span replaced by a cyclic subspace of the same dimension and
    # another chain: the end tableau no longer matches
    low, high, move = nine_column_pair()
    for p in (2, 3):
        ws = witness_sequence(low, high, move, p)
        zt = ws.zt
        ws.zt = Embedding(zt.B, [la.identity(zt.B.dim)[5]])
        assert ws.zt.dim_sub() == zt.dim_sub() and ws.zt.chain() != zt.chain()
        ws.report = {}
        with pytest.raises(InvariantViolation) as info:
            _verify(ws)
        message = str(info.value)
        assert message.startswith(
            "witness verification failed: ['pi_onto_subspace', 'end_tableau']; ")
        assert _reproduced(message) == (low, high, f"{move.u},{move.v}", p)


# sha256 over json.dumps(to_json(), sort_keys=True) of every witness sequence
# with |beta| <= 9, edge by edge, p = 2 then 3
WITNESS_DIGEST = "579f9339cb64f7ca96c3efd3ef3e3595c0f46da461e0b811c1466f6164a00d6f"


def test_witness_output_is_pinned():
    digest = hashlib.sha256()
    for t, t2, move in _edges_small():
        for p in (2, 3):
            ws = witness_sequence(t, t2, move, p)
            digest.update(json.dumps(ws.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == WITNESS_DIGEST
