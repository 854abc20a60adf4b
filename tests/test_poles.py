import json
import random
import re
from itertools import product

import pytest

import poles_reference
import tableaux_reference as ref
from conftest import iter_strip_shapes, random_pole
import lrlab.cli as cli
import lrlab.poles as poles
from lrlab.boxmoves import box_successors
from lrlab.errors import InvariantViolation
import lrlab.tableaux as tb
from lrlab.poles import (ExtendedPole, Picket, Pole, _check_partition,
                         _pick_with_detour, box_move_pole_partition,
                         empty_tableau, minimal_ambient, picket_tableau,
                         pole_decomposition, pole_of_tableau, pole_partition_columns,
                         pole_pieces, pole_tableau, split_off_pole, tableau_union)
from lrlab.tableaux import (Column, LRTableau, Shape, enumerate_tableaux,
                            from_word, is_horizontal_strip, validate)


def test_picket_tableaux():
    assert picket_tableau(Picket(5, 2)).columns == (Column(5, 3, (1, 2)),)
    assert picket_tableau(Picket(4, 0)).columns == (Column(4, 4, ()),)
    assert picket_tableau(Picket(3, 3)).columns == (Column(3, 0, (1, 2, 3)),)
    with pytest.raises(ValueError):
        Picket(3, 4)


def test_pole_invariants():
    with pytest.raises(ValueError):
        Pole((2, 2), (3,))
    with pytest.raises(ValueError):
        Pole((), (1,))
    with pytest.raises(ValueError):
        Pole((3,), (3,))  # ambient too short for layer 3


def test_pole_tableau_examples():
    t = pole_tableau(Pole((0, 2, 3, 6), (7, 4, 1)))
    assert t.chain == ((6, 2), (6, 2, 1), (6, 3, 1), (6, 4, 1), (7, 4, 1))
    for n in range(1, 6):
        for m in range(1, n + 1):
            assert pole_tableau(Pole(tuple(range(n - m, n)), (n,))) == \
                picket_tableau(Picket(n, m))
    t = pole_tableau(Pole((0, 1, 3), (4, 2)))
    assert set(t.columns) == {Column(4, 3, (3,)), Column(2, 0, (1, 2))}


def test_pole_tableau_ambient_errors():
    with pytest.raises(ValueError):
        pole_tableau(Pole((0, 2), (3,)))  # needs a column of length exactly 1


def test_pole_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        pole = random_pole(rng)
        assert pole_of_tableau(pole_tableau(pole)) == pole


def test_minimal_ambient():
    assert minimal_ambient((0, 2, 3, 6)) == (7, 4, 1)
    assert minimal_ambient((0, 1, 2)) == (3,)
    assert minimal_ambient((1, 3)) == (4, 2)


def test_union_neutral_and_commutative():
    t = pole_tableau(Pole((0, 2), (3, 1)))
    e = empty_tableau((2,))
    u = tableau_union(t, e)
    assert u.shape.beta == (3, 2, 1)
    assert tableau_union(t, e) == tableau_union(e, t)


def test_union_is_tableau_of_sum_exhaustive():
    shapes = list(iter_strip_shapes(6))
    rng = random.Random(5)
    pool = [t for sh in shapes for t in enumerate_tableaux(sh)]
    for _ in range(300):
        a, b = rng.choice(pool), rng.choice(pool)
        u = tableau_union(a, b)
        assert validate(u).ok
        for i, part in enumerate(u.chain):
            ca = a.chain[min(i, len(a.chain) - 1)]
            cb = b.chain[min(i, len(b.chain) - 1)]
            assert part == tuple(sorted(ca + cb, reverse=True))


def test_split_off_single_column():
    t = pole_tableau(Pole((2,), (3,)))  # one column, entry 1 in row 3
    extracted, rest = split_off_pole(t)
    assert extracted == t
    assert rest.columns == ()


def test_split_off_errors():
    with pytest.raises(ValueError):
        split_off_pole(empty_tableau((3, 1)))
    not_strip = picket_tableau(Picket(4, 2))
    assert not is_horizontal_strip(not_strip.shape.beta, not_strip.shape.gamma)
    with pytest.raises(ValueError):
        split_off_pole(not_strip)


def test_pole_pieces_match_the_scan_over_column_records():
    # the scan on the list of single entries against the one that
    # searched the column records for each pick, on every strip with
    # |beta| <= 10
    strips = 0
    for shape in iter_strip_shapes(10):
        for t in enumerate_tableaux(shape):
            assert pole_pieces(t.columns) == poles_reference.pole_pieces(t.columns), t
            strips += 1
    assert strips > 1500


def test_scan_never_picks_a_longer_column():
    # a column of two entries is no pole column: the scan skips it, but it
    # still counts as holding an entry and may set the top, as it did
    # when each pick searched the column records
    long = Column(3, 1, (2, 3))
    for cols in ([Column(2, 1, (1,)), long], [long, Column(2, 1, (2,)), Column(1, 0, (1,))],
                 [long]):
        got = _scan_outcome(lambda: pole_pieces(cols))
        assert got == _scan_outcome(lambda: poles_reference.pole_pieces(cols)), cols
        assert isinstance(got, str) and got.startswith("no column with entry 2"), got


def test_pole_pieces_match_split_off_reference():
    # the column scan against splits of LRTableau remainders by the
    # two-copy scan
    for shape in iter_strip_shapes(9):
        for t in enumerate_tableaux(shape):
            assert pole_pieces(t.columns) == ref.pole_pieces(t), t
            assert split_off_pole(t) == ref.split_off_pole(t), t


def test_decomposition_reassembles_exhaustive():
    for shape in iter_strip_shapes(9):
        for t in enumerate_tableaux(shape):
            parts = pole_decomposition(t)
            assert parts
            merged = parts[0].tableau()
            for ep in parts[1:]:
                merged = tableau_union(merged, ep.tableau())
            assert merged == t
            for ep in parts:
                if ep.pole is not None:
                    cols = pole_tableau(ep.pole).columns
                    lengths = [c.length for c in cols]
                    assert lengths == sorted(lengths, reverse=True)
                    assert len(set(lengths)) == len(lengths)


def test_extended_pole_requires_content():
    with pytest.raises(ValueError):
        ExtendedPole(None, ())


def test_decomposition_of_empty_tableau():
    parts = pole_decomposition(empty_tableau((3, 1)))
    assert len(parts) == 1
    assert parts[0].pole is None
    assert parts[0].empty_pickets == (3, 1)
    assert pole_decomposition(LRTableau([])) == []


def test_pole_partition_properties_exhaustive():
    for shape in iter_strip_shapes(9):
        for t in enumerate_tableaux(shape):
            for t2, move in box_successors(t):
                g1, g2, g3, g1t, g2t = box_move_pole_partition(t, t2, move)
                # reassembly is asserted inside; spot-check the interfaces
                assert pole_of_tableau(g1).layers
                assert pole_of_tableau(g2t).layers


def _edges(max_weight):
    for shape in iter_strip_shapes(max_weight):
        for t in enumerate_tableaux(shape):
            for t2, move in box_successors(t):
                yield t, t2, move


def test_pole_partition_never_rebuilds_from_chains(monkeypatch):
    edges = list(_edges(10))
    monkeypatch.setattr(tb, "from_chain", lambda chain: pytest.fail("from_chain called"))
    for t, t2, move in edges:
        box_move_pole_partition(t, t2, move)


def test_column_core_matches_the_tableau_reference():
    # the same five column tuples as the LRTableau pieces the partition
    # was built and re-validated as, on every box-move edge with |beta| <= 10
    edges = 0
    for t, t2, move in _edges(10):
        want = tuple(g.columns for g in poles_reference.box_move_pole_partition(t, t2, move))
        assert pole_partition_columns(t, t2, move) == want, (t, t2, move)
        assert box_move_pole_partition(t, t2, move) == tuple(map(LRTableau, want))
        edges += 1
    assert edges > 80  # 92


def test_column_unions_match_chain_unions():
    # the partition check compares sorted column tuples; on these strips
    # that is the stagewise chain union of ``tableau_union``
    for t, t2, move in _edges(10):
        g1, g2, g3, g1t, g2t = box_move_pole_partition(t, t2, move)
        for parts, whole in (((g1, g2, g3), t), ((g1t, g2t, g3), t2)):
            core = tableau_union(parts[0], parts[1])
            assert core == LRTableau(parts[0].columns + parts[1].columns)
            merged = tableau_union(core, g3) if g3.columns else core
            assert merged == whole == LRTableau([c for g in parts for c in g.columns])


# low = g1 U g2 U g3 and high = g1t U g2t U g3 on one box move (u, v, r, s) =
# (1, 2, 3, 2); each tamper breaks one checked property of that partition
EDGE_SHAPE = Shape((2, 1, 1), (3, 2, 1, 1), (2, 1))
TAMPERS = {
    r"property \(1\) fails for g1": {"g1": empty_tableau((3,))},
    r"property \(2\)": {"g3": picket_tableau(Picket(3, 2))},
    "differ in 0 columns": {"g1t": "g1"},
    "unexpected lengths": {"g1t": picket_tableau(Picket(1, 1))},
    r"property \(5\)": {"g1": "g1t", "g2": "g2t", "g1t": "g1", "g2t": "g2"},
    "lower tableau": {"low": "high"},
    "upper tableau": {"high": "low"},
}


PIECES = ("g1", "g2", "g3", "g1t", "g2t")


def _edge():
    low = from_word(EDGE_SHAPE, (1, 2, 1, 1))
    high = from_word(EDGE_SHAPE, (2, 1, 1, 1))
    return low, high, next(m for t2, m in box_successors(low) if t2 == high)


def _refusal(check, *args) -> str:
    with pytest.raises(InvariantViolation) as info:
        check(*args)
    return str(info.value)


@pytest.mark.parametrize("message", TAMPERS)
def test_partition_check_refuses_tampered_pieces(message):
    # the column check raises what the tableau reference raises
    low, high, move = _edge()
    parts = dict(zip(PIECES, box_move_pole_partition(low, high, move)), low=low, high=high)
    assert parts["g3"].columns == (Column(1, 0, (1,)),)
    tampered = {**parts, **{k: parts.get(v, v) for k, v in TAMPERS[message].items()}}
    want = _refusal(poles_reference.check_partition_properties, tampered["low"],
                    tampered["high"], move, *(tampered[k] for k in PIECES))
    assert re.search(message, want)
    got = _refusal(_check_partition, tampered["low"], tampered["high"], move,
                   *(tampered[k].columns for k in PIECES))
    assert got == want


# columns whose bases do not weakly decrease in their sorted order: no skew
# diagram, so no LRTableau, for a piece with one entry per column and for one
# with a blank column
NOT_SKEW = {"g1": (Column(3, 1, (1, 2)), Column(2, 2, ())),
            "g3": (Column(2, 0, (1, 2)), Column(1, 1, ()))}


@pytest.mark.parametrize("piece", PIECES)
def test_partition_check_refuses_pieces_that_are_no_skew_diagram(monkeypatch, capsys,
                                                                   piece):
    """A tampered piece of no skew diagram is a failed check (exit code 1),
    not the ``ValueError`` of building it as a tableau (exit code 2)."""
    bad = NOT_SKEW["g3" if piece == "g3" else "g1"]
    with pytest.raises(ValueError, match="skew diagram"):
        LRTableau(bad)
    low, high, move = _edge()
    parts = dict(zip(PIECES, pole_partition_columns(low, high, move)), **{piece: bad})
    message = _refusal(_check_partition, low, high, move, *(parts[k] for k in PIECES))
    assert message == ("property (2) fails for the common part" if piece == "g3"
                       else f"property (1) fails for {piece}")

    check = poles._check_partition

    def tampered(t_low, t_high, move, *pieces):
        return check(t_low, t_high, move, *(bad if k == piece else g
                                            for k, g in zip(PIECES, pieces)))

    monkeypatch.setattr(poles, "_check_partition", tampered)
    argv = ["witness", json.dumps(EDGE_SHAPE.to_json()), "--from", "1,2,1,1",
            "--to", "2,1,1,1", "--move", f"{move.u},{move.v}"]
    assert cli.run(argv) == cli.EXIT_VERIFICATION
    assert f"verification failure: {message}; reproduce with: " in capsys.readouterr().err


def _tableau_verdicts(cols):
    """(property (1), property (2)) as the tableau reference decides them:
    build the tableau, validate it, test the strip and count the entries."""
    try:
        t = LRTableau(cols)
    except ValueError:
        return False, False
    strip = validate(t).ok and is_horizontal_strip(t.shape.beta, t.shape.gamma)
    return strip and all(c.entries for c in cols) and len(t.shape.alpha) <= 1, strip


def test_piece_checks_match_tableau_validation_on_random_columns():
    rng = random.Random(11)
    seen, poles_seen = set(), 0
    for _ in range(6000):
        cols = []
        for _ in range(rng.randint(0, 5)):
            n = rng.randint(1, 5)
            k = rng.choice((0, 1, 1, 1, 2)) if n > 1 else rng.randint(0, 1)
            cols.append(Column(n, n - k, tuple(sorted(rng.sample(range(1, 5), k)))))
        cols = tuple(sorted(cols, key=Column.sort_key))
        want = _tableau_verdicts(cols)
        assert (poles._is_pole_piece(cols), poles._is_strip(cols)) == want, cols
        seen.add(want)
        poles_seen += bool(cols) and want[0]
    assert seen == {(False, False), (False, True), (True, True)}
    assert poles_seen > 100


def _scan_outcome(scan, *args):
    try:
        return scan(*args)
    except InvariantViolation as exc:
        return str(exc)


def _singles(columns):
    """The single entries that ``poles._scan`` keeps beside its columns: 0
    for a blank column, -1 for a longer one."""
    return [(c.entries[0] if len(c.entries) == 1 else -1) if c.entries else 0
            for c in columns]


def _scan_outcomes(columns, *rest):
    """The one scan by ``_pick_with_detour``, by the scan it replaced
    (``poles_reference``) and by the two-copy reference."""
    return (_scan_outcome(_pick_with_detour, columns, _singles(columns), *rest),
            _scan_outcome(poles_reference._pick_with_detour, columns, *rest),
            _scan_outcome(ref.pick_with_detour, columns, *rest))


def test_scan_matches_two_copy_reference():
    # the scans box_move_pole_partition makes on every box-move edge,
    # started from each of the four (want_u, want_v) pairs and repeated
    # until the columns run out or a scan raises
    scans = 0
    for shape in iter_strip_shapes(10):
        for t in enumerate_tableaux(shape):
            for _, move in box_successors(t):
                c_u = Column(move.r, move.r - 1, (move.u,))
                c_v = Column(move.s, move.s - 1, (move.v,))
                cv_t = Column(move.r, move.r - 1, (move.v,))
                start = list(t.columns)
                start.remove(c_v)
                start = sorted(start + [cv_t], key=Column.sort_key)
                for want_u, want_v in product((False, True), repeat=2):
                    work = start
                    while any(c.entries for c in work):
                        args = (work, c_u, cv_t, c_v.sort_key(), want_u, want_v)
                        got, *want = _scan_outcomes(*args)
                        assert want == [got, got], args
                        scans += 1
                        if isinstance(got, str):
                            break
                        picked, flag = got
                        work = [c for i, c in enumerate(work) if i not in picked]
                        want_u, want_v = want_u and flag != "u", want_v and flag != "v"
    assert scans > 1000


def test_scan_matches_two_copy_reference_on_random_columns():
    # arbitrary one-box columns, special columns and gaps, so that the
    # failing searches and the second-special check are reached too
    rng = random.Random(7)
    raised = 0
    for _ in range(3000):
        cols = []
        for _ in range(rng.randint(1, 7)):
            n = rng.randint(1, 6)
            full = rng.random() < 0.8
            cols.append(Column(n, n - 1, (rng.randint(1, 4),)) if full else Column(n, n, ()))
        cols.sort(key=Column.sort_key)
        if not any(c.entries for c in cols):
            continue
        c_u, cv_t, gap = (rng.choice(cols) for _ in range(3))
        args = (cols, c_u, cv_t, gap.sort_key(), rng.random() < 0.7, rng.random() < 0.7)
        got, *want = _scan_outcomes(*args)
        assert want == [got, got], args
        raised += isinstance(got, str)
    assert raised > 100


def test_pole_partition_rejects_non_move():
    shape = Shape((2, 1), (5, 2, 1), (4, 1))
    ts = enumerate_tableaux(shape)
    (low, high) = ts
    move = next(m for t2, m in box_successors(low) if t2 == high)
    with pytest.raises(ValueError):
        box_move_pole_partition(high, low, move)


def test_common_part_gets_untouched_columns():
    # whenever the greedy scans never cross the moved columns, whole
    # extractions land in the common part; make sure that case occurs and
    # that the common part never contains a moved column
    found = False
    for shape in iter_strip_shapes(8):
        for t in enumerate_tableaux(shape):
            for t2, move in box_successors(t):
                g1, g2, g3, g1t, g2t = box_move_pole_partition(t, t2, move)
                c_u = Column(move.r, move.r - 1, (move.u,))
                c_v = Column(move.s, move.s - 1, (move.v,))
                spare = list(t.columns)
                spare.remove(c_u)
                spare.remove(c_v)
                for c in g3.columns:
                    assert c in spare
                    spare.remove(c)
                if any(c.entries for c in g3.columns):
                    found = True
    assert found
