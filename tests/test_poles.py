import random
from itertools import product

import pytest

import tableaux_reference as ref
from conftest import iter_strip_shapes, random_pole
from lrlab.boxmoves import box_successors
from lrlab.errors import InvariantViolation
import lrlab.tableaux as tb
from lrlab.poles import (ExtendedPole, Picket, Pole, _check_partition_properties,
                         _pick_with_detour, box_move_pole_partition,
                         empty_tableau, minimal_ambient, picket_tableau,
                         pole_decomposition, pole_of_tableau, pole_pieces,
                         pole_tableau, split_off_pole, tableau_union)
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


@pytest.mark.parametrize("message", TAMPERS)
def test_partition_check_refuses_tampered_pieces(message):
    low = from_word(EDGE_SHAPE, (1, 2, 1, 1))
    high = from_word(EDGE_SHAPE, (2, 1, 1, 1))
    move = next(m for t2, m in box_successors(low) if t2 == high)
    parts = dict(zip(("g1", "g2", "g3", "g1t", "g2t"),
                     box_move_pole_partition(low, high, move)), low=low, high=high)
    assert parts["g3"].columns == (Column(1, 0, (1,)),)
    tampered = {**parts, **{k: parts.get(v, v) for k, v in TAMPERS[message].items()}}
    with pytest.raises(InvariantViolation, match=message):
        _check_partition_properties(tampered["low"], tampered["high"], move, *(
            tampered[k] for k in ("g1", "g2", "g3", "g1t", "g2t")))


def _scan_outcome(scan, *args):
    try:
        return scan(*args)
    except InvariantViolation as exc:
        return str(exc)


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
                        got = _scan_outcome(_pick_with_detour, *args)
                        assert got == _scan_outcome(ref.pick_with_detour, *args)
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
        got = _scan_outcome(_pick_with_detour, *args)
        assert got == _scan_outcome(ref.pick_with_detour, *args), args
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
