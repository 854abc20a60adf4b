from collections import Counter

import pytest

import boxmoves_reference as ref
import lrlab.boxmoves as bm
import lrlab.tableaux as tb
from conftest import iter_all_shapes, iter_strip_shapes
from lrlab.boxmoves import (BoxMove, apply_move, box_leq, box_successors,
                            dom_to_box_chain, dom_to_box_step, hasse,
                            relation_matrix)
from lrlab.tableaux import (Column, LRTableau, Shape, dominance_leq,
                            enumerate_tableaux, from_word, is_horizontal_strip,
                            reading_word)

ALGO = Shape((3, 2, 1), (6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1))
RUNNING = Shape((3, 2), (4, 3, 3, 2, 1), (3, 2, 2, 1))
# the 35- and 90-tableau shapes of the benchmark's cli workload
MID = Shape((3, 2, 1, 1), (7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1))
BIG = Shape((4, 2, 1, 1), (8, 7, 6, 5, 4, 3, 2, 1), (7, 6, 5, 4, 3, 2, 1))


def test_figure_pair_reachable():
    shape = Shape((3, 2), (5, 4, 3, 2, 1), (4, 3, 2, 1))
    low = from_word(shape, (2, 1, 3, 2, 1))
    high = from_word(shape, (3, 2, 2, 1, 1))
    assert box_leq(low, high)
    assert not box_leq(high, low)
    assert box_leq(low, low)


def test_running_example_incomparable():
    t1, t2 = enumerate_tableaux(RUNNING)
    assert not box_leq(t1, t2)
    assert not box_leq(t2, t1)
    assert box_successors(t1) == []
    assert box_successors(t2) == []


def test_single_value_has_no_successors():
    shape = Shape((1, 1), (3, 2), (2, 1))
    for t in enumerate_tableaux(shape):
        assert box_successors(t) == []


def test_non_horizontal_strip_rejected():
    t = enumerate_tableaux(Shape((2,), (3,), (1,)))[0]
    with pytest.raises(ValueError):
        box_successors(t)


def test_bad_move_rejected():
    shape = Shape((2, 1), (5, 2, 1), (4, 1))
    low = from_word(shape, (1, 2, 1))
    with pytest.raises(ValueError):
        BoxMove(2, 1, 5, 2, 0, 1)  # u must be smaller
    with pytest.raises(ValueError):
        apply_move(low, BoxMove(1, 2, 5, 1, 0, 2))  # wrong source cells


def test_negative_source_columns_rejected():
    # a negative index would silently pick a column counted from the right
    with pytest.raises(ValueError, match="nonnegative"):
        BoxMove(1, 2, 5, 1, -3, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        BoxMove(1, 2, 5, 1, 0, -1)


def _candidate_moves(t):
    """Every ordered pair of columns holding u < v in rows r > s."""
    for i, ci in enumerate(t.columns):
        for j, cj in enumerate(t.columns):
            if (ci.entries and cj.entries and ci.entries[0] < cj.entries[0]
                    and ci.length > cj.length):
                yield BoxMove(ci.entries[0], cj.entries[0], ci.length, cj.length, i, j)


def test_local_check_matches_full_validation(strip_tableaux_12):
    ts = [t for group in strip_tableaux_12.values() for t in group]
    ts += [t for shape in (RUNNING, ALGO, MID, BIG) for t in enumerate_tableaux(shape)]
    outcomes = Counter()
    for t in ts:
        for move in _candidate_moves(t):
            try:
                want = ref.apply_move(t, move)
            except ValueError:
                want = None
            got = bm._moved_columns(t.columns, move)
            swapped = list(t.columns)
            swapped[move.source_column_u] = Column(move.r, move.r - 1, (move.v,))
            swapped[move.source_column_v] = Column(move.s, move.s - 1, (move.u,))
            resorted = sorted(swapped, key=Column.sort_key) != swapped
            outcomes[want is not None, resorted] += 1
            if want is None:
                assert got is None, (t, move)
                with pytest.raises(ValueError, match="lattice"):
                    apply_move(t, move)
                continue
            assert got == want.columns, (t, move)
            moved = apply_move(t, move)
            assert moved == want and moved.shape == want.shape
    # (legal, re-sorted after the swap): both outcomes occur on column ties
    assert outcomes == {(True, False): 1016, (True, True): 59,
                        (False, False): 296, (False, True): 1}


def test_word_algorithm_example():
    low = from_word(ALGO, (1, 3, 2, 2, 1, 1))
    high = from_word(ALGO, (2, 3, 2, 1, 1, 1))
    assert reading_word(dom_to_box_step(low, high, pick_l=3)) == (2, 3, 1, 2, 1, 1)
    assert dom_to_box_step(low, high, pick_l=1) == low
    with pytest.raises(ValueError):
        dom_to_box_step(low, high, pick_l=2)  # position 2 holds 3, not y=2
    chain = dom_to_box_chain(low, high)
    assert chain[0] == low and chain[-1] == high and len(chain) == 2


def test_step_preconditions():
    low = from_word(ALGO, (1, 3, 2, 2, 1, 1))
    high = from_word(ALGO, (2, 3, 2, 1, 1, 1))
    with pytest.raises(ValueError):
        dom_to_box_step(high, low)  # not dominance-increasing
    with pytest.raises(ValueError):
        dom_to_box_step(low, low)  # not strict
    t1, t2 = enumerate_tableaux(RUNNING)  # not a vertical strip
    with pytest.raises(ValueError):
        dom_to_box_step(t1, t2)


def test_moves_are_inverse_pairs():
    for shape in iter_strip_shapes(9):
        for t in enumerate_tableaux(shape):
            for t2, move in box_successors(t):
                assert apply_move(t, move) == t2
                assert t2.shape == t.shape


def test_box_implies_dominance_exhaustive():
    for shape in iter_strip_shapes(9):
        for t in enumerate_tableaux(shape):
            for t2, _ in box_successors(t):
                assert dominance_leq(t, t2) and t != t2
                assert not dominance_leq(t2, t)


def test_dom_equals_box_on_double_strips():
    for shape in iter_strip_shapes(10, need_vertical=True):
        ts = enumerate_tableaux(shape)
        for a in ts:
            for b in ts:
                assert box_leq(a, b) == dominance_leq(a, b)


def test_chain_construction_exhaustive():
    for shape in iter_strip_shapes(10, need_vertical=True):
        ts = enumerate_tableaux(shape)
        for a in ts:
            for b in ts:
                if a != b and dominance_leq(a, b):
                    chain = dom_to_box_chain(a, b)
                    assert chain[0] == a and chain[-1] == b
                    for lo, hi in zip(chain, chain[1:]):
                        assert hi in [t for t, _ in box_successors(lo)]


def test_step_fixes_covering_pairs():
    # on a covering pair the only tableau between the two in dominance is
    # the bottom one, so the descent step must return it
    for shape in iter_strip_shapes(10, need_vertical=True):
        ts = enumerate_tableaux(shape)
        diagram = hasse(ts, "dom")
        for i, j in diagram.edges:
            assert dom_to_box_step(ts[i], ts[j]) == ts[i]


def test_hasse_three_chain():
    ts = enumerate_tableaux(Shape((3, 1), (4, 3, 2, 1), (3, 2, 1)))
    diagram = hasse(ts, "dom")
    assert diagram.edges == [(0, 1), (1, 2)]
    dot = diagram.to_dot()
    assert "n0 -> n1" in dot and "digraph dom" in dot
    data = diagram.to_json()
    assert data["edges"] == [[0, 1], [1, 2]]


def test_hasse_no_edges_cases():
    single = enumerate_tableaux(Shape((1,), (2, 1), (2,)))
    assert hasse(single, "dom").edges == []
    two = enumerate_tableaux(RUNNING)
    assert hasse(two, "box").edges == []
    with pytest.raises(ValueError):
        relation_matrix(two, "ext")


def test_relation_matrix_agrees_with_hasse_closure():
    ts = enumerate_tableaux(Shape((2, 1, 1), (4, 3, 2, 1), (3, 2, 1)))
    dom = relation_matrix(ts, "dom")
    box = relation_matrix(ts, "box")
    for i in range(len(ts)):
        for j in range(len(ts)):
            if box[i][j]:
                assert dom[i][j]


def _matches_reference(ts, relation):
    want = ref.relation_matrix(ts, relation)
    assert relation_matrix(ts, relation) == want
    assert hasse(ts, relation).edges == ref.hasse_of(ts, want, relation).edges


def test_orders_and_hasse_match_reference_on_all_small_shapes():
    # the box order exists only on horizontal strips
    for shape in iter_all_shapes(10):
        ts = enumerate_tableaux(shape)
        _matches_reference(ts, "dom")
        if is_horizontal_strip(shape.beta, shape.gamma):
            _matches_reference(ts, "box")


@pytest.mark.parametrize("shape", [MID, BIG], ids=["35", "90"])
@pytest.mark.parametrize("relation", ["dom", "box"])
def test_orders_and_hasse_match_reference_on_benchmark_shapes(shape, relation):
    _matches_reference(enumerate_tableaux(shape), relation)


def test_dom_matrix_refuses_mixed_shapes():
    ts = enumerate_tableaux(RUNNING) + enumerate_tableaux(ALGO)[:1]
    with pytest.raises(ValueError, match="shape mismatch"):
        relation_matrix(ts, "dom")


@pytest.mark.parametrize("count", [35, 3])
def test_box_matrix_expands_each_tableau_once(monkeypatch, count):
    # every tableau reached has the shape, so it is among ``ts``
    ts = enumerate_tableaux(MID)
    nodes = ts[:count]
    reached = {b for b in ts if any(box_leq(a, b) for a in nodes)}
    calls = Counter()

    def counted(t):
        calls[t] += 1
        return box_successors(t)

    monkeypatch.setattr(bm, "box_successors", counted)
    relation_matrix(nodes, "box")
    assert calls == Counter(reached)


def test_moves_build_no_validated_tableau(monkeypatch, strip_tableaux_12):
    # a move keeps the shape, so its result comes from the known-shape path
    ts = [t for group in strip_tableaux_12.values() for t in group]
    monkeypatch.setattr(tb, "validate", lambda t: pytest.fail("validate called"))
    monkeypatch.setattr(LRTableau, "__init__",
                        lambda self, cols: pytest.fail("LRTableau built"))
    results = [(t, t2, move) for t in ts for t2, move in box_successors(t)]
    assert [apply_move(t, move) for t, _, move in results] == [t2 for _, t2, _ in results]
    monkeypatch.undo()
    assert len(results) == 482
    for t, t2, _ in results:
        rebuilt = LRTableau(t2.columns)
        assert rebuilt == t2 and rebuilt.shape == t2.shape and tb.validate(t2).ok
