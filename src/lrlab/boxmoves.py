"""Box moves between tableaux of a common horizontal-strip shape.

A box move exchanges two entries u < v sitting in rows r > s so that the
smaller entry moves up, the columns are re-sorted, and the result is again
a valid tableau.  The order they generate coincides with dominance when
the skew diagram is both a horizontal and a vertical strip; the
``dom_to_box_*`` functions realize that equivalence constructively.

On a horizontal strip each column holds at most one entry, in its bottom
row, and the re-sort keeps rows increasing, so a move keeps the shape, the
columns and the rows; a suffix of the result is one of the source plus at
most one u and minus at most one v, so ``_moved_columns`` decides the move
by the lattice comparisons of u - 1 with u and of v with v + 1 alone.
"""

from __future__ import annotations

from operator import le
from typing import Literal, Sequence

from . import tableaux as tb
from .errors import InvariantViolation
from .records import Record, setfield
from .tableaux import Column, LRTableau


class BoxMove(Record):
    """Exchange of entries u < v between rows r > s (rows in the source)."""

    __slots__ = ("u", "v", "r", "s", "source_column_u", "source_column_v")

    def __init__(self, u: int, v: int, r: int, s: int,
                 source_column_u: int, source_column_v: int):
        setfield(self, "u", u)
        setfield(self, "v", v)
        setfield(self, "r", r)
        setfield(self, "s", s)
        setfield(self, "source_column_u", source_column_u)
        setfield(self, "source_column_v", source_column_v)
        if not (u < v and r > s and min(source_column_u, source_column_v) >= 0):
            raise ValueError(f"need u < v, r > s and nonnegative source columns: {self}")


def _require_horizontal(t: LRTableau, what: str) -> None:
    if not tb.is_horizontal_strip(t.shape.beta, t.shape.gamma):
        raise ValueError(f"{what} is defined only for horizontal strips: {t.shape}")


def _moved_columns(columns: Sequence[Column], move: BoxMove) -> tuple[Column, ...] | None:
    """The canonical columns after ``move`` on a valid strip, or None if the lattice breaks."""
    cols = list(columns)
    for i, e, row in ((move.source_column_u, move.u, move.r),
                      (move.source_column_v, move.v, move.s)):
        if cols[i] != Column(row, row - 1, (e,)):
            raise ValueError(f"column {i} does not hold {e} in row {row}")
    cols[move.source_column_u] = Column(move.r, move.r - 1, (move.v,))
    cols[move.source_column_v] = Column(move.s, move.s - 1, (move.u,))
    cols.sort(key=Column.sort_key)
    du = dv = 0  # suffix counts of u - 1 minus u and of v minus v + 1
    for e in (e for c in reversed(cols) for e in c.entries):
        du += (e == move.u - 1) - (e == move.u)
        dv += (e == move.v) - (e == move.v + 1)
        if (move.u > 1 and du < 0) or dv < 0:
            return None
    return tuple(cols)


def apply_move(t: LRTableau, move: BoxMove) -> LRTableau:
    """Swap the two entries of ``move`` in the valid tableau ``t`` and
    re-sort; raises if the lattice comparisons a move can break fail."""
    _require_horizontal(t, "a box move")
    cols = _moved_columns(t.columns, move)
    if cols is None:
        raise ValueError(f"move {move} breaks the lattice condition")
    return tb._of_shape(cols, t.shape)


def box_successors(t: LRTableau) -> list[tuple[LRTableau, BoxMove]]:
    """All tableaux one box move above ``t``, sorted by reading word."""
    _require_horizontal(t, "box_successors")
    cells = [(i, c.entries[0], c.length) for i, c in enumerate(t.columns) if c.entries]
    seen: dict[tuple[Column, ...], BoxMove] = {}
    for move in (BoxMove(u, v, r, s, i, j) for i, u, r in cells for j, v, s in cells
                 if u < v and r > s):
        moved = _moved_columns(t.columns, move)
        if moved is not None:
            seen.setdefault(moved, move)
    return sorted(((tb._of_shape(c, t.shape), m) for c, m in seen.items()),
                  key=lambda pair: tb.reading_word(pair[0]))


def box_leq(t1: LRTableau, t2: LRTableau) -> bool:
    """Reachability of t2 from t1 by upward box moves."""
    if t1.shape != t2.shape:
        raise ValueError(f"shape mismatch: {t1.shape} vs {t2.shape}")
    _require_horizontal(t1, "box_leq")
    return t2 in _reach(t1, {}, {})


def _reach(a: LRTableau, successors: dict, same: dict) -> set[LRTableau]:
    """a and every tableau above it by upward box moves, depth first.

    ``successors`` maps each tableau walked to those one move above it and
    is filled by ``box_successors`` on first need, so walks that share it
    share that work; ``same`` maps each tableau to its one instance."""
    seen = {a}
    stack = [a]
    while stack:
        cur = stack.pop()
        if cur not in successors:
            successors[cur] = [same.setdefault(t, t) for t, _ in box_successors(cur)]
        for nxt in successors[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def move_between(low: LRTableau, high: LRTableau) -> BoxMove | None:
    """The unique move with apply_move(low, move) == high, if one exists."""
    for t2, move in box_successors(low):
        if t2 == high:
            return move
    return None


def dom_to_box_step(
    gamma: LRTableau, gamma_t: LRTableau, pick_l: int | None = None
) -> LRTableau:
    """One step of the word-rewriting descent from gamma_t toward gamma.

    Both tableaux must share a horizontal-and-vertical-strip shape with
    gamma strictly below gamma_t in dominance.  Returns a tableau one box
    move below gamma_t that still dominates gamma.  ``pick_l`` overrides
    the choice in the fourth step with an explicit 1-based word position;
    the default takes the smallest admissible position.
    """
    shape = gamma.shape
    if shape != gamma_t.shape:
        raise ValueError(f"shape mismatch: {shape} vs {gamma_t.shape}")
    if not (tb.is_horizontal_strip(shape.beta, shape.gamma)
            and tb.is_vertical_strip(shape.beta, shape.gamma)):
        raise ValueError(f"shape must be a horizontal and vertical strip: {shape}")
    if gamma == gamma_t or not tb.dominance_leq(gamma, gamma_t):
        raise ValueError("need gamma strictly below gamma_t in dominance")

    w = tb.reading_word(gamma)
    wt = list(tb.reading_word(gamma_t))
    k = next(i for i in range(len(w)) if w[i] != wt[i])
    x = w[k]
    m = next((i for i in range(k + 1, len(wt)) if wt[i] == x), None)
    if m is None:
        raise InvariantViolation(f"value {x} never reappears in {wt} after {k}")
    bigger = [wt[i] for i in range(k, m) if wt[i] > x]
    if not bigger:
        raise InvariantViolation(f"no entry above {x} in positions {k}..{m - 1} of {wt}")
    y = min(bigger)
    candidates = [i for i in range(k, m) if wt[i] == y]
    if pick_l is None:
        l = candidates[0]
    else:
        l = pick_l - 1
        if l not in candidates:
            raise ValueError(
                f"pick_l={pick_l} is not admissible; choices are "
                f"{[i + 1 for i in candidates]}"
            )
    wt[l], wt[m] = x, y
    result = tb.from_word(shape, wt)
    if not tb.dominance_leq(gamma, result):
        raise InvariantViolation("step output fails to dominate the lower tableau")
    if result != gamma_t and move_between(result, gamma_t) is None:
        raise InvariantViolation("step output is not one box move below the input")
    return result


def dom_to_box_chain(
    gamma: LRTableau, gamma_t: LRTableau, pick_l_first: int | None = None
) -> list[LRTableau]:
    """Box-move chain gamma = L_0 < L_1 < ... < L_n = gamma_t.

    Iterates :func:`dom_to_box_step` from the top; every consecutive pair
    of the returned chain differs by a single box move, which that step
    verifies.
    """
    if gamma.shape != gamma_t.shape:
        raise ValueError(f"shape mismatch: {gamma.shape} vs {gamma_t.shape}")
    if not tb.dominance_leq(gamma, gamma_t):
        raise ValueError("need gamma <= gamma_t in dominance")
    desc = [gamma_t]
    pick = pick_l_first
    while desc[-1] != gamma:
        desc.append(dom_to_box_step(gamma, desc[-1], pick_l=pick))
        pick = None
    return list(reversed(desc))


class HasseDiagram:
    """Covering relation of a named order on a fixed list of tableaux."""

    def __init__(self, nodes: Sequence[LRTableau], edges: list[tuple[int, int]],
                 relation: str):
        self.nodes = list(nodes)
        self.edges = sorted(edges)
        self.relation = relation

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "nodes": [list(tb.reading_word(t)) for t in self.nodes],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        def label(t):
            return ",".join(str(x) for x in tb.reading_word(t))

        lines = [f"digraph {self.relation} {{", "  rankdir=BT;"]
        for i, t in enumerate(self.nodes):
            lines.append(f'  n{i} [label="{label(t)}"];')
        for i, j in self.edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def relation_matrix(
    nodes: Sequence[LRTableau], relation: Literal["dom", "box"]
) -> list[list[bool]]:
    """Full <=-matrix of the chosen order on ``nodes``.

    Dominance compares one key per tableau: for each chain stage i and
    each r among the stage-i parts of all nodes, the number
    sum(min(x, r)) of boxes in the first r rows of stage i.
    ``natural_leq(p, q)`` asks that p's count never exceed q's, and the
    parts of p alone already decide that, so two tableaux compare by
    comparing their keys entry by entry.  The box order reads
    reachability off one successor graph, calling ``box_successors`` once
    per tableau reached.
    """
    if relation == "dom":
        for t in nodes:
            if t.shape != nodes[0].shape:
                raise ValueError(f"shape mismatch: {nodes[0].shape} vs {t.shape}")
        rs = [sorted(set().union(*stage)) for stage in zip(*(t.chain for t in nodes))]
        keys = [[sum(min(x, r) for x in part) for part, stage_rs in zip(t.chain, rs)
                 for r in stage_rs] for t in nodes]
        return [[all(map(le, a, b)) for b in keys] for a in keys]
    if relation == "box":
        successors: dict[LRTableau, list[LRTableau]] = {}
        # one instance per tableau, so set lookups match by identity
        same = {t: t for t in nodes}
        return [[b in above for b in nodes]
                for above in (_reach(a, successors, same) for a in nodes)]
    raise ValueError(f"unknown relation {relation!r}")


def hasse(nodes: Sequence[LRTableau], relation: Literal["dom", "box"]) -> HasseDiagram:
    """Transitive reduction of the chosen order restricted to ``nodes``.

    i -> j is an edge when j is strictly above i and no node lies strictly
    between, i.e. the bitmask of nodes strictly above i and that of nodes
    strictly below j share no bit.
    """
    leq = relation_matrix(nodes, relation)
    n = len(nodes)
    strict = [[leq[i][j] and not leq[j][i] for j in range(n)] for i in range(n)]
    above = [sum(1 << j for j in range(n) if strict[i][j]) for i in range(n)]
    below = [sum(1 << i for i in range(n) if strict[i][j]) for j in range(n)]
    edges = [(i, j) for i in range(n) for j in range(n)
             if strict[i][j] and not above[i] & below[j]]
    return HasseDiagram(nodes, edges, relation)
