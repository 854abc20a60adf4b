"""Test-only references: a box move that rebuilds and fully validates
its result, the per-pair dominance matrix, the per-source breadth-first
box reachability and the cubic transitive reduction.

``lrlab.boxmoves`` replaced them by a local lattice check, one key per
tableau, one successor graph per call and bitmask intervals with the same
answers; the cross-checks in ``test_boxmoves.py`` compare the two.
"""

from __future__ import annotations

from collections import deque

from lrlab.boxmoves import HasseDiagram, box_successors
from lrlab.tableaux import Column, LRTableau, dominance_leq, validate


def apply_move(t, move):
    """Swap the two entries of ``move``, re-sort, rebuild and validate."""
    cols = list(t.columns)
    cu, cv = cols[move.source_column_u], cols[move.source_column_v]
    if cu.entries != (move.u,) or cu.length != move.r:
        raise ValueError(f"column {move.source_column_u} does not hold {move.u} in row {move.r}")
    if cv.entries != (move.v,) or cv.length != move.s:
        raise ValueError(f"column {move.source_column_v} does not hold {move.v} in row {move.s}")
    cols[move.source_column_u] = Column(cu.length, cu.base, (move.v,))
    cols[move.source_column_v] = Column(cv.length, cv.base, (move.u,))
    t2 = LRTableau(cols)
    report = validate(t2)
    if not report.ok:
        raise ValueError(f"move yields an invalid tableau: {report.violations}")
    return t2


def relation_matrix(nodes, relation):
    if relation == "dom":
        return [[dominance_leq(a, b) for b in nodes] for a in nodes]
    if relation == "box":
        reach = []
        for a in nodes:
            seen = {a}
            queue = deque([a])
            while queue:
                for nxt, _ in box_successors(queue.popleft()):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            reach.append(seen)
        return [[b in reach[i] for b in nodes] for i in range(len(nodes))]
    raise ValueError(f"unknown relation {relation!r}")


def hasse_of(nodes, leq, relation) -> HasseDiagram:
    """Transitive reduction of the order ``leq`` by a search for a node
    strictly between every strictly comparable pair."""
    n = len(nodes)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j] or leq[j][i]:
                continue
            if any(k not in (i, j) and leq[i][k] and leq[k][j] and not leq[k][i]
                   and not leq[j][k] for k in range(n)):
                continue
            edges.append((i, j))
    return HasseDiagram(nodes, edges, relation)
