"""The pole partition as ``lrlab.poles`` cut and checked it before it ran
on column tuples: five ``LRTableau`` pieces, built and then re-validated
by ``validate``, the strip test and the entry counts of their shapes; and
the split-off scan as it ran before it kept the columns' single entries
in a list, each pick a search over the column records.  Kept only so
tests can require the same pieces, and the same messages on tampered
pieces, from the column core ``pole_partition_columns`` and from
``pole_pieces``.
"""

from __future__ import annotations

from bisect import bisect_left

import lrlab.tableaux as tb
from lrlab.errors import InvariantViolation
from lrlab.tableaux import Column, LRTableau


def pole_pieces(columns) -> list[list[Column]]:
    """A horizontal strip's columns cut by repeated split-off scans: one
    group per pole, then the blank columns left over (possibly none)."""
    work = list(columns)
    return [group for group, _ in _scan(work)] + [work]


def _scan(work: list[Column], c_u=None, cv_t=None, missing_key=None):
    """Repeated split-off scans while ``work`` holds an entry: yields
    (group, flag) per scan and deletes the group from ``work``, leaving
    the blank columns.  ``c_u`` and ``cv_t``, when given, stay wanted
    until a scan flags them (see ``_pick_with_detour``)."""
    want_u, want_v = c_u is not None, cv_t is not None
    while any(c.entries for c in work):
        indices, flag = _pick_with_detour(
            work, c_u, cv_t, missing_key, want_u, want_v)
        group = [work[i] for i in indices]
        for i in sorted(indices, reverse=True):
            del work[i]
        want_u, want_v = want_u and flag != "u", want_v and flag != "v"
        yield group, flag


def _pick_with_detour(columns, c_u, cv_t, missing_key, want_u, want_v):
    """One split-off scan over ``columns``.

    Picks the first column holding the largest entry, then for each
    smaller value the first column holding it right of the last pick.
    When a pick is a still-wanted special column (the first one only),
    the next search starts at the removed column's position instead.
    Returns (indices, flag) with flag in {"u", "v", None}.  With nothing
    wanted it is the plain scan.
    """
    top = max(c.entries[0] for c in columns if c.entries)
    picked, flag = [], None
    start, gap = 0, False
    for e in range(top, 0, -1):
        nxt = next((i for i in range(start, len(columns))
                    if columns[i].entries == (e,)), None)
        if nxt is None:
            where = "the gap" if gap else f"position {start - 1}"
            raise InvariantViolation(f"no column with entry {e} right of {where}")
        picked.append(nxt)
        hit = ("u" if want_u and columns[nxt] == c_u else
               "v" if want_v and columns[nxt] == cv_t else None)
        if hit and flag:
            raise InvariantViolation("second special column in a detoured scan")
        flag, gap = flag or hit, hit is not None
        start = (bisect_left([c.sort_key() for c in columns], missing_key)
                 if gap else nxt + 1)
    return picked, flag


def box_move_pole_partition(
    t_low: LRTableau, t_high: LRTableau, move
) -> tuple[LRTableau, LRTableau, LRTableau, LRTableau, LRTableau]:
    """Partition the columns of a box-move pair into compatible pole tableaux.

    Returns (g1, g2, g3, g1t, g2t) with t_low = g1 U g2 U g3 and
    t_high = g1t U g2t U g3; g1/g1t differ in the one column holding u,
    g2/g2t in the one holding v, and g1t U g2t is one box move above
    g1 U g2.  All five stated properties are re-checked at runtime.
    """
    from lrlab.boxmoves import apply_move

    if apply_move(t_low, move) != t_high:
        raise ValueError("move does not carry the first tableau to the second")
    u, v, r, s = move.u, move.v, move.r, move.s
    c_u = Column(r, r - 1, (u,))
    c_v = Column(s, s - 1, (v,))
    cu_t = Column(s, s - 1, (u,))
    cv_t = Column(r, r - 1, (v,))

    work = list(t_low.columns)
    work.remove(c_v)
    work.append(cv_t)
    work.sort(key=Column.sort_key)

    g1 = g2t = None
    g3: list[Column] = []
    for group, flag in _scan(work, c_u, cv_t, c_v.sort_key()):
        if flag == "u":
            g1 = group
        elif flag == "v":
            g2t = group
        else:
            g3.extend(group)
    g3.extend(work)  # leftover empty columns

    if g1 is None or g2t is None:
        raise InvariantViolation("the moved columns were never extracted")

    def swap(records: list[Column], old: Column, new: Column) -> list[Column]:
        out = list(records)
        out[out.index(old)] = new
        return out

    gamma1 = LRTableau(g1)
    gamma1t = LRTableau(swap(g1, c_u, cu_t))
    gamma2t = LRTableau(g2t)
    gamma2 = LRTableau(swap(g2t, cv_t, c_v))
    gamma3 = LRTableau(g3)

    check_partition_properties(
        t_low, t_high, move, gamma1, gamma2, gamma3, gamma1t, gamma2t
    )
    return gamma1, gamma2, gamma3, gamma1t, gamma2t




def check_partition_properties(
    t_low, t_high, move, gamma1, gamma2, gamma3, gamma1t, gamma2t
) -> None:
    from lrlab.boxmoves import BoxMove, _moved_columns

    u, v, r, s = move.u, move.v, move.r, move.s

    def is_extended_pole_strip(t: LRTableau) -> bool:
        if not tb.is_horizontal_strip(t.shape.beta, t.shape.gamma):
            return False
        if any(not c.entries for c in t.columns):
            return False
        return len(t.shape.alpha) <= 1  # each entry occurs once

    for name, t in (("g1", gamma1), ("g2", gamma2), ("g1t", gamma1t), ("g2t", gamma2t)):
        if not tb.validate(t).ok or not is_extended_pole_strip(t):
            raise InvariantViolation(f"property (1) fails for {name}")
    if gamma3.columns and (
        not tb.validate(gamma3).ok
        or not tb.is_horizontal_strip(gamma3.shape.beta, gamma3.shape.gamma)
    ):
        raise InvariantViolation("property (2) fails for the common part")

    def one_column_diff(a: LRTableau, b: LRTableau, entry: int, lo: int, hi: int):
        ca, cb = list(a.columns), list(b.columns)
        for c in list(ca):
            if c in cb:
                ca.remove(c)
                cb.remove(c)
        if len(ca) != 1 or len(cb) != 1:
            raise InvariantViolation(f"tableaux differ in {len(ca)} columns, not one")
        if ca[0].entries != (entry,) or cb[0].entries != (entry,):
            raise InvariantViolation(f"differing columns do not hold {entry}")
        if {ca[0].length, cb[0].length} != {lo, hi}:
            raise InvariantViolation("differing columns have unexpected lengths")
        for t in (a, b):
            if any(lo < c.length < hi for c in t.columns):
                raise InvariantViolation("a column length lies strictly in between")

    one_column_diff(gamma1, gamma1t, u, s, r)
    one_column_diff(gamma2, gamma2t, v, s, r)

    def union(*parts: LRTableau) -> tuple[Column, ...]:
        return tuple(sorted((c for t in parts for c in t.columns), key=Column.sort_key))

    # by (1) g1 and g2 read as lattice words, and so does any merge of
    # them: the core is a valid strip, as the local check needs
    core = union(gamma1, gamma2)
    c_u, c_v = Column(r, r - 1, (u,)), Column(s, s - 1, (v,))
    if c_u not in core or c_v not in core or _moved_columns(core, BoxMove(
            u, v, r, s, core.index(c_u), core.index(c_v))) != union(gamma1t, gamma2t):
        raise InvariantViolation("property (5): primed unions not one move apart")

    if union(gamma1, gamma2, gamma3) != t_low.columns:
        raise InvariantViolation("partition does not reassemble the lower tableau")
    if union(gamma1t, gamma2t, gamma3) != t_high.columns:
        raise InvariantViolation("partition does not reassemble the upper tableau")
