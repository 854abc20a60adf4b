"""Test-only references: the generator search of ``enumerate_tableaux``,
the stage-growth ``from_chain``, the two-copy split-off scan, pole pieces
split off LRTableau remainders one scan at a time, the Pole round trip of
strip realization, which realizes each piece by the strip-only graded pole
of ``nilmod_reference``, and the vertical-strip test by transposition.

``lrlab`` replaced each by a smaller mechanism with the same answers; the
cross-checks in ``test_tableaux.py``, ``test_poles.py`` and
``test_nilmod.py`` compare the two.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

from lrlab import partitions as pt
from lrlab.errors import GuardExceeded, InvariantViolation, guard_budget
from lrlab.nilmod import Embedding, canonical_module, direct_sum
from lrlab.poles import pole_decomposition, pole_tableau
from lrlab.tableaux import (Column, LRTableau, Shape, _of_shape, is_horizontal_strip,
                            reading_word, validate)
from nilmod_reference import graded_pole_embedding


def enumerate_tableaux(shape: Shape) -> list[LRTableau]:
    """All LR tableaux of the shape, in lexicographic reading-word order.

    Backtracking over skew cells column by column, bottom up within a
    column, pruning on the row-weak, column-strict and entry-count
    conditions as cells are placed and on the lattice condition at each
    column boundary.  An |alpha| past ``LRLAB_GUARD`` raises
    ``GuardExceeded`` before the entry counts are built.
    """
    cells = shape.cells()
    size, budget = pt.weight(shape.alpha), guard_budget()
    if size > budget:
        raise GuardExceeded(f"|alpha| = {size} exceeds the guard of {budget};"
                            " raise LRLAB_GUARD to allow it")
    expected = pt.transpose(shape.alpha)
    s = len(expected)
    remaining = list(expected)
    row_left: dict[int, int] = {}  # last entry placed in each row so far
    out: list[LRTableau] = []
    acc: list[tuple[int, ...]] = []

    def lattice_ok() -> bool:
        return all(remaining[ell - 2] >= remaining[ell - 1] for ell in range(2, s + 1))

    def fill_column(ci: int) -> Iterator[None]:
        if ci == len(cells):
            yield None
            return
        length, base = cells[ci]
        ncells = length - base

        def place(j: int, below: int, picked: list[int]) -> Iterator[None]:
            # j counts cells from the bottom; the cell is in row length - j
            if j == ncells:
                if lattice_ok():
                    acc.append(tuple(reversed(picked)))
                    yield from fill_column(ci + 1)
                    acc.pop()
                return
            row = length - j
            lo = row_left.get(row, 0)
            hi = below - 1 if below else s
            for v in range(max(lo, 1), hi + 1):
                if remaining[v - 1] == 0:
                    continue
                remaining[v - 1] -= 1
                row_left[row] = v
                picked.append(v)
                yield from place(j + 1, v, picked)
                picked.pop()
                row_left[row] = lo
                remaining[v - 1] += 1

        yield from place(0, 0, [])

    for _ in fill_column(0):
        # row-weak rows already put equal-geometry columns in canonical order
        cols = tuple(Column(length, base, e) for (length, base), e in zip(cells, acc))
        out.append(_of_shape(cols, shape))
    out.sort(key=reading_word)
    return out


def from_chain(chain) -> LRTableau:
    """Grow the columns stage by stage: in each row that gains boxes, the
    leftmost ungrown columns of the right length (canonical order) grow."""
    chain = [pt.partition(c) for c in chain]
    if not chain:
        raise ValueError("chain must contain at least the base partition")
    for i in range(len(chain) - 1):
        if not pt.contains(chain[i + 1], chain[i]):
            raise ValueError(f"chain is not nested at stage {i + 1}")
    sizes = [pt.weight(chain[i + 1]) - pt.weight(chain[i]) for i in range(len(chain) - 1)]
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ValueError(f"stage sizes {sizes} do not transpose to a partition")
    if sizes and sizes[-1] == 0:
        raise ValueError("chain repeats its last partition; drop trailing stages")

    # mutable working records: [length, base, entries-list]
    work = [[g, g, []] for g in chain[0]]
    for stage in range(1, len(chain)):
        prev_t = pt.transpose(chain[stage - 1])
        cur_t = pt.transpose(chain[stage])
        grown: set[int] = set()
        nrows = len(cur_t)
        for r in range(1, nrows + 1):
            a = prev_t[r - 1] if r <= len(prev_t) else 0
            b = cur_t[r - 1]
            if b < a:
                raise ValueError(f"chain shrinks in row {r} at stage {stage}")
            need = b - a
            if need == 0:
                continue
            cands = sorted(
                (i for i, w in enumerate(work) if w[0] == r - 1 and i not in grown),
                key=lambda i: (-work[i][1], work[i][2]),
            )
            if r == 1:
                for _ in range(need):
                    work.append([1, 0, [stage]])
                    grown.add(len(work) - 1)
                continue
            if len(cands) < need:
                raise ValueError(
                    f"stage {stage} needs {need} columns of length {r - 1}, "
                    f"found {len(cands)}"
                )
            for i in cands[:need]:
                work[i][0] += 1
                work[i][2].append(stage)
                grown.add(i)

    t = LRTableau([Column(w[0], w[1], tuple(w[2])) for w in work])
    report = validate(t)
    if not report.ok:
        raise ValueError(f"chain does not define an LR tableau: {report.violations}")
    return t


def is_vertical_strip(beta, gamma) -> bool:
    """Every row gains at most one box: the transposes form a horizontal
    strip."""
    return is_horizontal_strip(pt.transpose(beta), pt.transpose(gamma))


def pick_with_detour(columns, c_u, cv_t, missing_key, want_u, want_v):
    """The split-off scan with its detour block written out twice: once
    for the first pick and once inside the loop over later picks."""
    top = max(c.entries[0] for c in columns if c.entries)
    idx = next(i for i, c in enumerate(columns) if c.entries == (top,))
    picked = [idx]
    flag = None

    def special(i):
        nonlocal want_u, want_v, flag
        if flag is None:
            if want_u and columns[i] == c_u:
                want_u = False
                flag = "u"
                return True
            if want_v and columns[i] == cv_t:
                want_v = False
                flag = "v"
                return True
        elif (want_u and columns[i] == c_u) or (want_v and columns[i] == cv_t):
            raise InvariantViolation("second special column in a detoured scan")
        return False

    def first_from(start, e):
        return next(
            (i for i in range(start, len(columns)) if columns[i].entries == (e,)),
            None,
        )

    e = top - 1
    if special(idx):
        if e == 0:
            return picked, flag
        start = bisect_left([c.sort_key() for c in columns], missing_key)
        nxt = first_from(start, e)
        if nxt is None:
            raise InvariantViolation(f"no column with entry {e} right of the gap")
        special(nxt)
        picked.append(nxt)
        e -= 1

    while e >= 1:
        nxt = first_from(picked[-1] + 1, e)
        if nxt is None:
            raise InvariantViolation(
                f"no column with entry {e} right of position {picked[-1]}"
            )
        picked.append(nxt)
        e -= 1
        if special(nxt) and e:
            start = bisect_left([c.sort_key() for c in columns], missing_key)
            nxt2 = first_from(start, e)
            if nxt2 is None:
                raise InvariantViolation(f"no column with entry {e} right of the gap")
            special(nxt2)
            picked.append(nxt2)
            e -= 1
    return picked, flag


def split_off_pole(t: LRTableau) -> tuple[LRTableau, LRTableau]:
    """One two-copy scan on a strip tableau: the picked columns and the
    rest, each an LRTableau."""
    picked, _ = pick_with_detour(list(t.columns), None, None, None, False, False)
    rest = [c for i, c in enumerate(t.columns) if i not in picked]
    return LRTableau([t.columns[i] for i in picked]), LRTableau(rest)


def pole_pieces(t: LRTableau) -> list[list[Column]]:
    """Repeated ``split_off_pole`` on LRTableau remainders: the columns of
    each piece, then the blank columns left over."""
    pieces, rest = [], t
    while not rest.is_empty():
        piece, rest = split_off_pole(rest)
        pieces.append(list(piece.columns))
    return pieces + [list(rest.columns)]


def realize_strip(t: LRTableau, p: int) -> Embedding:
    """Strip realization through Pole records: each split-off piece is read
    as a Pole, rebuilt as a tableau, then realized as a graded pole."""
    parts = []
    for ep in pole_decomposition(t):
        if ep.pole is not None:
            parts.append(graded_pole_embedding(pole_tableau(ep.pole), p))
        else:
            for n in ep.empty_pickets:
                parts.append(Embedding(canonical_module((n,), p, shifts=[0]), []))
    if not parts:
        return Embedding(canonical_module((), p, shifts=[]), [])
    return direct_sum(*parts)

