"""Pickets, poles and extended poles as symbolic tableau-level objects.

A picket has a one-column ambient; a pole has a cyclic subspace and is
classified by the radical layers x_1 < ... < x_k of the powers of its
generator, which place the entries 1..k of its tableau in rows
x_1 + 1, ..., x_k + 1.  Horizontal-strip tableaux decompose into poles
and empty pickets by repeatedly splitting off the greedy "largest entry,
then first occurrence rightward" column selection, and a single box move
refines that decomposition into the five-piece partition used by the
witness construction.  The scans (``_scan``) run on plain column lists,
with a list of the columns' single entries beside them.
The partition (``pole_partition_columns``) is cut and re-checked on
column tuples, which is all the witness reads; on pieces of one entry per
column the LR conditions reduce to a few comparisons of bases and entries
(``_is_pole_piece``, ``_is_strip``).  ``box_move_pole_partition`` gives
the same pieces as tableaux, and ``pole_pieces`` the column groups a
strip realization reads.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

from . import partitions as pt
from . import tableaux as tb
from .errors import InvariantViolation
from .partitions import Partition
from .records import Record, setfield
from .tableaux import Column, LRTableau

if TYPE_CHECKING:
    # box moves are imported where they are used, so that the commands
    # that move no box do not load them
    from .boxmoves import BoxMove


class Picket(Record):
    """Ambient of length n with the unique invariant subspace of dim m."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        setfield(self, "n", n)
        setfield(self, "m", m)
        if not (0 <= m <= n) or n <= 0:
            raise ValueError(f"need 0 <= m <= n with n positive: {self}")

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m}


class Pole(Record):
    """Radical layers of the generator powers, plus the ambient partition."""

    __slots__ = ("layers", "ambient")

    def __init__(self, layers: tuple[int, ...], ambient: Partition):
        # the first two checks quote the arguments as given
        setfield(self, "layers", layers)
        setfield(self, "ambient", ambient)
        layers = tuple(int(x) for x in layers)
        if not layers or any(x < 0 for x in layers):
            raise ValueError(f"layers must be nonempty and nonnegative: {self}")
        if any(a >= b for a, b in zip(layers, layers[1:])):
            raise ValueError(f"layers must be strictly increasing: {self}")
        setfield(self, "layers", layers)
        setfield(self, "ambient", pt.partition(ambient))
        if not self.ambient or self.ambient[0] < layers[-1] + 1:
            raise ValueError(f"ambient too small for top layer: {self}")

    def to_json(self) -> dict:
        return {"layers": list(self.layers), "ambient": list(self.ambient)}


class ExtendedPole(Record):
    """A pole together with a multiset of empty-picket ambient lengths."""

    __slots__ = ("pole", "empty_pickets")

    def __init__(self, pole: Pole | None, empty_pickets: tuple[int, ...] = ()):
        setfield(self, "pole", pole)
        setfield(self, "empty_pickets", tuple(sorted(empty_pickets, reverse=True)))
        if pole is None and not self.empty_pickets:
            raise ValueError("an extended pole needs a pole or empty pickets")

    def tableau(self) -> LRTableau:
        parts = []
        if self.pole is not None:
            parts.append(pole_tableau(self.pole))
        if self.empty_pickets:
            parts.append(empty_tableau(self.empty_pickets))
        out = parts[0]
        for extra in parts[1:]:
            out = tableau_union(out, extra)
        return out

    def to_json(self) -> dict:
        return {
            "pole": None if self.pole is None else self.pole.to_json(),
            "empty_pickets": list(self.empty_pickets),
            "tableau": self.tableau().to_json(),
        }


def minimal_ambient(layers: tuple[int, ...]) -> Partition:
    """Smallest ambient partition carrying the given layers.

    Each maximal run of consecutive layers needs one column reaching one
    past the run's top layer.
    """
    blocks = []
    for i, x in enumerate(layers):
        if i + 1 == len(layers) or layers[i + 1] != x + 1:
            blocks.append(x + 1)
    return pt.partition(sorted(blocks, reverse=True))


def empty_tableau(beta) -> LRTableau:
    """The tableau with no entries over the ambient ``beta``."""
    beta = pt.partition(sorted(beta, reverse=True))
    return LRTableau([Column(b, b, ()) for b in beta])


def picket_tableau(p: Picket) -> LRTableau:
    """One column of length n with entries 1..m in the bottom m rows."""
    return LRTableau([Column(p.n, p.n - p.m, tuple(range(1, p.m + 1)))])


def pole_tableau(p: Pole) -> LRTableau:
    """Tableau over the pole's ambient with entry i in row layers[i-1] + 1.

    Built by peeling the required boxes off the ambient from the top
    layer down, then replaying the chain forward; fails when the ambient
    has no column of the required length at some step.
    """
    current = list(p.ambient)
    chain = [p.ambient]
    for x in reversed(p.layers):
        row = x + 1
        try:
            i = current.index(row)
        except ValueError:
            raise ValueError(
                f"ambient {p.ambient} has no column of length {row} when "
                f"removing the box of layer {x}"
            ) from None
        current[i] -= 1
        chain.append(pt.partition(sorted(current, reverse=True)))
    return tb.from_chain(list(reversed(chain)))


def pole_of_tableau(t: LRTableau) -> Pole:
    """Read the Kaplansky data off a one-entry-per-value tableau."""
    rows = {}
    for c in t.columns:
        for j, e in enumerate(c.entries):
            if e in rows:
                raise ValueError(f"entry {e} occurs twice; not a pole tableau")
            rows[e] = c.row_of(j)
    if sorted(rows) != list(range(1, len(rows) + 1)):
        raise ValueError(f"entries {sorted(rows)} are not 1..k")
    layers = tuple(rows[e] - 1 for e in range(1, len(rows) + 1))
    return Pole(layers, t.shape.beta)


def tableau_union(t1: LRTableau, t2: LRTableau) -> LRTableau:
    """The tableau of the ``chain_union`` of the two chains."""
    return tb.from_chain(chain_union(t1.chain, t2.chain))


def chain_union(c1, c2) -> tuple[Partition, ...]:
    """Stagewise union of two partition chains, the shorter one padded
    with its last stage: the chain of a direct sum of two embeddings,
    since B / T^i A of a sum is the sum of the summands' quotients."""
    m = max(len(c1), len(c2))
    return tuple([pt.union(c1[min(i, len(c1) - 1)], c2[min(i, len(c2) - 1)])
                  for i in range(m)])


def split_off_pole(t: LRTableau) -> tuple[LRTableau, LRTableau]:
    """Peel one extended-pole tableau off a horizontal strip.

    Selects the first column holding the largest entry, then for each
    smaller value the first column holding it strictly to the right.
    Returns (extracted, rest); their union is the input.
    """
    if not tb.is_horizontal_strip(t.shape.beta, t.shape.gamma):
        raise ValueError(f"pole splitting needs a horizontal strip: {t.shape}")
    if t.is_empty():
        raise ValueError("cannot split an empty tableau")
    work = list(t.columns)
    picked, _ = next(_scan(work))
    return LRTableau(picked), LRTableau(work)


def pole_pieces(columns) -> list[list[Column]]:
    """A horizontal strip's columns cut by repeated split-off scans: one
    group per pole, then the blank columns left over (possibly none)."""
    work = list(columns)
    return [group for group, _ in _scan(work)] + [work]


def pole_decomposition(t: LRTableau) -> list[ExtendedPole]:
    """Repeated pole splitting; empty leftover columns become empty pickets."""
    if not tb.is_horizontal_strip(t.shape.beta, t.shape.gamma):
        raise ValueError(f"pole decomposition needs a horizontal strip: {t.shape}")
    *groups, blank = pole_pieces(t.columns)
    out = [ExtendedPole(pole_of_tableau(LRTableau(g))) for g in groups]
    if blank:
        out.append(ExtendedPole(None, tuple(c.length for c in blank)))
    return out


def box_move_pole_partition(
    t_low: LRTableau, t_high: LRTableau, move: BoxMove
) -> tuple[LRTableau, LRTableau, LRTableau, LRTableau, LRTableau]:
    """The five pieces of ``pole_partition_columns`` as tableaux."""
    return tuple(LRTableau(cols) for cols in pole_partition_columns(t_low, t_high, move))


def pole_partition_columns(
    t_low: LRTableau, t_high: LRTableau, move: BoxMove
) -> tuple[tuple[Column, ...], ...]:
    """Partition the columns of a box-move pair into compatible pole pieces.

    Returns (g1, g2, g3, g1t, g2t), each a tuple of columns in the order
    of ``Column.sort_key`` (that of ``LRTableau.columns``), with
    t_low = g1 U g2 U g3 and t_high = g1t U g2t U g3; g1/g1t differ in
    the one column holding u, g2/g2t in the one holding v, and g1t U g2t
    is one box move above g1 U g2.  All five stated properties are
    re-checked at runtime, on the column tuples (``_check_partition``).
    """
    from .boxmoves import apply_move

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

    pieces = tuple(_sorted(cols) for cols in (
        g1, swap(g2t, cv_t, c_v), g3, swap(g1, c_u, cu_t), g2t))
    _check_partition(t_low, t_high, move, *pieces)
    return pieces


def _sorted(columns) -> tuple[Column, ...]:
    return tuple(sorted(columns, key=Column.sort_key))


def _scan(work: list[Column], c_u=None, cv_t=None, missing_key=None):
    """Repeated split-off scans while ``work`` holds an entry: yields
    (group, flag) per scan and deletes the group from ``work``, leaving
    the blank columns.  ``c_u`` and ``cv_t``, when given, stay wanted
    until a scan flags them (see ``_pick_with_detour``).  The list
    ``single`` keeps, in step with ``work``, each column's single entry:
    0 for a blank column and -1 for a column of two or more entries, which
    no scan picks."""
    single = [(c.entries[0] if len(c.entries) == 1 else -1) if c.entries else 0
              for c in work]
    want_u, want_v = c_u is not None, cv_t is not None
    while any(single):
        indices, flag = _pick_with_detour(
            work, single, c_u, cv_t, missing_key, want_u, want_v)
        group = [work[i] for i in indices]
        for i in sorted(indices, reverse=True):
            del work[i], single[i]
        want_u, want_v = want_u and flag != "u", want_v and flag != "v"
        yield group, flag


def _pick_with_detour(columns, single, c_u, cv_t, missing_key, want_u, want_v):
    """One split-off scan over ``columns``, whose single entries are
    ``single`` (see ``_scan``).

    Picks the first column holding the largest entry, then for each
    smaller value the first column holding it right of the last pick.
    When a pick is a still-wanted special column (the first one only),
    the next search starts at the removed column's position instead.
    Returns (indices, flag) with flag in {"u", "v", None}.  With nothing
    wanted it is the plain scan.
    """
    top = max(single)
    if -1 in single:  # a longer column is never picked, but may set the top
        top = max(top, *[c.entries[0] for c, x in zip(columns, single) if x < 0])
    picked, flag = [], None
    start, gap = 0, False
    for e in range(top, 0, -1):
        try:
            nxt = single.index(e, start)
        except ValueError:
            where = "the gap" if gap else f"position {start - 1}"
            raise InvariantViolation(f"no column with entry {e} right of {where}") from None
        picked.append(nxt)
        hit = ("u" if want_u and columns[nxt] == c_u else
               "v" if want_v and columns[nxt] == cv_t else None)
        if hit and flag:
            raise InvariantViolation("second special column in a detoured scan")
        flag, gap = flag or hit, hit is not None
        start = (bisect_left([c.sort_key() for c in columns], missing_key)
                 if gap else nxt + 1)
    return picked, flag


def _check_partition(t_low, t_high, move, g1, g2, g3, g1t, g2t) -> None:
    """The five properties of the pole partition, on the column tuples of
    its pieces; each failure raises ``InvariantViolation``."""
    from .boxmoves import BoxMove, _moved_columns

    u, v, r, s = move.u, move.v, move.r, move.s
    for name, cols in (("g1", g1), ("g2", g2), ("g1t", g1t), ("g2t", g2t)):
        if not _is_pole_piece(cols):
            raise InvariantViolation(f"property (1) fails for {name}")
    if g3 and not _is_strip(g3):
        raise InvariantViolation("property (2) fails for the common part")

    def one_column_diff(a, b, entry: int, lo: int, hi: int):
        ca, cb = list(a), list(b)
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
        for cols in (a, b):
            if any(lo < c.length < hi for c in cols):
                raise InvariantViolation("a column length lies strictly in between")

    one_column_diff(g1, g1t, u, s, r)
    one_column_diff(g2, g2t, v, s, r)

    # by (1) g1 and g2 read as lattice words, and so does any merge of
    # them: the core is a valid strip, as the local check needs
    core = _sorted(g1 + g2)
    c_u, c_v = Column(r, r - 1, (u,)), Column(s, s - 1, (v,))
    if c_u not in core or c_v not in core or _moved_columns(core, BoxMove(
            u, v, r, s, core.index(c_u), core.index(c_v))) != _sorted(g1t + g2t):
        raise InvariantViolation("property (5): primed unions not one move apart")

    if _sorted(g1 + g2 + g3) != t_low.columns:
        raise InvariantViolation("partition does not reassemble the lower tableau")
    if _sorted(g1t + g2t + g3) != t_high.columns:
        raise InvariantViolation("partition does not reassemble the upper tableau")


def _is_pole_piece(cols) -> bool:
    """Property (1) on sorted columns: one entry per column, k, k - 1,
    ..., 1 from left to right.  Sorted columns of at most one entry each
    always form a skew diagram (a longer column's base is at least the
    shorter one's length), and with one entry per column this is what
    ``validate``, the strip test and "each entry once" come to: the
    lattice condition puts each entry right of the next larger one, and
    the row-weak one then keeps them in distinct rows, which the sort
    order of equal columns already does."""
    return (all(len(c.entries) == 1 for c in cols)
            and [c.entries[0] for c in cols] == list(range(len(cols), 0, -1)))


def _is_strip(cols) -> bool:
    """Property (2) on sorted columns: a horizontal-strip LR filling.  The
    columns hold at most one entry each, and read from the right every
    entry e > 1 is preceded by more e - 1 than e, the whole word included
    (the entry counts transpose a partition).  Such columns form a skew
    diagram (see ``_is_pole_piece``), and their rows are weak: the entries
    of one row lie in columns of one length and base, which the sort
    orders by entry."""
    if any(len(c.entries) > 1 for c in cols):
        return False
    counts = [0] * (max((e for c in cols for e in c.entries), default=0) + 1)
    for c in reversed(cols):
        for e in c.entries:
            counts[e] += 1
            if e > 1 and counts[e] > counts[e - 1]:
                return False
    return True
