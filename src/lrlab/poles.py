"""Pickets, poles and extended poles as symbolic tableau-level objects.

A picket has a one-column ambient; a pole has a cyclic subspace and is
classified by the radical layers x_1 < ... < x_k of the powers of its
generator, which place the entries 1..k of its tableau in rows
x_1 + 1, ..., x_k + 1.  Horizontal-strip tableaux decompose into poles
and empty pickets by repeatedly splitting off the greedy "largest entry,
then first occurrence rightward" column selection, and a single box move
refines that decomposition into the five-tableau partition used by the
witness construction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from . import partitions as pt
from . import tableaux as tb
from .boxmoves import BoxMove, apply_move, box_successors
from .errors import InvariantViolation
from .partitions import Partition
from .tableaux import Column, LRTableau


@dataclass(frozen=True)
class Picket:
    """Ambient of length n with the unique invariant subspace of dim m."""

    n: int
    m: int

    def __post_init__(self):
        if not (0 <= self.m <= self.n) or self.n <= 0:
            raise ValueError(f"need 0 <= m <= n with n positive: {self}")

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m}


@dataclass(frozen=True)
class Pole:
    """Radical layers of the generator powers, plus the ambient partition."""

    layers: tuple[int, ...]
    ambient: Partition

    def __post_init__(self):
        layers = tuple(int(x) for x in self.layers)
        if not layers or any(x < 0 for x in layers):
            raise ValueError(f"layers must be nonempty and nonnegative: {self}")
        if any(a >= b for a, b in zip(layers, layers[1:])):
            raise ValueError(f"layers must be strictly increasing: {self}")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "ambient", pt.partition(self.ambient))
        if not self.ambient or self.ambient[0] < layers[-1] + 1:
            raise ValueError(f"ambient too small for top layer: {self}")

    def to_json(self) -> dict:
        return {"layers": list(self.layers), "ambient": list(self.ambient)}


@dataclass(frozen=True)
class ExtendedPole:
    """A pole together with a multiset of empty-picket ambient lengths."""

    pole: Pole | None
    empty_pickets: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(
            self, "empty_pickets", tuple(sorted(self.empty_pickets, reverse=True))
        )
        if self.pole is None and not self.empty_pickets:
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
    return LRTableau([Column(b, b, ()) for b in beta], alpha=())


def picket_tableau(p: Picket) -> LRTableau:
    """One column of length n with entries 1..m in the bottom m rows."""
    return LRTableau(
        [Column(p.n, p.n - p.m, tuple(range(1, p.m + 1)))],
        alpha=(p.m,) if p.m else (),
    )


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
    """Stagewise union of the partition chains (tail-padded)."""
    c1, c2 = t1.chain, t2.chain
    m = max(len(c1), len(c2))
    merged = [
        pt.union(c1[min(i, len(c1) - 1)], c2[min(i, len(c2) - 1)]) for i in range(m)
    ]
    return tb.from_chain(merged)


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
    picked, _ = _pick_with_detour(list(t.columns), None, None, None, False, False)
    rest = [c for i, c in enumerate(t.columns) if i not in set(picked)]
    extracted = LRTableau([t.columns[i] for i in picked])
    return extracted, LRTableau(rest, alpha=_alpha_of(rest))


def _alpha_of(columns) -> Partition:
    counts = tb.entry_counts(columns)
    return pt.transpose(counts)


def pole_decomposition(t: LRTableau) -> list[ExtendedPole]:
    """Repeated pole splitting; empty leftover columns become empty pickets."""
    if not tb.is_horizontal_strip(t.shape.beta, t.shape.gamma):
        raise ValueError(f"pole decomposition needs a horizontal strip: {t.shape}")
    out: list[ExtendedPole] = []
    rest = t
    while not rest.is_empty():
        extracted, rest = split_off_pole(rest)
        out.append(ExtendedPole(pole_of_tableau(extracted)))
    if rest.columns:
        out.append(ExtendedPole(None, tuple(c.length for c in rest.columns)))
    return out


def _records_tableau(records: list[Column]) -> LRTableau:
    return LRTableau(records, alpha=_alpha_of(records))


def box_move_pole_partition(
    t_low: LRTableau, t_high: LRTableau, move: BoxMove
) -> tuple[LRTableau, LRTableau, LRTableau, LRTableau, LRTableau]:
    """Partition the columns of a box-move pair into compatible pole tableaux.

    Returns (g1, g2, g3, g1t, g2t) with t_low = g1 U g2 U g3 and
    t_high = g1t U g2t U g3; g1/g1t differ in the one column holding u,
    g2/g2t in the one holding v, and g1t U g2t is one box move above
    g1 U g2.  All five stated properties are re-checked at runtime.
    """
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
    missing_key = c_v.sort_key()

    g1 = g2t = None
    g3_records: list[Column] = []

    while any(c.entries for c in work):
        indices, flag = _pick_with_detour(
            work, c_u, cv_t, missing_key, g1 is None, g2t is None
        )
        records = [work[i] for i in indices]
        for i in sorted(indices, reverse=True):
            del work[i]
        if flag == "u":
            g1 = records
        elif flag == "v":
            g2t = records
        else:
            g3_records.extend(records)
    g3_records.extend(work)  # leftover empty columns

    if g1 is None or g2t is None:
        raise InvariantViolation("the moved columns were never extracted")

    def swap(records: list[Column], old: Column, new: Column) -> list[Column]:
        out = list(records)
        out[out.index(old)] = new
        return out

    gamma1 = _records_tableau(g1)
    gamma1t = _records_tableau(swap(g1, c_u, cu_t))
    gamma2t = _records_tableau(g2t)
    gamma2 = _records_tableau(swap(g2t, cv_t, c_v))
    gamma3 = _records_tableau(g3_records) if g3_records else empty_tableau(())

    _check_partition_properties(
        t_low, t_high, move, gamma1, gamma2, gamma3, gamma1t, gamma2t
    )
    return gamma1, gamma2, gamma3, gamma1t, gamma2t


def _pick_with_detour(columns, c_u, cv_t, missing_key, want_u, want_v):
    """One split-off scan over ``columns``.

    When the scan selects a still-wanted special column it continues at
    the first matching column right of the removed column's position
    instead of right of the selection.  Returns (indices, flag) with
    flag in {"u", "v", None}.  With nothing wanted it is the plain scan
    of ``split_off_pole``.
    """
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


def _check_partition_properties(
    t_low, t_high, move, gamma1, gamma2, gamma3, gamma1t, gamma2t
) -> None:
    u, v, r, s = move.u, move.v, move.r, move.s

    def is_extended_pole_strip(t: LRTableau) -> bool:
        if not tb.is_horizontal_strip(t.shape.beta, t.shape.gamma):
            return False
        if any(not c.entries for c in t.columns):
            return False
        counts = tb.entry_counts(t.columns)
        return all(c == 1 for c in counts)

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

    core_low = tableau_union(gamma1, gamma2)
    core_high = tableau_union(gamma1t, gamma2t)
    for t2, mv in box_successors(core_low):
        if t2 == core_high and (mv.u, mv.v) == (u, v):
            break
    else:
        raise InvariantViolation("property (5): primed unions not one move apart")

    recombined = tableau_union(core_low, gamma3) if gamma3.columns else core_low
    if recombined != t_low:
        raise InvariantViolation("partition does not reassemble the lower tableau")
    recombined_t = tableau_union(core_high, gamma3) if gamma3.columns else core_high
    if recombined_t != t_high:
        raise InvariantViolation("partition does not reassemble the upper tableau")
