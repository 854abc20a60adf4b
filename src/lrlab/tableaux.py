"""Littlewood-Richardson tableaux of a fixed shape (alpha, beta, gamma).

A tableau is a filling of the skew diagram beta \\ gamma: column i of the
diagram has total length beta_i, its top gamma_i cells are blank, and the
remaining cells hold positive entries.  The value ell must occur exactly
transpose(alpha)[ell-1] times, rows must be weakly increasing left to
right, columns strictly increasing top to bottom, and for every column c
and every ell > 1 the columns strictly right of c must contain at least
as many entries ell-1 as entries ell.

Equivalently a tableau is the chain of partitions traced out by the
regions filled with blanks and entries <= i; both views are implemented
and kept in bijection by ``to_chain`` / ``from_chain``.  Each region is
a Young diagram, so ``from_chain`` reads the filling straight off the
chain: a column holds an entry i for each box its height gains at
stage i.  Neither it nor ``validate`` loops over rows, so a huge part
costs them no more than a small one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import partitions as pt
from .partitions import Partition


@dataclass(frozen=True)
class Shape:
    """The triple (alpha, beta, gamma) of partitions defining a skew filling."""

    alpha: Partition
    beta: Partition
    gamma: Partition

    def __post_init__(self):
        object.__setattr__(self, "alpha", pt.partition(self.alpha))
        object.__setattr__(self, "beta", pt.partition(self.beta))
        object.__setattr__(self, "gamma", pt.partition(self.gamma))
        if not pt.contains(self.beta, self.gamma):
            raise ValueError(f"gamma must fit inside beta columnwise: {self}")
        if pt.weight(self.beta) != pt.weight(self.alpha) + pt.weight(self.gamma):
            raise ValueError(f"|beta| must equal |alpha| + |gamma|: {self}")

    def cells(self) -> list[tuple[int, int]]:
        """(total_length, base_length) of every column, longest first."""
        g = self.gamma + (0,) * (len(self.beta) - len(self.gamma))
        return list(zip(self.beta, g))

    def to_json(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "gamma": list(self.gamma),
        }

    @staticmethod
    def from_json(data: dict) -> "Shape":
        return Shape(
            pt.from_json(data["alpha"]),
            pt.from_json(data["beta"]),
            pt.from_json(data["gamma"]),
        )


def is_horizontal_strip(beta: Partition, gamma: Partition) -> bool:
    """True when every column of beta gains at most one box over gamma."""
    g = gamma + (0,) * (len(beta) - len(gamma))
    return pt.contains(beta, gamma) and all(b <= c + 1 for b, c in zip(beta, g))


def is_vertical_strip(beta: Partition, gamma: Partition) -> bool:
    """True when every row gains at most one box.

    The new boxes of column j sit in rows gamma_j + 1 .. beta_j, and those
    of every later column in rows up to beta_{j+1}, so no row gains two
    exactly when gamma fits in beta and beta_{j+1} <= gamma_j for all j.
    """
    g = gamma + (0,) * (len(beta) - len(gamma))
    return pt.contains(beta, gamma) and all(b <= c for b, c in zip(beta[1:], g))


@dataclass(frozen=True)
class Column:
    """One column of a tableau.

    ``entries[j]`` sits in row ``base + 1 + j``; the blank base occupies
    rows 1..base.  A column record always carries a full filling:
    len(entries) == length - base.
    """

    length: int
    base: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if not (0 <= self.base <= self.length) or self.length <= 0:
            raise ValueError(f"bad column geometry: {self}")
        if len(self.entries) != self.length - self.base:
            raise ValueError(f"column must be fully filled: {self}")
        if any(e < 1 for e in self.entries):
            raise ValueError(f"entries must be positive: {self}")

    def row_of(self, j: int) -> int:
        return self.base + 1 + j

    def sort_key(self):
        return (-self.length, -self.base, self.entries)


class ValidationReport:
    """Outcome of :func:`validate`: an ok flag plus named violations."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        self.ok = not violations

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"ValidationReport(ok={self.ok}, violations={self.violations!r})"


class LRTableau:
    """Immutable tableau: canonical column list plus its shape, alpha
    read off the entry counts (which must be nonincreasing); the other LR
    conditions are left to ``validate``."""

    __slots__ = ("columns", "shape", "_chain", "_word", "_hash")

    def __init__(self, columns: Sequence[Column]):
        cols = tuple(sorted(columns, key=Column.sort_key))
        bases = [c.base for c in cols]
        if any(bases[i] < bases[i + 1] for i in range(len(bases) - 1)):
            raise ValueError(
                "columns do not assemble into a skew diagram "
                f"(bases not weakly decreasing): {cols}"
            )
        # entry counts of an LR tableau transpose a partition, so no entry
        # exceeds their total; refusing that early keeps entry_counts small
        total = sum(len(c.entries) for c in cols)
        if any(e > total for c in cols for e in c.entries):
            raise ValueError(
                f"an entry exceeds the number of entries, {total}: {cols}")
        beta = pt.partition(c.length for c in cols)
        gamma = pt.partition(bases)
        counts = entry_counts(cols)
        if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
            raise ValueError(
                f"entry multiplicities {counts} are not a transposed partition")
        self._fill(cols, Shape(pt.transpose(counts), beta, gamma))

    def _fill(self, cols: tuple[Column, ...], shape: Shape) -> LRTableau:
        for name, value in zip(self.__slots__, (cols, shape, None, None, None)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LRTableau is immutable")

    def __eq__(self, other):
        return isinstance(other, LRTableau) and self.columns == other.columns \
            and self.shape == other.shape

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.columns, self.shape)))
        return self._hash

    def __repr__(self):
        return f"LRTableau(word={list(reading_word(self))}, shape={self.shape})"

    @property
    def chain(self) -> tuple[Partition, ...]:
        if self._chain is None:
            object.__setattr__(self, "_chain", to_chain(self))
        return self._chain

    def is_empty(self) -> bool:
        return not self.shape.alpha

    def to_json(self) -> dict:
        data = self.shape.to_json()
        data["chain"] = [list(c) for c in self.chain]
        return data

    @staticmethod
    def from_json(data: dict) -> "LRTableau":
        if data.get("chain") is not None:
            t = from_chain([pt.from_json(c)
                            for c in pt.json_array(data["chain"], "chain")])
        elif data.get("columns") is not None:
            t = LRTableau([_column_from_json(c)
                           for c in pt.json_array(data["columns"], "columns")])
            report = validate(t)
            if not report.ok:
                raise ValueError(f"columns are not an LR tableau: {report.violations}")
        else:
            raise ValueError("tableau JSON needs a 'chain' or 'columns' field")
        if "alpha" in data and t.shape != Shape.from_json(data):
            raise ValueError("tableau does not match the declared shape")
        return t


def _of_shape(cols: tuple[Column, ...], shape: Shape) -> LRTableau:
    """The tableau of canonically ordered columns with their known shape."""
    return object.__new__(LRTableau)._fill(cols, shape)


def _column_from_json(c) -> Column:
    """A column record [length, base, [entries]], integers only."""
    if len(pt.json_array(c, "a column")) != 3:
        raise ValueError(f"a column must be [length, base, [entries]], got {c!r}")
    length, base = pt.json_ints(c[:2], "a column", 1)
    return Column(length, base, tuple(pt.json_ints(c[2], "column entries", 1)))


def entry_counts(columns: Sequence[Column]) -> tuple[int, ...]:
    """Multiplicity of each entry value 1..max as a tuple."""
    top = max((max(c.entries) for c in columns if c.entries), default=0)
    counts = [0] * top
    for c in columns:
        for e in c.entries:
            counts[e - 1] += 1
    return tuple(counts)


def validate(t: LRTableau) -> ValidationReport:
    """Check the column-strict, row-weak and lattice conditions.

    The entry counts need no check: ``LRTableau`` reads alpha off them.
    """
    v: list[str] = []
    cols = t.columns
    for ci, c in enumerate(cols):
        for j in range(len(c.entries) - 1):
            if c.entries[j] >= c.entries[j + 1]:
                v.append(
                    f"column-strict: column {ci} rows {c.row_of(j)},{c.row_of(j+1)}"
                    f" hold {c.entries[j]},{c.entries[j+1]}"
                )

    rows: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(cols):
        for j, e in enumerate(c.entries):
            rows.setdefault(c.row_of(j), []).append((ci, e))
    for r in sorted(rows):
        for (_, prev), (ci, e) in zip(rows[r], rows[r][1:]):
            if e < prev:
                v.append(f"row-weak: row {r} decreases at column {ci} ({prev}>{e})")

    counts = entry_counts(cols)
    s = len(counts)
    suffix = list(counts)
    for ci, c in enumerate(cols):
        for e in c.entries:
            suffix[e - 1] -= 1
        for ell in range(2, s + 1):
            if suffix[ell - 2] < suffix[ell - 1]:
                v.append(
                    f"lattice: right of column {ci} there are {suffix[ell-1]}"
                    f" entries {ell} but only {suffix[ell-2]} entries {ell-1}"
                )
    return ValidationReport(v)


def to_chain(t: LRTableau) -> tuple[Partition, ...]:
    """Partition chain [gamma = c_0, ..., c_s = beta], s = alpha_1."""
    s = t.shape.alpha[0] if t.shape.alpha else 0
    chain = []
    for i in range(s + 1):
        lengths = [c.base + sum(1 for e in c.entries if e <= i) for c in t.columns]
        chain.append(pt.partition(sorted(lengths, reverse=True)))
    return tuple(chain)


def from_chain(chain: Sequence[Partition]) -> LRTableau:
    """Rebuild the tableau from its partition chain.

    Stage i is the Young diagram of the cells holding blanks or entries
    <= i, so column c of the last stage has base chain[0][c] and holds
    one entry i for each box its height chain[i][c] gains over
    chain[i-1][c].  A column that gains more than one box in a stage
    (its entries could not increase) gets fewer entries than boxes, which
    ``Column`` refuses; fillings that break another LR condition fail
    ``validate``.
    """
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

    heights = [c + (0,) * (len(chain[-1]) - len(c)) for c in chain]
    cols = []
    for col in zip(*heights):
        entries = tuple(i for i in range(1, len(col)) if col[i] > col[i - 1])
        cols.append(Column(col[-1], col[0], entries))
    t = LRTableau(cols)
    report = validate(t)
    if not report.ok:
        raise ValueError(f"chain does not define an LR tableau: {report.violations}")
    return t


def reading_word(t: LRTableau) -> tuple[int, ...]:
    """Entries read column by column left to right, bottom up in each column."""
    if t._word is None:
        word = tuple(e for c in t.columns for e in reversed(c.entries))
        object.__setattr__(t, "_word", word)
    return t._word


def from_word(shape: Shape, word: Sequence[int]) -> LRTableau:
    """Rebuild a tableau of ``shape`` from its reading word.

    The word is consumed columnwise in canonical order, bottom up within
    each column.  Words that do not yield a valid tableau with that exact
    reading word are rejected.
    """
    word = tuple(int(w) for w in word)
    if len(word) != pt.weight(shape.alpha):
        raise ValueError(
            f"word length {len(word)} != |alpha| = {pt.weight(shape.alpha)}"
        )
    want = dict(enumerate(pt.transpose(shape.alpha), 1))
    got = dict(sorted(Counter(word).items()))
    if got != want:
        raise ValueError(f"word has entry counts {got}, but alpha = "
                         f"{list(shape.alpha)} needs {want}")
    cols = []
    pos = 0
    for length, base in shape.cells():
        n = length - base
        chunk = word[pos : pos + n]
        pos += n
        cols.append(Column(length, base, tuple(reversed(chunk))))
    t = LRTableau(cols)
    report = validate(t)
    if not report.ok:
        raise ValueError(f"word does not define an LR tableau: {report.violations}")
    if reading_word(t) != word:
        raise ValueError("word is not in canonical column order for this shape")
    return t


def dominance_leq(t1: LRTableau, t2: LRTableau) -> bool:
    """Chainwise natural order; both tableaux must share the same shape."""
    if t1.shape != t2.shape:
        raise ValueError(f"shape mismatch: {t1.shape} vs {t2.shape}")
    return all(pt.natural_leq(a, b) for a, b in zip(t1.chain, t2.chain))


def enumerate_tableaux(shape: Shape) -> list[LRTableau]:
    """All LR tableaux of the shape, in lexicographic reading-word order.

    Backtracking over skew cells column by column, bottom up within a
    column, pruning on the row-weak, column-strict and entry-count
    conditions as cells are placed and on the lattice condition at each
    column boundary.
    """
    cells = shape.cells()
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
