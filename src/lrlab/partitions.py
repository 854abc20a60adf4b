"""Exact arithmetic on integer partitions.

A partition is stored as a tuple of weakly decreasing positive integers.
Throughout this package the parts are the COLUMN lengths of the Young
diagram, so the diagram of (3, 2) has two columns of heights 3 and 2 and
its row lengths -- read off with :func:`transpose` -- are (2, 2, 1).
Row ``r`` always means the r-th row from the top.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Partition = tuple[int, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Normalize ``parts`` to a canonical partition tuple.

    Trailing zeros are dropped, so the empty tuple is the unique
    partition of weight 0.  Negative entries and increasing runs are
    rejected.
    """
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for i, x in enumerate(p):
        if x <= 0:
            raise ValueError(f"parts must be positive integers, got {parts!r}")
        if i and p[i - 1] < x:
            raise ValueError(f"parts must be weakly decreasing, got {parts!r}")
    return p


def weight(p: Partition) -> int:
    """Total number of boxes."""
    return sum(p)


def transpose(p: Partition) -> Partition:
    """Conjugate partition: entry j counts the parts of size >= j."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= j) for j in range(1, p[0] + 1))


def natural_leq(p: Partition, q: Partition) -> bool:
    """Natural (dominance-style) partial order via partial sums of transposes.

    The first r rows of p hold sum(min(x, r) for x in p) boxes.  The
    difference of the two sums is piecewise linear in r, constant past
    the largest part, with slope falling only at parts of p, so checking
    r at the parts of p suffices.  The weights may differ.
    """
    return all(sum(min(x, r) for x in p) <= sum(min(y, r) for y in q)
               for r in set(p))


def union(p: Partition, q: Partition) -> Partition:
    """Multiset union of the columns, sorted weakly decreasing."""
    return tuple(sorted(p + q, reverse=True))


def contains(outer: Partition, inner: Partition) -> bool:
    """Columnwise containment: inner[i] <= outer[i] for all i."""
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield all partitions of n with parts bounded by ``max_part``."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for head in range(top, 0, -1):
        for tail in partitions_of(n - head, head):
            yield (head,) + tail


def to_json(p: Partition) -> list[int]:
    return list(p)


def json_array(data, name: str) -> list:
    """``data`` itself if it is a JSON array; ValueError otherwise."""
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"{name} must be a JSON array, got {data!r}")
    return data


def json_ints(data, name: str, depth: int):
    """Nested JSON arrays, ``depth`` levels deep, of integers in int64 range.

    Floats and bools are refused rather than truncated.
    """
    if depth == 0:
        if type(data) is not int or not -2**63 <= data < 2**63:
            raise ValueError(
                f"{name}: expected an integer within int64, got {data!r}")
        return data
    return [json_ints(x, name, depth - 1) for x in json_array(data, name)]


def from_json(data) -> Partition:
    return partition(json_ints(data, "a partition", 1))
