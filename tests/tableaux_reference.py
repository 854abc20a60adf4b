"""Test-only references: the stage-growth ``from_chain``, the two-copy
split-off scan and the Pole round trip of strip realization, which
realizes each piece by the strip-only graded pole of ``nilmod_reference``.

``lrlab`` replaced each by a smaller mechanism with the same answers; the
cross-checks in ``test_tableaux.py``, ``test_poles.py`` and
``test_nilmod.py`` compare the two.
"""

from __future__ import annotations

from bisect import bisect_left

from lrlab import partitions as pt
from lrlab.errors import InvariantViolation
from lrlab.nilmod import Embedding, canonical_module, direct_sum
from lrlab.poles import pole_decomposition, pole_tableau
from lrlab.tableaux import Column, LRTableau, validate
from nilmod_reference import graded_pole_embedding


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

