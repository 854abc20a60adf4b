"""Exception types shared across the package, and the work budget that
``GuardExceeded`` enforces."""

from __future__ import annotations

import os

DEFAULT_GUARD = 2**22


class InvariantViolation(Exception):
    """A construction whose correctness is guaranteed by a proved statement
    failed its runtime re-verification.  Always a bug, never user error."""


class GuardExceeded(Exception):
    """A brute-force enumeration or a table would exceed its configured
    work budget."""


def guard_budget(guard: int | None = None) -> int:
    """``guard`` when given, else the ``LRLAB_GUARD`` environment variable,
    else ``DEFAULT_GUARD``."""
    if guard is not None:
        return guard
    env = os.environ.get("LRLAB_GUARD")
    return int(env) if env else DEFAULT_GUARD
