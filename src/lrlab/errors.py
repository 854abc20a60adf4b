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
    else ``DEFAULT_GUARD``.  A set variable must be a nonnegative integer
    in decimal digits; anything else raises ValueError naming it."""
    if guard is not None:
        return guard
    env = os.environ.get("LRLAB_GUARD")
    if not env:
        return DEFAULT_GUARD
    if not (env.isascii() and env.isdigit()):
        raise ValueError(f"LRLAB_GUARD must be a nonnegative integer, got {env!r}")
    return int(env)
