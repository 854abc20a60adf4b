"""Per-tuple reference enumeration for the submodule census.

This is the definitional brute force that the level-wise search in
``lrlab.oracle`` replaced: close every generator tuple, with the i-th
generator inside ker T^alpha_i, and keep one span per canonical basis.
It works for every prime and is kept only so tests can require the same
set of invariant subspaces from both.  Next to it is the level-wise
search as it was before it dropped the spans that cannot reach dimension
|alpha|: it keeps every span of every dimension.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from lrlab import linalg
from lrlab.nilmod import invariant_closure
from nilmod_reference import la, power


def distinct_submodules(B, alpha):
    """Canonical bases of the distinct invariant subspaces generated by
    tuples with the i-th generator inside ker T^alpha_i."""
    p, n = B.p, B.dim
    if not alpha:
        return [()]
    kernels = [la.null_space(power(B, a), p) for a in alpha]
    seen = set()
    coeff_ranges = [list(product(range(p), repeat=k.shape[0])) for k in kernels]
    for combo in product(*coeff_ranges):
        gens = []
        for coeffs, kern in zip(combo, kernels):
            if any(coeffs):
                v = np.zeros(n, dtype=np.int64)
                for c, row in zip(coeffs, kern):
                    if c:
                        v = (v + c * row) % p
                gens.append(v)
        seen.add(invariant_closure(B, gens)[0])
    return list(seen)


def level_wise_submodules(B, alpha):
    """Canonical bases of the same invariant subspaces, of every dimension,
    sorted: each level closes every span with one vector per line of the
    residue space of the kernel, and also keeps the span itself."""
    p = B.p
    level = {(): []}  # span -> pivots
    for a in alpha:
        kernel = B.kernel(a)
        grown = {}
        for S, pivots in level.items():
            grown.setdefault(S, pivots)
            W = linalg.row_space([linalg.reduce_vec(v, S, pivots, p) for v in kernel], p)
            for j in range(len(W)):
                for tail in product(range(p), repeat=len(W) - 1 - j):
                    orbit = linalg.mul([(1,) + tail], W[j:], p)
                    for _ in range(a - 1):
                        orbit += B.image(orbit[-1:])
                    R, R_pivots = linalg.rref(S + orbit, p)
                    grown.setdefault(R, R_pivots)
        level = grown
    return sorted(level)
