"""Per-tuple reference enumeration for the submodule census.

This is the definitional brute force that the level-wise search in
``lrlab.oracle`` replaced: close every generator tuple, with the i-th
generator inside ker T^alpha_i, and keep one span per canonical basis.
It works for every prime and is kept only so tests can require the same
set of invariant subspaces from both.
"""

from __future__ import annotations

from itertools import product

import numpy as np

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
