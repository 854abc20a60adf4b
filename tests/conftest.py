import random
import sys
from itertools import product
from pathlib import Path

import pytest

from lrlab.oracle import enumerate_submodules
from lrlab.partitions import partition, partitions_of, weight
from lrlab.poles import Pole, minimal_ambient
from lrlab.tableaux import Shape, enumerate_tableaux, is_vertical_strip

# the two published census shapes over F_2
TWO_CLASS = Shape((3, 1), (4, 3, 1), (3, 1))
FIVE_CLASS = Shape((3, 1), (4, 3, 2, 1), (3, 2, 1))


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run slow exhaustive checks")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def censuses():
    """The two published censuses, computed once for every test using them."""
    return {shape: enumerate_submodules(shape, 2) for shape in (TWO_CLASS, FIVE_CLASS)}


@pytest.fixture(scope="session")
def strip_tableaux_12():
    """Every tableau of every horizontal-strip shape with |beta| <= 12
    (5814 of them), by shape."""
    return {shape: enumerate_tableaux(shape) for shape in iter_strip_shapes(12)}


def census_pool():
    """The 50 shapes and primes of the benchmark's census workload."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "lrbench"))
    try:
        from workloads import CENSUS_POOL
    finally:
        sys.path.pop(0)
    assert len(CENSUS_POOL) == 50
    return [(Shape(*raw), p) for raw, p in CENSUS_POOL]


def horizontal_gammas(beta):
    """Distinct partitions obtainable from beta by shrinking columns by one."""
    vals = sorted(set(beta), reverse=True)
    counts = [beta.count(v) for v in vals]
    seen = set()
    for choice in product(*[range(c + 1) for c in counts]):
        g = []
        for v, c, k in zip(vals, counts, choice):
            g += [v] * (c - k) + [v - 1] * k
        gam = partition(sorted(g, reverse=True))
        if gam not in seen:
            seen.add(gam)
            yield gam


def iter_strip_shapes(max_weight, need_vertical=False, skip_empty=True):
    """All shapes whose skew diagram is a horizontal strip, |beta| bounded."""
    for n in range(1, max_weight + 1):
        for beta in partitions_of(n):
            for gamma in horizontal_gammas(beta):
                m = n - weight(gamma)
                if skip_empty and m == 0:
                    continue
                if need_vertical and not is_vertical_strip(beta, gamma):
                    continue
                for alpha in partitions_of(m):
                    yield Shape(alpha, beta, gamma)


def sub_partitions(beta):
    """All distinct partitions contained columnwise in beta."""
    out = set()

    def rec(i, prev, acc):
        if i == len(beta):
            out.add(partition(acc))
            return
        for part in range(min(beta[i], prev), -1, -1):
            rec(i + 1, part, acc + [part])

    if beta:
        rec(0, beta[0], [])
    else:
        out.add(())
    return sorted(out, reverse=True)


def iter_all_shapes(max_weight):
    """Every shape with |beta| bounded, no strip restriction."""
    for n in range(1, max_weight + 1):
        for beta in partitions_of(n):
            for gamma in sub_partitions(beta):
                m = n - weight(gamma)
                if m == 0:
                    continue
                for alpha in partitions_of(m):
                    yield Shape(alpha, beta, gamma)


def random_pole(rng: random.Random, max_layer=6, max_parts=3) -> Pole:
    k = rng.randint(1, max_parts)
    layers = tuple(sorted(rng.sample(range(max_layer + 1), k)))
    return Pole(layers, minimal_ambient(layers))
