"""Tests of the benchmark itself.

    python3 -m pytest lrbench -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAMES = ("roundtrip", "witness", "census", "cli")


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def spec():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_named_metric(name):
    bench = spec()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        record = run.run_workload(workloads, name, seed=5, seconds=0.01,
                                  trace=trace, max_ops=3)
        result = record["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, record["failed_ops"]
        expected = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())
        json.dumps(result, allow_nan=False)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in spec()["workloads"]] == list(NAMES)
    assert set(NAMES) == set(workloads.WORKLOADS)


def test_wrong_or_failing_results_raise_the_error_rate(monkeypatch):
    nilmod = workloads.nilmod
    real = nilmod.realize_tableau
    other = real(workloads.tb.from_chain([(1,), (2,)]), 2)  # a different tableau
    calls = []

    def faulty(t, p):
        calls.append(t)
        if len(calls) % 3 == 1:
            return other
        if len(calls) % 3 == 2:
            raise nilmod.InvariantViolation("injected")
        return real(t, p)

    monkeypatch.setattr(nilmod, "realize_tableau", faulty)
    record = run.run_workload(workloads, "roundtrip", seed=5, seconds=0.01,
                              trace=False, max_ops=6)
    assert record["result"]["attempted"] == 6
    assert record["result"]["failed"] == 4
    assert record["error_rate"] == pytest.approx(4 / 6)
    assert not record["result"]["correct"]


@pytest.mark.parametrize("name", ("census", "cli"))
def test_a_digest_mismatch_counts_as_an_error(name):
    wl = workloads.WORKLOADS[name](5, reference={"census": {}, "cli": {}})
    result = run.measure(wl, 0.01, max_ops=2)
    assert result.failed == 2


def test_same_seed_gives_the_same_op_list():
    for name in NAMES:
        def ops(seed):
            wl = workloads.WORKLOADS[name](seed)
            rounds = wl.rounds()
            return [wl.describe(op) for _ in range(2) for op in next(rounds)]

        first = ops(11)
        assert first == ops(11), name
        assert first != ops(12), name


def test_tracer_patches_every_importing_namespace_and_restores_it():
    import lrlab.cli
    import lrlab.nilmod
    import lrlab.oracle
    import lrlab.poles

    E = lrlab.nilmod.picket_embedding(1, 2, 2)
    expected = lrlab.nilmod.hom_dim(E, E)
    before = (lrlab.oracle.hom_dim, lrlab.cli.hom_dim, lrlab.poles.box_successors,
              lrlab.nilmod.Embedding.__init__, lrlab.nilmod.Embedding.chain)
    tracer = Tracer()
    tracer.install()
    try:
        assert lrlab.oracle.hom_dim is lrlab.nilmod.hom_dim is lrlab.cli.hom_dim
        assert lrlab.oracle.hom_dim.__wrapped__ is before[0]
        assert lrlab.poles.box_successors.__wrapped__ is before[2]
        assert lrlab.nilmod.Embedding.__init__.__wrapped__ is before[3]
        E = lrlab.nilmod.picket_embedding(1, 2, 2)
        assert lrlab.nilmod.hom_dim(E, E) == expected
        stats, pairs = tracer.summary()
        assert stats["nilmod.hom_dim"]["calls"] == 1
        assert stats["nilmod.hom_dim"]["v1"] == 4  # d1 * d2 unknowns
        assert pairs[("nilmod.Embedding", "nilmod.picket_embedding")] == 1
    finally:
        tracer.uninstall()
    after = (lrlab.oracle.hom_dim, lrlab.cli.hom_dim, lrlab.poles.box_successors,
             lrlab.nilmod.Embedding.__init__, lrlab.nilmod.Embedding.chain)
    assert all(a is b for a, b in zip(before, after))
