"""Run one lrlab benchmark workload and print its metrics.

    python3 lrbench/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0
    python3 lrbench/run.py --workload census --seed 1 --seconds 15 --trace 1
    python3 lrbench/run.py --workload witness --seed 1 --seconds 10 --profile 25

Each workload runs as a closed loop with one client: an op starts when the
previous one has ended.  Ops come in rounds; the loop stops at the end of
the first round by which ``--seconds`` have passed and at least MIN_OPS ops
ran, so every run has at least ten ops beyond p90.  Every op is checked
against a reference; failures count in the error rate and never stop the
run.  Op times are scaled by a reference probe run between ops, so that the
host's own speed swings cancel (see README.md).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the ops of
``--seconds / 2`` untraced, replays the same ops with every lrlab layer
wrapped in spans, and prints the per-layer metrics (per op) and the tracing
overhead; spans go to ``.bench_out/``.  ``--profile N`` prints the cProfile
top N instead of a result.  The last line of a measured run is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

MIN_OPS = 100  # nearest-rank p90 of 100 samples leaves ten beyond it
SETUP_REPEATS = 3
HARD_LIMIT_S = 75.0  # a pass past this stops mid-round; a traced run makes two
# The host's speed swings by up to 2x, per CPU, for fractions of a second
# up to tens of seconds, and drifts between runs.  A reference probe runs
# between ops on every CPU; the loop moves to the fastest, and each op's
# time is scaled by REF_PROBE_S over the probe times around it, as if the
# probe always took REF_PROBE_S (about its best on the VM the benchmark was
# tuned on); see README.md.
PROBE_EVERY_S = 0.1
REF_PROBE_S = 0.25e-3

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of the traced run: (name, unit, source).  Sources:
# ("calls"|"self_s"|"v1"|"v2", span): span total per op (v1, v2 are the
# sizes the tracer records); ("child", span, parent): spans of that name
# whose parent span has the other name, per op; ("stat"|"median"|"max",
# key): mean, median or max over ops of a workload statistic; ("ratio", a,
# b): total of a over total of b; ("overhead",): traced over untraced wall
# time of the same ops.
PER_LAYER = (
    ("linalg.rref.calls", "calls/op", ("calls", "linalg.rref")),
    ("linalg.rref.self_s", "s/op", ("self_s", "linalg.rref")),
    ("linalg.rref.cells", "cells/op", ("v1", "linalg.rref")),
    ("linalg.rank.calls", "calls/op", ("calls", "linalg.rank")),
    ("linalg.row_space.calls", "calls/op", ("calls", "linalg.row_space")),
    ("linalg.null_space.calls", "calls/op", ("calls", "linalg.null_space")),
    ("linalg.space_sum.calls", "calls/op", ("calls", "linalg.space_sum")),
    ("linalg.space_intersect.calls", "calls/op", ("calls", "linalg.space_intersect")),
    ("linalg.reduce_vec.calls", "calls/op", ("calls", "linalg.reduce_vec")),
    ("linalg.reduce_vec.self_s", "s/op", ("self_s", "linalg.reduce_vec")),
    ("nilmod.NilModule.calls", "calls/op", ("calls", "nilmod.NilModule")),
    ("nilmod.NilModule.self_s", "s/op", ("self_s", "nilmod.NilModule")),
    ("nilmod.Embedding.calls", "calls/op", ("calls", "nilmod.Embedding")),
    ("nilmod.Embedding.self_s", "s/op", ("self_s", "nilmod.Embedding")),
    ("nilmod.Embedding.chain.calls", "calls/op", ("calls", "nilmod.Embedding.chain")),
    ("nilmod.Embedding.chain.self_s", "s/op", ("self_s", "nilmod.Embedding.chain")),
    ("nilmod.quotient_type.calls", "calls/op", ("calls", "nilmod.quotient_type")),
    ("nilmod.quotient_type.self_s", "s/op", ("self_s", "nilmod.quotient_type")),
    ("nilmod.jordan_type.calls", "calls/op", ("calls", "nilmod.jordan_type")),
    ("nilmod.hom_dim.calls", "calls/op", ("calls", "nilmod.hom_dim")),
    ("nilmod.hom_dim.self_s", "s/op", ("self_s", "nilmod.hom_dim")),
    ("nilmod.hom_dim.unknowns", "unknowns/op", ("v1", "nilmod.hom_dim")),
    ("nilmod.hom_dim.equations", "rows/op", ("v2", "nilmod.hom_dim")),
    ("nilmod.direct_sum.calls", "calls/op", ("calls", "nilmod.direct_sum")),
    ("nilmod.direct_sum.self_s", "s/op", ("self_s", "nilmod.direct_sum")),
    ("nilmod.realize_tableau.calls", "calls/op", ("calls", "nilmod.realize_tableau")),
    ("nilmod.realize_tableau.self_s", "s/op", ("self_s", "nilmod.realize_tableau")),
    ("nilmod.tableau_of_embedding.self_s", "s/op", ("self_s", "nilmod.tableau_of_embedding")),
    ("tableaux.from_chain.calls", "calls/op", ("calls", "tableaux.from_chain")),
    ("tableaux.from_chain.self_s", "s/op", ("self_s", "tableaux.from_chain")),
    ("tableaux.enumerate_tableaux.self_s", "s/op", ("self_s", "tableaux.enumerate_tableaux")),
    ("tableaux.dominance_leq.calls", "calls/op", ("calls", "tableaux.dominance_leq")),
    ("partitions.transpose.calls", "calls/op", ("calls", "partitions.transpose")),
    ("poles.pole_decomposition.self_s", "s/op", ("self_s", "poles.pole_decomposition")),
    ("poles.box_move_pole_partition.calls", "calls/op",
     ("calls", "poles.box_move_pole_partition")),
    ("poles.box_move_pole_partition.self_s", "s/op",
     ("self_s", "poles.box_move_pole_partition")),
    ("boxmoves.box_successors.calls", "calls/op", ("calls", "boxmoves.box_successors")),
    ("boxmoves.box_successors.self_s", "s/op", ("self_s", "boxmoves.box_successors")),
    ("boxmoves.relation_matrix.self_s", "s/op", ("self_s", "boxmoves.relation_matrix")),
    ("boxmoves.hasse.self_s", "s/op", ("self_s", "boxmoves.hasse")),
    ("witness.witness_sequence.calls", "calls/op", ("calls", "witness.witness_sequence")),
    ("witness.witness_sequence.self_s", "s/op", ("self_s", "witness.witness_sequence")),
    ("oracle.enumerate_submodules.calls", "calls/op", ("calls", "oracle.enumerate_submodules")),
    ("oracle.enumerate_submodules.self_s", "s/op", ("self_s", "oracle.enumerate_submodules")),
    ("oracle.iso_fingerprint.self_s", "s/op", ("self_s", "oracle.iso_fingerprint")),
    ("oracle.s4_catalog.self_s", "s/op", ("self_s", "oracle.s4_catalog")),
    ("oracle.tuples_nominal", "tuples/op", ("stat", "tuples_nominal")),
    ("oracle.tuples_visited", "tuples/op", ("stat", "tuples_visited")),
    ("oracle.distinct_subspaces", "spaces/op",
     ("child", "nilmod.Embedding", "oracle.enumerate_submodules")),
    ("oracle.kept_submodules", "spaces/op", ("stat", "kept_submodules")),
    ("oracle.distinct_per_tuple", "ratio",
     ("ratio", ("child", "nilmod.Embedding", "oracle.enumerate_submodules"),
      ("stat", "tuples_visited"))),
    ("oracle.kept_per_distinct", "ratio",
     ("ratio", ("stat", "kept_submodules"),
      ("child", "nilmod.Embedding", "oracle.enumerate_submodules"))),
    ("cli.import_s", "s", ("median", "import_s")),
    ("cli.import_numpy_s", "s", ("median", "import_numpy_s")),
    ("cli.child_cpu_s", "s/op", ("stat", "child_cpu_s")),
    ("cli.child_maxrss_mb", "MB", ("max", "child_maxrss_mb")),
    ("trace.overhead_ratio", "ratio", ("overhead",)),
)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ceil(q n)-th smallest value.  For runs made of whole identical
    rounds it picks the same op whatever the number of rounds."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _probe_kernel() -> int:
    """Fixed work in the style of the package (small numpy products and
    interpreter loops) that never touches lrlab."""
    import numpy as np

    a = np.arange(36, dtype=np.int64).reshape(6, 6)
    acc = 0
    for i in range(60):
        a = (a @ a + i) % 3
        acc += sum(int(x) for x in a[0])
    return acc


def _pin(cpus) -> None:
    """Keep this process (and the children it starts) on ``cpus``."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no CPU affinity here: stay put
        pass


def probe(cpus) -> float:
    """Time the reference kernel (best of three) on each CPU in ``cpus``,
    move to the fastest one and return that time."""
    best, best_cpu = math.inf, None
    for cpu in cpus:
        _pin({cpu})
        t = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_kernel()
            t = min(t, time.perf_counter() - t0)
        if t < best:
            best, best_cpu = t, cpu
    _pin({best_cpu})
    return best


class Run:
    """Outcome of one closed-loop pass over a workload's ops.

    ``probes`` holds (index of the next op, probe seconds).
    """

    def __init__(self):
        self.ops: list = []
        self.latency: list[float] = []
        self.good: list[bool] = []
        self.stats: list[dict] = []
        self.probes: list[tuple[int, float]] = []
        self.wall = 0.0

    @property
    def failed(self) -> int:
        return self.good.count(False)

    def scales(self) -> list[float]:
        """Per op, REF_PROBE_S over the mean of the probes just before and
        just after it (1.0 without probes)."""
        probes = self.probes
        if not probes:
            return [1.0] * len(self.ops)
        out, j = [], 0
        for i in range(len(self.ops)):
            while j + 1 < len(probes) and probes[j + 1][0] <= i:
                j += 1
            after = probes[j + 1][1] if j + 1 < len(probes) else probes[j][1]
            out.append(2 * REF_PROBE_S / (probes[j][1] + after))
        return out


def measure(wl, seconds: float, min_ops: int = MIN_OPS, ops=None,
            tracer=None, max_ops: int | None = None, probing: bool = True) -> Run:
    """Run ``wl`` as a closed loop with one client.

    With ``ops`` given, replay exactly those ops once; otherwise draw rounds
    until ``seconds`` have passed and ``min_ops`` ops ran.
    ``max_ops`` stops early (for smoke tests).  With ``probing``, the
    reference probe runs before an op whenever PROBE_EVERY_S have passed
    since the last one, and once at the end; between probes the loop stays
    on the CPU that ran the last probe fastest.
    """
    run = Run()
    clock = time.perf_counter
    start = clock()
    last_probe = -math.inf
    home = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}
    rounds = iter([ops]) if ops is not None else wl.rounds()
    stop = False
    for batch in rounds:
        for op in batch:
            if probing and clock() - last_probe >= PROBE_EVERY_S:
                run.probes.append((len(run.ops), probe(sorted(home))))
                last_probe = clock()
            if tracer is not None:
                tracer.current_op = len(run.ops)
            t0 = clock()
            try:
                out = wl.call(op)
                failed = False
            except Exception:  # a failing op is counted, never fatal
                out, failed = None, True
            run.latency.append(clock() - t0)
            run.ops.append(op)
            ok = False
            if not failed:
                try:
                    ok = bool(wl.check(op, out))
                    run.stats.append(wl.stats(op, out))
                except Exception:
                    ok = False
            run.good.append(ok)
            if (max_ops is not None and len(run.ops) >= max_ops) \
                    or clock() - start > HARD_LIMIT_S:
                stop = True
                break
        if stop or ops is not None:
            break
        if clock() - start >= seconds and len(run.ops) >= min_ops:
            break
    if probing:
        run.probes.append((len(run.ops), probe(sorted(home))))
    _pin(home)
    run.wall = clock() - start
    return run


IMPORT_TIMER = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import workloads
print(time.perf_counter() - t0)
"""


def import_seconds() -> float:
    """Median over SETUP_REPEATS fresh interpreters of the time to import
    lrlab (through ``workloads``), which every run pays once."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src"), str(BENCH)],
                             cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def build(workloads, name: str, seed: int):
    """Set the workload up SETUP_REPEATS times; returns it and the median."""
    times, wl = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed)
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times)


def end_to_end(run: Run, setup_s: float, scaled: bool = True) -> dict:
    """End-to-end metrics; ``scaled`` applies ``run.scales()`` to op times
    and the median scale to ``setup_s``."""
    scales = run.scales() if scaled else [1.0] * len(run.ops)
    lat = sorted(t * k for t, k in zip(run.latency, scales))
    rss = [s["child_maxrss_mb"] for s in run.stats if "child_maxrss_mb" in s]
    if not rss:
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    values = {
        "ops_per_s": (len(run.ops) - run.failed) / sum(lat),
        "latency_p50_ms": nearest_rank(lat, 0.50) * 1e3,
        "latency_p90_ms": nearest_rank(lat, 0.90) * 1e3,
        "setup_s": setup_s * statistics.median(scales),
        "peak_rss_mb": max(rss),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(traced: Run, plain: Run, tracer) -> dict:
    """Per-layer metrics from the spans of ``traced`` (per op) and the
    workload statistics of ``plain``, which ran the same ops untraced;
    keys only a traced op reports (import times) come from ``traced``."""
    stats, pairs = tracer.summary()
    n = len(traced.ops)

    def samples(key):
        return ([s[key] for s in plain.stats if key in s]
                or [s[key] for s in traced.stats if key in s])

    def total(source):
        kind = source[0]
        if kind in ("calls", "self_s", "v1", "v2"):
            return stats.get(source[1], {}).get(kind, 0.0)
        if kind == "child":
            return pairs.get((source[1], source[2]), 0)
        if kind == "stat":
            return sum(samples(source[1]))
        raise ValueError(source)

    def value(source):
        kind = source[0]
        if kind in ("calls", "self_s", "v1", "v2", "child"):
            return total(source) / n
        if kind in ("stat", "median", "max"):
            got = samples(source[1])
            if not got:
                return 0.0
            return {"stat": statistics.fmean, "median": statistics.median,
                    "max": max}[kind](got)
        if kind == "ratio":
            den = total(source[2])
            return total(source[1]) / den if den else 0.0
        if kind == "overhead":
            return traced.wall / plain.wall
        raise ValueError(source)

    return {name: {"value": value(src), "unit": unit} for name, unit, src in PER_LAYER}


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, max_ops: int | None = None) -> dict:
    """Measure one workload; returns the full record (result plus context)."""
    wl, build_s = build(workloads, name, seed)
    setup_s = import_s + build_s
    if not trace:
        run = measure(wl, seconds, max_ops=max_ops)
        runs = [run]
        metrics = end_to_end(run, setup_s)
        probe_ms = [t * 1e3 for _, t in run.probes]
        extra = {
            "measured": end_to_end(run, setup_s, scaled=False),
            "probe_ms": {"min": min(probe_ms), "median": statistics.median(probe_ms),
                         "max": max(probe_ms), "count": len(probe_ms)},
        }
    else:
        from tracer import Tracer

        plain = measure(wl, seconds / 2, min_ops=1, max_ops=max_ops, probing=False)
        tracer = Tracer()
        wl.start_trace(tracer)
        try:
            traced = measure(wl, seconds, ops=plain.ops, tracer=tracer, probing=False)
        finally:
            wl.stop_trace(tracer)
        runs = [plain, traced]
        metrics = per_layer(traced, plain, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.csv.gz")
        extra = {}
    attempted = sum(len(r.ops) for r in runs)
    failed = sum(r.failed for r in runs)
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "error_rate": failed / attempted,
        "meta": {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "ops": [len(r.ops) for r in runs], "loop": "closed loop, 1 client",
            "setup_import_s": import_s, "setup_build_s": build_s,
            "commit": git_commit(), "machine": machine(),
        },
        "unscaled": extra,
        "failed_ops": [wl.describe(op) for r in runs
                       for op, ok in zip(r.ops, r.good) if not ok][:20],
    }


def profile(workloads, name: str, seed: int, seconds: float, top: int) -> None:
    """Print the cProfile top ``top`` for one workload (cli runs in-process)."""
    wl, _ = build(workloads, name, seed)
    call = getattr(wl, "call_in_process", wl.call)
    prof = cProfile.Profile()
    n, start = 0, time.perf_counter()
    prof.enable()
    for batch in wl.rounds():
        for op in batch:
            call(op)
            n += 1
        if time.perf_counter() - start >= seconds:
            break
    prof.disable()
    print(f"# cProfile of {n} {name} ops, seed {seed}")
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(top)
    stats.sort_stats("cumulative").print_stats(top)


def report(record: dict) -> None:
    meta, result = record["meta"], record["result"]
    print(f"# lrbench {meta['workload']} seed={meta['seed']} trace={int(meta['trace'])}: "
          f"{result['attempted']} ops ({meta['loop']}), {result['failed']} failed, "
          f"error_rate {record['error_rate']:.4g}")
    for name, m in result["metrics"].items():
        print(f"#   {name:<40} {m['value']:>14.6g} {m['unit']}")
    extra = record["unscaled"]
    if extra:
        probe = extra["probe_ms"]
        print(f"# times above are scaled to a {REF_PROBE_S * 1e3:g} ms probe; the probe took"
              f" {probe['min']:.4f} / {probe['median']:.4f} / {probe['max']:.4f} ms"
              f" (min / median / max of {probe['count']})")
        for name, m in extra["measured"].items():
            print(f"#   measured: {name:<30} {m['value']:>14.6g} {m['unit']}")
    for op in record["failed_ops"]:
        print(f"# failed op: {op[:200]}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{meta['workload']}-seed{meta['seed']}-trace{int(meta['trace'])}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["roundtrip", "witness", "census", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--profile", type=int, metavar="N", default=0,
                        help="print the cProfile top N instead of measuring")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "lrlab" / "__init__.py").is_file():
        print(f"lrbench: no lrlab sources under {src}", file=sys.stderr)
        return 2
    import_s = import_seconds()
    sys.path.insert(0, str(src))
    import workloads

    if Path(workloads.nilmod.__file__).resolve().parent != src.resolve() / "lrlab":
        print("lrbench: lrlab was imported from outside this checkout", file=sys.stderr)
        return 2
    if args.profile:
        profile(workloads, args.workload, args.seed, args.seconds, args.profile)
        return 0
    report(run_workload(workloads, args.workload, args.seed, args.seconds,
                        bool(args.trace), import_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
