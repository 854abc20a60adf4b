"""The four seeded workloads of the lrlab benchmark.

A workload is built from a seed (its set-up) and then yields an endless
stream of rounds, each a list of ops.  ``call`` runs one op against the
library and is the only timed part; ``check`` compares the result with a
reference and never raises.  The library only ever sees the generated
inputs; the seed stays here.

Why these workloads (see README.md for the full layer map):

- roundtrip: realize/tableau round trip on horizontal strips, the main
  hot spot; many tiny echelon calls, no hom systems, no processes.
- witness: exact-sequence certificates for box moves; the only workload
  that runs ``witness`` and ``poles.box_move_pole_partition``.
- census: brute-force submodule census; the only workload that solves
  hom systems, so the echelon kernel sees large systems here.
- cli: one ``python -m lrlab.cli`` child per op; shows start-up and import
  cost and is the control for kernel changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

import lrlab.boxmoves as boxmoves
import lrlab.cli as cli
import lrlab.nilmod as nilmod
import lrlab.oracle as oracle
import lrlab.partitions as pt
import lrlab.tableaux as tb
import lrlab.witness as witness

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
PRIMES = (2, 3)

WITNESS_CHECKS = frozenset({
    "dimension_split", "iota_injective", "pi_surjective", "composition_zero",
    "iota_commutes", "pi_commutes", "iota_degree_zero", "pi_degree_zero",
    "iota_maps_subspace", "pi_onto_subspace", "subspace_dimension_split",
    "middle_tableau", "end_tableau",
})

TWO_CLASS = ((3, 1), (4, 3, 1), (3, 1))
FIVE_CLASS = ((3, 1), (4, 3, 2, 1), (3, 2, 1))


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def chain_of(t) -> list[list[int]]:
    return [list(c) for c in t.chain]


def shape_json(alpha, beta, gamma) -> str:
    return json.dumps({"alpha": list(alpha), "beta": list(beta), "gamma": list(gamma)},
                      separators=(",", ":"))


# -- input generation ---------------------------------------------------

def _horizontal_gammas(beta):
    """Distinct partitions obtained from beta by shortening columns by one."""
    vals = sorted(set(beta), reverse=True)
    counts = [beta.count(v) for v in vals]
    seen = set()
    for choice in product(*[range(c + 1) for c in counts]):
        g = []
        for v, c, k in zip(vals, counts, choice):
            g += [v] * (c - k) + [v - 1] * k
        gamma = pt.partition(sorted(g, reverse=True))
        if gamma not in seen:
            seen.add(gamma)
            yield gamma


def strip_tableaux(max_weight: int) -> list:
    """Every tableau on a horizontal-strip shape with |beta| <= max_weight,
    in a fixed order (5814 of them for max_weight 12)."""
    out = []
    for n in range(1, max_weight + 1):
        for beta in pt.partitions_of(n):
            for gamma in _horizontal_gammas(beta):
                m = n - pt.weight(gamma)
                if m == 0:
                    continue
                for alpha in pt.partitions_of(m):
                    out.extend(tb.enumerate_tableaux(tb.Shape(alpha, beta, gamma)))
    return out


def _cycle_chunks(rng: random.Random, pool: list, size: int):
    """Endless seeded permutations of ``pool``, cut into chunks of ``size``."""
    while True:
        order = list(range(len(pool)))
        rng.shuffle(order)
        for i in range(0, len(order), size):
            yield [pool[k] for k in order[i:i + size]]


class InProcess:
    """Workloads that call the library inside this process; tracing
    patches the lrlab namespaces here."""

    @staticmethod
    def start_trace(tracer) -> None:
        tracer.install()

    @staticmethod
    def stop_trace(tracer) -> None:
        tracer.uninstall()

    @staticmethod
    def stats(op, out) -> dict:
        return {}


# -- roundtrip ------------------------------------------------------------

class Roundtrip(InProcess):
    """realize_tableau then tableau_of_embedding must give the tableau back."""

    name = "roundtrip"
    chunk = 250

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = strip_tableaux(12)

    def rounds(self):
        rng = random.Random(self.seed)
        for chunk in _cycle_chunks(rng, self.pool, self.chunk):
            yield [(t, rng.choice(PRIMES)) for t in chunk]

    @staticmethod
    def call(op):
        t, p = op
        return nilmod.tableau_of_embedding(nilmod.realize_tableau(t, p))

    @staticmethod
    def check(op, out) -> bool:
        return out == op[0]

    @staticmethod
    def describe(op) -> str:
        t, p = op
        return f"p={p} chain={chain_of(t)}"


# -- witness --------------------------------------------------------------

class Witness(InProcess):
    """witness_sequence on a box-move edge; every report entry must hold."""

    name = "witness"
    chunk = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = [(t, t2, move) for t in strip_tableaux(12)
                     for t2, move in boxmoves.box_successors(t)]

    def rounds(self):
        rng = random.Random(self.seed)
        for chunk in _cycle_chunks(rng, self.pool, self.chunk):
            yield [(edge, rng.choice(PRIMES)) for edge in chunk]

    @staticmethod
    def call(op):
        (t, t2, move), p = op
        return witness.witness_sequence(t, t2, move, p)

    @staticmethod
    def check(op, out) -> bool:
        report = out.report
        return set(report) == WITNESS_CHECKS and all(report.values())

    @staticmethod
    def describe(op) -> str:
        (t, t2, move), p = op
        return f"p={p} low={chain_of(t)} high={chain_of(t2)} move={move.u},{move.v}"


# -- census -----------------------------------------------------------------

# One round runs every entry once, in seeded order.  All shapes have
# beta[0] <= 4, so the census uses the 20-object catalog.  The two published
# shapes are always in.  A round mixes hom-bound queries (many survivors,
# each fingerprinted against the catalog) with enumeration-bound ones (many
# generator tuples, few survivors), which make up the median.  Semisimple
# shapes such as (1,1)/(1^5)/(1^3) are left out: one of them costs as much
# as the rest of a round, so the run length would hinge on it.
CENSUS_POOL = (
    # published shapes
    (FIVE_CLASS, 2),
    (TWO_CLASS, 2),
    (((2, 1), (3, 2, 1), (2, 1)), 3),
    # several classes per shape
    (((2, 1), (3, 2, 1), (2, 1)), 2),
    (((2, 1), (3, 2, 1, 1), (2, 1, 1)), 2),
    (((2, 1), (4, 2, 1), (3, 1)), 2),
    (((3, 1), (4, 2, 1), (2, 1)), 2),
    # hom-bound
    (((2, 1), (2, 2, 2), (2, 1)), 2),
    (((3,), (3, 3), (3,)), 3),
    (((2,), (2, 2, 1), (2, 1)), 3),
    # enumeration-bound over F_3 (generic path)
    (((2, 1), (4, 1, 1), (2, 1)), 3),
    (((2, 1), (2, 1, 1), (1,)), 3),
    (((3, 1), (3, 2), (1,)), 3),
    (((4, 1), (4, 1), ()), 3),
    (((2, 1), (2, 1), ()), 3),
    (((2, 1), (4, 1), (2,)), 3),
    (((1, 1), (2, 1, 1), (1, 1)), 3),
    (((3,), (4, 1, 1), (1, 1, 1)), 3),
    (((2,), (4, 2, 1), (2, 2, 1)), 3),
    (((4,), (4, 1), (1,)), 3),
    (((1, 1), (4, 1), (3,)), 3),
    (((2,), (2, 1, 1), (1, 1)), 3),
    (((3,), (3, 1), (1,)), 3),
    (((1, 1), (3, 2), (2, 1)), 3),
    (((2,), (4, 3), (3, 2)), 3),
    (((1, 1), (2, 2), (1, 1)), 3),
    # enumeration-bound over F_2 (bitmask path)
    (((2, 1, 1), (2, 1, 1), ()), 2),
    (((1, 1, 1), (2, 2, 2, 1), (1, 1, 1, 1)), 2),
    (((3, 3), (4, 3), (1,)), 2),
    (((3, 1, 1), (4, 2, 1), (1, 1)), 2),
    (((2, 1, 1), (3, 2, 2), (1, 1, 1)), 2),
    (((2, 1, 1), (3, 3, 1), (2, 1)), 2),
    (((2, 1, 1), (3, 2, 1), (2,)), 2),
    (((4, 2), (4, 3), (1,)), 2),
    (((3, 1, 1), (3, 1, 1), ()), 2),
    (((2, 1, 1), (4, 2, 1), (3,)), 2),
    (((2, 2), (3, 3, 1), (1, 1, 1)), 2),
    (((3, 2), (4, 3), (1, 1)), 2),
    (((4, 2), (4, 2), ()), 2),
    (((2, 1, 1), (3, 1, 1), (1,)), 2),
    (((2, 2), (4, 2, 1), (3,)), 2),
    (((2, 2), (2, 2, 1), (1,)), 2),
    (((2, 2), (3, 2, 1), (2,)), 2),
    (((3, 1), (4, 2, 1), (1, 1, 1)), 2),
    (((2, 1), (3, 3, 1), (2, 1, 1)), 2),
    (((4, 1), (4, 3), (2,)), 2),
    (((3, 1), (4, 3), (3,)), 2),
    (((2, 1), (2, 2, 1), (1, 1)), 2),
    (((1, 1), (2, 2, 1, 1, 1), (1, 1, 1, 1, 1)), 2),
    (((3, 1), (4, 1, 1), (1, 1)), 2),
)


def census_key(shape, p) -> str:
    alpha, beta, gamma = shape
    return f"p={p} {shape_json(alpha, beta, gamma)}"


def census_summary(c) -> dict:
    """The order-independent part of a census result."""
    return {
        "total": c.total_submodules,
        "per_tableau": sorted([chain_of(t), n] for t, n in c.per_tableau.items()),
        "classes": sorted([chain_of(k.tableau), list(k.fingerprint), k.submodule_count]
                          for k in c.classes),
    }


def kernel_tuples(shape, p) -> int:
    """Generator tuples the census visits: prod_i p^dim ker T^alpha_i."""
    alpha, beta, _ = shape
    out = 1
    for a in alpha:
        out *= p ** sum(min(a, b) for b in beta)
    return out


class Census(InProcess):
    """enumerate_submodules checked against published counts and digests
    of the order-independent results recorded at the seed commit."""

    name = "census"

    def __init__(self, seed: int, reference: dict | None = None):
        self.seed = seed
        self.reference = (reference if reference is not None else load_reference())["census"]
        self.pool = [(tb.Shape(*shape), p, shape) for shape, p in CENSUS_POOL]

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            order = list(self.pool)
            rng.shuffle(order)
            yield order

    @staticmethod
    def call(op):
        shape, p, _ = op
        return oracle.enumerate_submodules(shape, p, guard=oracle.DEFAULT_GUARD)

    def check(self, op, out) -> bool:
        _, p, raw = op
        summary = census_summary(out)
        if sum(out.per_tableau.values()) != out.total_submodules:
            return False
        if sum(k.submodule_count for k in out.classes) != out.total_submodules:
            return False
        if p == 2 and raw == TWO_CLASS:
            per = sorted(len(out.classes_of(t)) for t in out.per_tableau)
            if len(out.classes) != 2 or per != [1, 1]:
                return False
        if p == 2 and raw == FIVE_CLASS:
            per = sorted(len(out.classes_of(t)) for t in out.per_tableau)
            if len(out.classes) != 5 or per != [1, 2, 2]:
                return False
        return self.reference.get(census_key(raw, p)) == digest(summary)

    @staticmethod
    def stats(op, out) -> dict:
        shape, p, raw = op
        return {
            "tuples_nominal": oracle.nominal_tuple_count(shape, p),
            "tuples_visited": kernel_tuples(raw, p),
            "kept_submodules": out.total_submodules,
        }

    @staticmethod
    def describe(op) -> str:
        return census_key(op[2], op[1])


# -- cli --------------------------------------------------------------------

RUNNING = ((3, 2), (4, 3, 3, 2, 1), (3, 2, 2, 1))
ALGO = ((3, 2, 1), (6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1))
BIG = ((4, 2, 1, 1), (8, 7, 6, 5, 4, 3, 2, 1), (7, 6, 5, 4, 3, 2, 1))  # 90 tableaux
MID = ((3, 2, 1, 1), (7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1))  # 35 tableaux
SMALL = (TWO_CLASS, ((4, 2), (6, 4, 2), (4, 2)))
STRIPS = (FIVE_CLASS, RUNNING, ((2, 1), (5, 2, 1), (4, 1)),
          ((3, 2), (5, 4, 3, 2, 1), (4, 3, 2, 1)), ALGO, MID)

# One round of 60 cli ops.  Kinds whose candidates differ in cost run every
# candidate once (None), so every round has the same cost profile; kinds
# whose candidates cost about the same are drawn by seed.  The
# combinatorial kinds never need numpy; hasse --relation box on the
# 90-tableau shape is the one slow op.
CLI_MIX = (
    ("enumerate", None), ("orders", None), ("hasse", None), ("oracle", None),
    ("dom2box", 6), ("decompose", 6),
    ("realize", 4), ("tableau", 3), ("witness", 3), ("hom", 3),
)


def cli_candidates() -> dict[str, list[list[str]]]:
    """Every argument list each kind of cli op may draw from."""
    strips = [shape_json(*s) for s in STRIPS]
    big = shape_json(*BIG)
    strip = [t for t in strip_tableaux(8) if len(t.columns) >= 3]
    tabs = [json.dumps(t.to_json(), separators=(",", ":")) for t in strip[::41]]
    embeddings = []
    for i, t in enumerate(strip[::97]):
        E = nilmod.realize_tableau(t, PRIMES[i % 2])
        embeddings.append(json.dumps(E.to_json(), separators=(",", ":")))
    algo = tb.Shape(*ALGO)
    algo_tabs = tb.enumerate_tableaux(algo)
    pairs = [(a, b) for a in algo_tabs for b in algo_tabs
             if a != b and tb.dominance_leq(a, b)]
    edges = [(a, b, m) for a in algo_tabs for b, m in boxmoves.box_successors(a)]

    def word(t):
        return ",".join(str(x) for x in tb.reading_word(t))

    out = {
        "enumerate": [["enumerate", s] for s in [shape_json(*s) for s in SMALL] + strips + [big]],
        "orders": [["orders", s, "--relation", r] for s in strips for r in ("dom", "box")],
        "hasse": [["hasse", s, "--relation", r] for s in strips for r in ("dom", "box")]
        + [["hasse", big, "--relation", "box"]],
        "dom2box": [["dom2box", shape_json(*ALGO), "--from", word(a), "--to", word(b)]
                    for a, b in pairs],
        "decompose": [["decompose", t] for t in tabs],
        "realize": [["realize", t, "-p", str(p)] for t in tabs for p in PRIMES],
        "tableau": [["tableau", e] for e in embeddings],
        "witness": [["witness", shape_json(*ALGO), "--from", word(a), "--to", word(b),
                     "--move", f"{m.u},{m.v}", "-p", str(p)]
                    for a, b, m in edges for p in PRIMES],
        "hom": [["hom", e1, e2] for e1 in embeddings for e2 in embeddings
                if json.loads(e1)["p"] == json.loads(e2)["p"]],
        "oracle": [["oracle", shape_json(*TWO_CLASS), "-p", "2"]],
    }
    return out


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def cli_output_digest(argv: list[str], stdout: bytes) -> str:
    """Digest of the invariant part of a cli result: the whole JSON, except
    the census class representatives, which depend on enumeration order."""
    data = json.loads(stdout)
    if argv[0] == "oracle":
        for cls in data["classes"]:
            cls.pop("representative", None)
    return digest(data)


def import_times(stderr: bytes) -> dict:
    """Cumulative import seconds of lrlab.cli and numpy from ``-X importtime``."""
    out = {}
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        name = fields[2].strip()
        if name in ("lrlab.cli", "numpy"):
            try:
                out[name] = int(fields[1]) / 1e6
            except ValueError:
                continue
    return {"import_s": out.get("lrlab.cli", 0.0), "import_numpy_s": out.get("numpy", 0.0)}


class CliResult:
    __slots__ = ("code", "stdout", "stderr", "cpu_s", "maxrss_mb")

    def __init__(self, code, stdout, stderr, cpu_s, maxrss_mb):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.cpu_s, self.maxrss_mb = cpu_s, maxrss_mb


class Cli:
    """Sequential ``python -m lrlab.cli`` children, never more than one.

    Traced, each child runs ``child.py`` under ``-X importtime`` instead;
    it records its own spans, which are merged into the tracer here.
    """

    name = "cli"

    def __init__(self, seed: int, reference: dict | None = None):
        self.seed = seed
        self.reference = (reference if reference is not None else load_reference())["cli"]
        self.candidates = cli_candidates()
        self.scratch = ROOT / ".bench_out"
        self.env = {k: v for k, v in os.environ.items() if k != "LRLAB_GUARD"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.tracer = None

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            ops = []
            for kind, n in CLI_MIX:
                pool = self.candidates[kind]
                ops += pool if n is None else [rng.choice(pool) for _ in range(n)]
            rng.shuffle(ops)
            yield ops

    def start_trace(self, tracer) -> None:
        self.tracer = tracer

    def stop_trace(self, tracer) -> None:
        self.tracer = None

    def call(self, argv):
        self.scratch.mkdir(exist_ok=True)
        spans = self.scratch / f"child-{os.getpid()}.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "lrlab.cli", *argv]
        else:
            cmd = [sys.executable, "-X", "importtime", str(BENCH / "child.py"),
                   str(spans), str(self.tracer.current_op), "--", *argv]
        with tempfile.TemporaryFile(dir=self.scratch) as out, \
                tempfile.TemporaryFile(dir=self.scratch) as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            result = CliResult(proc.returncode, out.read(), err.read(),
                               usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
        if self.tracer is not None and spans.exists():
            with open(spans, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh))
            spans.unlink()
        return result

    def check(self, argv, out) -> bool:
        if out.code != 0:
            return False
        try:
            got = cli_output_digest(argv, out.stdout)
        except (ValueError, KeyError, TypeError):
            return False
        return self.reference.get(cli_key(argv)) == got

    def stats(self, argv, out) -> dict:
        got = {"child_cpu_s": out.cpu_s, "child_maxrss_mb": out.maxrss_mb}
        if self.tracer is not None:
            got.update(import_times(out.stderr))
        return got

    @staticmethod
    def call_in_process(argv):
        """The same command run inside this process (for profiles)."""
        return run_cli_in_process(argv)

    @staticmethod
    def describe(argv) -> str:
        return cli_key(argv)


WORKLOADS = {w.name: w for w in (Roundtrip, Witness, Census, Cli)}


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """Run one cli command inside this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()
