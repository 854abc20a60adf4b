import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import lrlab
import lrlab.cli as cli
from conftest import FIVE_CLASS, iter_all_shapes, iter_strip_shapes
from lrlab import linalg as la
from lrlab import nilmod
from lrlab.boxmoves import box_successors
from lrlab.cli import run
from lrlab.errors import InvariantViolation, guard_budget
from lrlab.nilmod import realize_tableau
from lrlab.tableaux import Shape, enumerate_tableaux, reading_word

FIVE = '{"alpha":[3,1],"beta":[4,3,2,1],"gamma":[3,2,1]}'
ALGO = '{"alpha":[3,2,1],"beta":[6,5,4,3,2,1],"gamma":[5,4,3,2,1]}'
SMALL = '{"alpha":[2,1],"beta":[5,2,1],"gamma":[4,1]}'
PICKET = '{"alpha":[1],"beta":[2],"gamma":[1],"chain":[[1],[2]]}'
PICKET_EMBEDDING = '{"p":3,"beta":[2],"T":[[0,0],[1,0]],"A_span":[[0,1]],"grading":[-1,0]}'


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_enumerate(capsys):
    code, data = run_json(capsys, ["enumerate", FIVE])
    assert code == 0
    assert data["count"] == 3
    assert data["tableaux"][0]["chain"][0] == [3, 2, 1]


def test_enumerate_infeasible_is_ok(capsys):
    code, data = run_json(
        capsys, ["enumerate", '{"alpha":[1,1],"beta":[3,2,2],"gamma":[3,2]}']
    )
    assert code == 0
    assert data["count"] == 0


def test_orders_and_hasse(capsys):
    code, data = run_json(capsys, ["orders", FIVE, "--relation", "dom"])
    assert code == 0
    assert data["leq"][0][2] is True and data["leq"][2][0] is False
    code = run(["--format", "dot", "hasse", FIVE, "--relation", "dom"])
    out = capsys.readouterr().out
    assert code == 0
    assert "digraph dom" in out and "->" in out


def test_dom2box(capsys):
    code, data = run_json(
        capsys,
        ["dom2box", ALGO, "--from", "1,3,2,2,1,1", "--to", "2,3,2,1,1,1"],
    )
    assert code == 0
    assert data["moves"] == 1
    assert data["steps_from_top"][-1] == [1, 3, 2, 2, 1, 1]
    code, data = run_json(
        capsys,
        ["dom2box", ALGO, "--from", "1,3,2,2,1,1", "--to", "2,3,2,1,1,1",
         "--pick-l", "3"],
    )
    assert code == 0
    assert [2, 3, 1, 2, 1, 1] in data["words"]


def test_dom2box_word_with_other_entry_counts_is_bad_input(capsys):
    # ALGO needs three 1s, two 2s and one 3
    code = run(["dom2box", ALGO, "--from", "1,3,2,2,2,1", "--to", "2,3,2,1,1,1"])
    assert code == 2
    assert "alpha = [3, 2, 1] needs {1: 3, 2: 2, 3: 1}" in capsys.readouterr().err


def test_decompose_realize_tableau_round_trip(capsys, tmp_path):
    code, tabs = run_json(capsys, ["enumerate", SMALL])
    tableau_json = json.dumps(tabs["tableaux"][0])
    code, dec = run_json(capsys, ["decompose", tableau_json])
    assert code == 0
    assert any(part["pole"] for part in dec["constituents"])

    code, emb = run_json(capsys, ["realize", tableau_json, "-p", "3"])
    assert code == 0
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(emb))
    code, back = run_json(capsys, ["tableau", str(path)])
    assert code == 0
    assert back["chain"] == tabs["tableaux"][0]["chain"]


def test_strip_realization_of_another_chain_exits_1_with_a_reproducer(capsys, monkeypatch):
    # a strip's pole pieces always realize it, so a realization that reads
    # back another chain is a verification failure, and its message ends
    # in the one command that runs it again
    t, other = enumerate_tableaux(Shape.from_json(json.loads(SMALL)))
    wrong = realize_tableau(other, 3)
    monkeypatch.setattr(nilmod, "graded_pole_module",
                        lambda pieces, p, degrees: (wrong.B, wrong.span))
    with pytest.raises(InvariantViolation) as info:
        realize_tableau(t, 3)
    message = str(info.value)
    argv = shlex.split(message.split("; reproduce with: ")[1])
    assert argv[:2] == ["lrlab", "realize"]
    args = cli.build_parser().parse_args(argv[1:])
    assert (cli._tableau(args.tableau), args.prime) == (t, 3)
    assert run(argv[1:]) == 1
    assert capsys.readouterr().err == f"verification failure: {message}\n"


def test_witness(capsys):
    code, data = run_json(
        capsys,
        ["witness", SMALL, "--from", "1,2,1", "--to", "2,1,1", "--move", "1,2"],
    )
    assert code == 0
    assert all(data["report"].values())


def test_witness_wrong_move_is_bad_input(capsys):
    code = run(["witness", SMALL, "--from", "1,2,1", "--to", "2,1,1",
                "--move", "1,3"])
    assert code == 2


def test_hom_and_profile(capsys, tmp_path):
    code, emb = run_json(
        capsys, ["realize", '{"alpha":[1],"beta":[2],"gamma":[1],"chain":[[1],[2]]}']
    )
    assert code == 0
    p1 = tmp_path / "e1.json"
    p1.write_text(json.dumps(emb))
    code, data = run_json(capsys, ["hom", str(p1), str(p1)])
    assert code == 0
    assert data["hom_dim"] >= 1
    code, prof = run_json(capsys, ["profile", str(p1)])
    assert code == 0
    assert prof["profile"]


def test_json_output_is_one_write_of_json_dumps_bytes(capsys, monkeypatch, tmp_path):
    """Every subcommand above that prints JSON writes it in one call, and
    its bytes are those of ``json.dump`` with indent 2 and a newline,
    which writes once per encoder chunk."""
    embedding = tmp_path / "e.json"
    embedding.write_text(PICKET_EMBEDDING)
    payloads = []
    emit = cli._emit

    def recording(args, payload, text_lines=None):
        payloads.append(payload)
        return emit(args, payload, text_lines)

    class Counting(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    monkeypatch.setattr(cli, "_emit", recording)
    for argv in [["enumerate", FIVE],
                 ["orders", FIVE, "--relation", "dom"],
                 ["hasse", FIVE, "--relation", "box"],
                 ["dom2box", ALGO, "--from", "1,3,2,2,1,1", "--to", "2,3,2,1,1,1"],
                 ["decompose", PICKET],
                 ["realize", PICKET, "-p", "3"],
                 ["tableau", str(embedding)],
                 ["witness", SMALL, "--from", "1,2,1", "--to", "2,1,1", "--move", "1,2"],
                 ["hom", str(embedding), str(embedding)],
                 ["profile", str(embedding)],
                 ["oracle", '{"alpha":[3,1],"beta":[4,3,1],"gamma":[3,1]}', "-p", "2"]]:
        out = Counting()
        monkeypatch.setattr(sys, "stdout", out)
        assert run(argv) == 0, argv
        expected = io.StringIO()
        json.dump(payloads[-1], expected, indent=2)
        expected.write("\n")
        assert (out.writes, out.getvalue()) == (1, expected.getvalue()), argv
    assert len(payloads) == 11


def _conjugated(data, rng):
    """The embedding JSON ``data`` under a random invertible base change S
    over F_p: T becomes S T S^-1 and A_span the rows of S a.  The grading
    is dropped, since S mixes degrees."""
    p, n = data["p"], len(data["T"])
    while True:
        S = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        # [S | I] reduces to [I | S^-1] when S is invertible
        R, pivots = la.rref([row + list(e) for row, e in zip(S, la.identity(n))], p)
        if pivots[n - 1] == n - 1:
            break
    inverse = [row[n:] for row in R]
    T = la.mul(la.mul(S, data["T"], p), inverse, p)
    A = la.mul(data["A_span"], list(zip(*S)), p)
    return {"p": p, "beta": data["beta"], "T": [list(row) for row in T],
            "A_span": [list(row) for row in A]}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_numeric_commands_do_not_depend_on_the_basis(capsys, p):
    # every embedding of the five-class shape in a random basis prints what
    # it prints in the basis of its realization
    rng = random.Random(p)
    given = [realize_tableau(t, p).to_json() for t in enumerate_tableaux(FIVE_CLASS)]
    for e1, e2 in zip(given, given[1:] + given[:1]):
        c1, c2 = _conjugated(e1, rng), _conjugated(e2, rng)
        assert c1["T"] != e1["T"]
        for args in (["tableau", "{0}"], ["hom", "{0}", "{1}"], ["hom", "{1}", "{0}"],
                     ["profile", "{0}"], ["profile", "{0}", "--max-i", "4", "--max-l", "5"]):
            outputs = []
            for pair in ((e1, e2), (c1, c2)):
                argv = [a.format(*map(json.dumps, pair)) for a in args]
                assert run(argv) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], args


@pytest.mark.parametrize("bounds", [["--max-i", "-3"], ["--max-l", "0"],
                                    ["--max-i", "-1", "--max-l", "-1"]])
def test_profile_refuses_bad_bounds(capsys, bounds):
    # these used to exit 0 with an empty table
    assert run(["profile", PICKET_EMBEDDING, *bounds]) == 2
    assert capsys.readouterr().err.startswith("bad input: need max_i >= 0")
    assert run(["profile", PICKET_EMBEDDING, "--max-i", "0", "--max-l", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["profile"] == [[1]]


def test_profile_guard(capsys, monkeypatch):
    # (max_i + 1) * max_ell cells: 12 fit a guard of 12, 13 do not
    monkeypatch.setenv("LRLAB_GUARD", "12")
    assert run(["profile", PICKET_EMBEDDING, "--max-i", "3", "--max-l", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["profile"]) == 4
    assert run(["profile", PICKET_EMBEDDING, "--max-i", "12", "--max-l", "1"]) == 3
    assert capsys.readouterr().err == (
        "guard exceeded: a profile of 13 x 1 = 13 cells exceeds the guard"
        " of 12; raise LRLAB_GUARD to allow it\n")
    # bad bounds are bad input before they are a large table
    assert run(["profile", PICKET_EMBEDDING, "--max-i", "-13", "--max-l", "-1"]) == 2


@pytest.mark.parametrize("value", ["abc", "-5", "+5", "1e3", " 12"])
def test_guard_must_be_a_nonnegative_integer(capsys, monkeypatch, value):
    # these used to exit 2 without naming the variable (abc, 1e3), exit 3
    # on a negative guard, or pass as 5 and 12
    monkeypatch.setenv("LRLAB_GUARD", value)
    assert run(["profile", PICKET_EMBEDDING, "--max-i", "0", "--max-l", "1"]) == 2
    assert capsys.readouterr().err == (
        f"bad input: LRLAB_GUARD must be a nonnegative integer, got {value!r}\n")
    monkeypatch.setenv("LRLAB_GUARD", "0")
    assert run(["profile", PICKET_EMBEDDING, "--max-i", "0", "--max-l", "1"]) == 3


def test_layer_ranks_of_no_jordan_type_exit_1(capsys, monkeypatch):
    # ranks that are no Jordan type are a bug, not bad input
    monkeypatch.setattr(nilmod, "bisect_left", lambda pivots, s: 0)
    assert run(["tableau", PICKET_EMBEDDING]) == 1
    assert capsys.readouterr().err.startswith("verification failure: ranks [")


def test_oracle_cli(capsys):
    code, data = run_json(
        capsys, ["oracle", '{"alpha":[3,1],"beta":[4,3,1],"gamma":[3,1]}', "-p", "2"]
    )
    assert code == 0
    assert len(data["classes"]) == 2


def test_oracle_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("LRLAB_GUARD", "10")
    code = run(["oracle", '{"alpha":[3,1],"beta":[4,3,1],"gamma":[3,1]}'])
    assert code == 3
    assert capsys.readouterr().err == (
        "guard exceeded: census for Shape(alpha=(3, 1), beta=(4, 3, 1),"
        " gamma=(3, 1)) over F_2 needs 65536 nominal tuples; raise LRLAB_GUARD"
        " to allow it, or pass --slow (slow=True from Python)\n")
    monkeypatch.delenv("LRLAB_GUARD")


def test_bad_input_exit_code(capsys):
    assert run(["enumerate", "{not json"]) == 2
    assert run(["enumerate", '{"alpha":[1],"beta":[2,1],"gamma":[1]}']) == 2


N32 = [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
       [0, 0, 0, 0, 0], [0, 0, 0, 1, 0]]


@pytest.mark.parametrize("argv", [
    ["enumerate", "[1,2]"],
    ["enumerate", "null"],
    ["enumerate", '"x"'],
    ["realize", "[]"],
    ["tableau", "3"],
    ["enumerate", '{"alpha":[1],"beta":[2],"gamma":[1.5]}'],
    ["enumerate", '{"alpha":[true],"beta":[2],"gamma":[1]}'],
    ["realize", '{"chain":[[1],[2.0]]}'],
    # dim * p^2 >= 2^63 would overflow int64 products
    ["tableau", json.dumps({"p": 1358187923, "T": N32, "A_span": []})],
    ["tableau", '{"p":2.9,"T":[[0,0],[1,0]],"A_span":[]}'],
    ["tableau", '{"p":true,"T":[[0,0],[1,0]],"A_span":[]}'],
    ["tableau", '{"p":2,"T":[[0,0],[1.7,0]],"A_span":[]}'],
    ["tableau", '{"p":2,"T":[[0,0],[1,0]],"A_span":[[0.5,1]]}'],
    ["tableau", '{"p":2,"T":[[0,0],[1,0]],"A_span":[],"grading":[0.5,1.5]}'],
    ["tableau", '{"p":2,"T":[[99999999999999999999]],"A_span":[]}'],
    ["tableau", '{"p":2,"T":5,"A_span":[]}'],
    # beta, when given, must be the Jordan type of T
    ["tableau", '{"p":2,"beta":[5,5],"T":[[0,0],[1,0]],"A_span":[]}'],
    ["decompose", '{"columns":[1]}'],
    ["decompose", '{"columns":[[1.5,0.2,[1]]]}'],
    ["decompose", '{"columns":[[1,0,[1.9]]]}'],
    ["decompose", '{"columns":[[true,0,[1]]]}'],
    # an entry above the number of entries cannot be an LR tableau, and
    # counting every value up to it would need terabytes
    ["decompose", '{"columns":[[1,0,[1000000000000]]]}'],
])
def test_malformed_input_exits_2(capsys, argv):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("bad input:") and "Traceback" not in err


def test_paper_examples_cli(capsys):
    code = run(["paper-examples"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out


def test_memory_error_exits_3(capsys, monkeypatch):
    def exhausted(shape):
        raise MemoryError

    monkeypatch.setattr(cli, "enumerate_tableaux", exhausted)
    assert run(["enumerate", FIVE]) == 3
    err = capsys.readouterr().err
    assert err == "guard exceeded: out of memory\n"


HUGE = 10**12
SRC = os.path.dirname(os.path.dirname(lrlab.__file__))
# the child caps its own address space at 4 GiB before loading lrlab, so a
# runaway allocation fails there on any host
CHILD = ("import resource, runpy; "
         "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
         "runpy.run_module('lrlab.cli', run_name='__main__')")
# runs one command, then reports on stderr, as JSON, whether numpy and
# dataclasses got loaded and which lrlab modules did
CHILD_MODULES = (
    "import json, sys; from lrlab.cli import run; code = run(sys.argv[1:]); "
    "print(json.dumps({'numpy': 'numpy' in sys.modules, "
    "'dataclasses': 'dataclasses' in sys.modules, "
    "'lrlab': sorted(m for m in sys.modules if m.startswith('lrlab.'))}), "
    "file=sys.stderr); sys.exit(code)")


def run_child(argv, child=CHILD, timeout=30):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", child, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("tableau", [
    {"chain": [[HUGE]]},
    {"columns": [[HUGE, HUGE, []]]},
])
def test_decompose_huge_empty_column(tableau):
    # no per-row work: both used to run out of time and memory
    done = run_child(["decompose", json.dumps(tableau)])
    assert done.returncode == 0, done.stderr
    (part,) = json.loads(done.stdout)["constituents"]
    assert part["empty_pickets"] == [HUGE]


@pytest.mark.parametrize("argv", [
    ["enumerate"],
    ["orders", "--relation", "dom"],
])
def test_huge_row_count_shape_runs(argv):
    # one slot per row of beta_1 used to exhaust memory before the search
    shape = {"alpha": [1], "beta": [HUGE, 1], "gamma": [HUGE]}
    done = run_child([*argv, json.dumps(shape)])
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
    if argv[0] == "enumerate":
        assert data["count"] == 1
        assert data["tableaux"][0]["chain"] == [[HUGE], [HUGE, 1]]
    else:
        assert data["words"] == [[1]] and data["leq"] == [[True]]


@pytest.mark.parametrize("argv", [
    ["enumerate"],
    ["orders", "--relation", "dom"],
    ["hasse", "--relation", "box"],
])
def test_huge_alpha_exits_3(argv):
    # the entry counts of alpha used to be built one part at a time until
    # a timeout killed the child
    shape = {"alpha": [HUGE], "beta": [HUGE], "gamma": []}
    done = run_child([*argv, json.dumps(shape)])
    assert done.returncode == 3, done.stderr
    assert done.stderr == (f"guard exceeded: |alpha| = {HUGE} exceeds the guard of"
                           f" {guard_budget()}; raise LRLAB_GUARD to allow it\n")


@pytest.mark.parametrize("shape", [
    {"alpha": [40], "beta": [40], "gamma": []},
    {"alpha": [1] * 1200, "beta": [1] * 1200, "gamma": []},
])
def test_enumerate_tall_column_and_many_columns(shape):
    # the search used to double its time with each cell of one column,
    # and to exit 1 with a RecursionError on 1200 columns
    done = run_child(["enumerate", json.dumps(shape)], timeout=10)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["count"] == 1


def test_dom2box_beside_a_huge_blank_column():
    # the vertical-strip test reads the columns, so a blank column of
    # 10^12 rows costs nothing
    shape = {"alpha": [3, 2, 1], "beta": [HUGE, 6, 5, 4, 3, 2, 1],
             "gamma": [HUGE, 5, 4, 3, 2, 1]}
    done = run_child(["dom2box", json.dumps(shape),
                      "--from", "1,3,2,2,1,1", "--to", "2,3,2,1,1,1"])
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["moves"] == 1


@pytest.mark.parametrize("bounds", [["--max-i", str(HUGE)],
                                    ["--max-i", "0", "--max-l", str(HUGE)]])
def test_profile_with_huge_bounds_exits_3(bounds):
    # the table used to be built cell by cell until a timeout killed it
    done = run_child(["profile", PICKET_EMBEDDING, *bounds])
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("guard exceeded: a profile of")


# the lrlab modules each command must not load: the combinatorial ones
# skip the numeric layers, enumerate needs neither box moves nor poles,
# and only the commands that move boxes load box moves
NUMERIC = {"lrlab.nilmod", "lrlab.linalg", "lrlab.witness", "lrlab.oracle",
           "lrlab.worked_examples"}
BOXMOVES = {"lrlab.boxmoves"}
MODULE_CASES = [
    (["enumerate", FIVE], NUMERIC | BOXMOVES | {"lrlab.poles"}),
    (["orders", FIVE, "--relation", "box"], NUMERIC | {"lrlab.poles"}),
    (["hasse", FIVE, "--relation", "dom"], NUMERIC | {"lrlab.poles"}),
    (["dom2box", ALGO, "--from", "1,3,2,2,1,1", "--to", "2,3,2,1,1,1"],
     NUMERIC | {"lrlab.poles"}),
    (["decompose", PICKET], NUMERIC | BOXMOVES),
    (["realize", PICKET, "-p", "3"], BOXMOVES),
    (["tableau", PICKET_EMBEDDING], BOXMOVES),
    (["witness", SMALL, "--from", "1,2,1", "--to", "2,1,1", "-p", "3"], set()),
    (["hom", PICKET_EMBEDDING, PICKET_EMBEDDING], BOXMOVES),
    (["profile", PICKET_EMBEDDING], BOXMOVES),
    (["oracle", '{"alpha":[1],"beta":[2,1],"gamma":[2]}', "-p", "3"], BOXMOVES),
    (["paper-examples"], set()),
]


@pytest.mark.parametrize("argv, absent", MODULE_CASES,
                         ids=[argv[0] for argv, _ in MODULE_CASES])
def test_no_command_loads_numpy(argv, absent):
    # nor dataclasses, nor an lrlab module the command does not run
    done = run_child(argv, CHILD_MODULES)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stderr)
    assert not loaded["numpy"] and not loaded["dataclasses"]
    assert "lrlab.tableaux" in loaded["lrlab"]
    assert not absent & set(loaded["lrlab"]), loaded["lrlab"]


def test_no_module_loads_numpy():
    # nor dataclasses
    child = ("import pkgutil, sys, importlib, lrlab; "
             "names = [m.name for m in pkgutil.iter_modules(lrlab.__path__)]; "
             "[importlib.import_module('lrlab.' + name) for name in names]; "
             "print(sorted(names), 'numpy' in sys.modules, 'dataclasses' in sys.modules)")
    done = run_child([], child)
    assert done.returncode == 0, done.stderr
    names, numpy, dataclasses = done.stdout.rsplit(" ", 2)
    assert "worked_examples" in names and "witness" in names
    assert numpy == "False" and dataclasses == "False\n"


# -- the exit-code contract of the combinatorial commands under fuzzing ------

def _case(shape):
    ts = enumerate_tableaux(shape)
    return (shape.to_json(), [t.to_json() for t in ts],
            [",".join(map(str, reading_word(t))) for t in ts])


# small shapes with their tableaux' JSON and reading words, so that many
# drawn commands get past the parser and the input checks
CASES = [_case(shape) for shape in iter_all_shapes(6)]
FILLED = [case for case in CASES if case[1]]
KEYS = ["alpha", "beta", "gamma", "chain", "columns"]
small_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 5)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)
word = st.lists(st.integers(-1, 5), max_size=7).map(
    lambda w: ",".join(map(str, w))) | st.text(max_size=4)
extra_flags = st.lists(st.one_of(
    st.tuples(st.just("--format"), st.sampled_from(["json", "text", "dot", "x"])),
    st.tuples(st.just("--relation"), st.sampled_from(["dom", "box", "ext"])),
    st.tuples(st.just("--pick-l"), st.integers(-1, 7).map(str) | st.text(max_size=2)),
    st.tuples(st.just("--bogus")),
), max_size=2).map(lambda fs: [x for f in fs for x in f])


@st.composite
def mutated(draw, data):
    """``data`` as JSON, sometimes with one field replaced by junk."""
    data = dict(data)
    if draw(st.integers(0, 2)) == 2:
        data[draw(st.sampled_from(sorted(data)))] = draw(small_json)
    return json.dumps(data)


@st.composite
def combinatorial_argv(draw):
    command = draw(st.sampled_from(["enumerate", "orders", "hasse", "dom2box",
                                    "decompose"]))
    # decompose and dom2box draw from shapes that have tableaux
    shape, tableaux, words = draw(st.sampled_from(
        CASES if command in ("enumerate", "orders", "hasse") else FILLED))
    kind = draw(st.integers(0, 5))
    if kind == 4:
        arg = json.dumps(draw(small_json))
    elif kind == 5:
        arg = draw(st.text(max_size=6))
    elif command == "decompose":
        arg = draw(mutated(draw(st.sampled_from(tableaux))))
    else:
        arg = draw(mutated(shape))
    argv = [command, arg]
    if command in ("orders", "hasse"):
        argv += ["--relation", draw(st.sampled_from(["dom", "box"]))]
    if command == "dom2box":
        some_word = st.sampled_from(words) | word
        argv += ["--from", draw(some_word), "--to", draw(some_word)]
    return argv + draw(extra_flags)


def run_in_process(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``run(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(combinatorial_argv())
def test_combinatorial_exit_codes_under_fuzzing(argv):
    code, _, err = run_in_process(argv)
    assert code in (0, 2, 3), err


# -- and of the numeric commands ----------------------------------------------

# the tableaux of every strip shape with |beta| <= 8
STRIPS = [(shape, enumerate_tableaux(shape)) for shape in iter_strip_shapes(8)]
# embeddings over F_2 and F_3 of the first tableau of every sixth shape
EMBEDDINGS = [realize_tableau(ts[0], p).to_json()
              for _, ts in STRIPS[::6] if ts for p in (2, 3)]
# every box move: (shape, low word, high word, "u,v")
EDGES = [(shape.to_json(), ",".join(map(str, reading_word(t))),
          ",".join(map(str, reading_word(up))), f"{move.u},{move.v}")
         for shape, ts in STRIPS for t in ts for up, move in box_successors(t)]
prime = st.sampled_from(["2", "3"]) | st.sampled_from(
    ["5", "4", "1", "0", "-3", "x", "2147483647"])
bound = st.integers(-3, 6).map(str) | st.text(max_size=2)


@st.composite
def perturbed(draw, data):
    """``data`` as JSON with one integer of one nested field changed."""
    data = json.loads(json.dumps(data))
    key = draw(st.sampled_from(sorted(data)))
    holder, index = data, key
    while isinstance(holder[index], list) and holder[index]:
        holder, index = holder[index], draw(st.integers(0, len(holder[index]) - 1))
    holder[index] = draw(st.integers(-2, 4))
    return json.dumps(data)


@st.composite
def numeric_argv(draw):
    command = draw(st.sampled_from(["realize", "tableau", "hom", "profile",
                                    "witness"]))
    kind = draw(st.integers(0, 6))

    def arg(valid):
        if kind == 4:
            return json.dumps(draw(small_json))
        if kind == 5:
            return draw(st.text(max_size=6))
        if kind == 6:
            return draw(perturbed(valid))
        return draw(mutated(valid))

    if command == "realize":
        _, tableaux, _ = draw(st.sampled_from(FILLED))
        argv = ["realize", arg(draw(st.sampled_from(tableaux))), "-p", draw(prime)]
    elif command == "witness":
        shape, low, high, move = draw(st.sampled_from(EDGES))
        some_word = st.sampled_from([low, high]) | word
        frm, to = draw(st.sampled_from([(low, high), (high, low)])
                       | st.tuples(some_word, some_word))
        argv = ["witness", arg(shape), "--from", frm, "--to", to,
                "-p", draw(prime)]
        if draw(st.booleans()):
            argv += ["--move", draw(st.sampled_from([move, "1,2", "2,1", "x"]))]
    else:
        argv = [command, arg(draw(st.sampled_from(EMBEDDINGS)))]
        if command == "hom":
            argv.append(arg(draw(st.sampled_from(EMBEDDINGS))))
        if command == "profile":
            for flag in ("--max-i", "--max-l"):
                if draw(st.booleans()):
                    argv += [flag, draw(bound)]
    return argv + draw(extra_flags)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(numeric_argv())
def test_numeric_exit_codes_under_fuzzing(argv):
    code, _, err = run_in_process(argv)
    assert code in (0, 2, 3), err


# -- a sample of both fuzzes in child processes -------------------------------

def _passable(argv) -> bool:
    """Whether a process can be started with these arguments."""
    try:
        return not any(b"\0" in os.fsencode(arg) for arg in argv)
    except UnicodeEncodeError:
        return False


def _sample(strategy, n: int) -> list[list[str]]:
    """The first n argument lists a derandomized run of ``strategy`` draws
    that a process can be started with."""
    drawn = []

    @settings(max_examples=n, derandomize=True, database=None, phases=[Phase.generate])
    @given(strategy.filter(_passable))
    def draw(argv):
        drawn.append(argv)

    draw()
    return drawn


@pytest.mark.parametrize("strategy", [combinatorial_argv(), numeric_argv()],
                         ids=["combinatorial", "numeric"])
def test_fuzzed_commands_alike_in_a_child(strategy):
    # a python -m lrlab.cli child under the 4 GiB cap exits and prints as
    # the in-process run does; two children run at a time
    sample = _sample(strategy, 10)
    with ThreadPoolExecutor(max_workers=2) as pool:
        children = list(pool.map(run_child, sample))
    assert len(sample) == 10
    for argv, done in zip(sample, children):
        code, out, _ = run_in_process(argv)
        assert (done.returncode, done.stdout) == (code, out), (argv, done.stderr)
