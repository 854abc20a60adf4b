import json

import pytest

from lrlab.cli import run

FIVE = '{"alpha":[3,1],"beta":[4,3,2,1],"gamma":[3,2,1]}'
ALGO = '{"alpha":[3,2,1],"beta":[6,5,4,3,2,1],"gamma":[5,4,3,2,1]}'
SMALL = '{"alpha":[2,1],"beta":[5,2,1],"gamma":[4,1]}'


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
