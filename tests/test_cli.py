"""CLI behavior: schemas, determinism, exit codes."""

import json

import pytest

from hilbdiag import verify
from hilbdiag.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_borel_json(capsys):
    code, out = run_cli(capsys, "borel", "--d", "2", "--n", "3", "--json",
                        "--shelling")
    assert code == 0
    data = json.loads(out)
    assert data["ideal"]["d"] == 2
    assert len(data["ideal"]["gens"]) == 3
    assert data["u_set"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert data["h_polynomial"] == [1, 2]
    assert len(data["shelling"]) == 3


def test_borel_text(capsys):
    code, out = run_cli(capsys, "borel", "--d", "3", "--n", "3")
    assert code == 0
    assert "y1*y2*y3" in out


def test_trees_count_and_ideals(capsys):
    code, out = run_cli(capsys, "trees", "--n", "3")
    assert code == 0 and "32" in out
    code, out = run_cli(capsys, "trees", "--n", "2", "--ideals")
    data = json.loads(out)
    assert data["count"] == 4


def test_trees_graph_formats(capsys):
    code, out = run_cli(capsys, "trees", "--n", "2", "--graph", "dot")
    assert code == 0
    assert out.startswith("graph moves")
    code, out = run_cli(capsys, "trees", "--n", "3", "--graph", "json")
    data = json.loads(out)
    assert data["node_count"] == 32
    swaps = [e for e in data["edges"] if any(m.startswith("swap") for m in e["moves"])]
    assert len(swaps) == 24


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "gin", "--d", "2", "--n", "2", "--trials", "3",
                      "--seed", "9")
    _, out2 = run_cli(capsys, "gin", "--d", "2", "--n", "2", "--trials", "3",
                      "--seed", "9")
    assert out1 == out2


def test_gin_exit_code(capsys):
    code, out = run_cli(capsys, "gin", "--d", "2", "--n", "2", "--trials", "2",
                        "--seed", "4")
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"]


def test_tangent_ideal_file(tmp_path, capsys):
    from hilbdiag.tangent import chain_ideal
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(chain_ideal(3, 3).to_json()))
    code, out = run_cli(capsys, "tangent", "--ideal", str(path))
    assert code == 0
    assert out.strip() == "16"


def test_tangent_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["tangent", "--ideal", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("hilbdiag: error: ") and err.count("\n") == 1


def test_tangent_chain_basis(capsys):
    code, out = run_cli(capsys, "tangent", "--basis", "chain", "--d", "2",
                        "--n", "2")
    data = json.loads(out)
    assert data["count"] == 3


def test_deligne_routes(tmp_path, capsys):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps([[["z^2", 0], [0, "1"]], [["1", 0], [0, "z"]]]))
    code, out = run_cli(capsys, "deligne", "--matrices", str(path))
    sat = json.loads(out)
    assert code == 0 and sat["squarefree"]
    code, out = run_cli(capsys, "deligne", "--matrices", str(path),
                        "--route", "weight")
    wt = json.loads(out)
    assert code == 0
    assert wt["ideal"] == sat["ideal"]


def test_deligne_weight_route_reads_z0_as_one(tmp_path, capsys):
    outs = []
    for one in ("z^0", "1"):
        path = tmp_path / "mats.json"
        path.write_text(json.dumps([[[one, 0], [0, "z"]], [["1", 0], [0, "1"]]]))
        code, out = run_cli(capsys, "deligne", "--matrices", str(path),
                            "--route", "weight")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_collineations(capsys):
    code, out = run_cli(capsys, "collineations", "--sample", "2", "--seed", "3")
    data = json.loads(out)
    assert code == 0 and data["all_ok"]
    assert all(s["counts"] == [6, 12, 66] for s in data["samples"])


def test_lafforgue(tmp_path, capsys):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps([[[1, 0], [0, 1]], [[1, 2], [3, 4]]]))
    code, out = run_cli(capsys, "lafforgue", "--matrices", str(path))
    data = json.loads(out)
    assert code == 0
    assert sum(len(t["minors"]) for t in data["types"]) == 6


def test_lafforgue_reads_decimals_exactly(tmp_path, capsys):
    path = tmp_path / "mats.json"
    path.write_text("[[[1, 0], [0, 1]], [[-0.1, 2], [3, 4]]]")
    code, out = run_cli(capsys, "lafforgue", "--matrices", str(path))
    minors = {tuple(t["type"]): t["minors"] for t in json.loads(out)["types"]}
    assert code == 0
    assert minors[(1, 1)] == [3, 4, "1/10", -2]
    assert minors[(0, 2)] == ["-32/5"]


@pytest.mark.parametrize("argv", [
    ["tangent"],
    ["tangent", "--basis", "chain"],
    ["gin", "--d", "1", "--n", "3"],
    ["gin", "--d", "3", "--n", "1"],
    ["deligne", "--matrices", "singular.json"],
    ["lafforgue", "--matrices", "singular.json"],
    ["tangent", "--ideal", "missing.json"],
    ["tangent", "--ideal", "float_exponent.json"],
    ["tangent", "--ideal", "no_gens.json"],
    ["tangent", "--ideal", "bool_exponent.json"],
    ["tangent", "--ideal", "repeated_variable.json"],
    ["deligne", "--matrices", "empty.json"],
    ["deligne", "--matrices", "one_by_one.json"],
    ["deligne", "--matrices", "one_matrix.json"],
    ["lafforgue", "--matrices", "empty.json"],
    ["deligne", "--matrices", "no_matrices.json"],
    ["deligne", "--matrices", "number.json"],
    ["lafforgue", "--matrices", "rows_only.json"],
    ["deligne", "--matrices", "null_entry.json"],
    ["lafforgue", "--matrices", "bool_entry.json"],
    ["h33", "--reps", "--bound", "-1"],
    ["gin", "--d", "2", "--n", "2", "--trials", "-3"],
    ["collineations", "--sample", "-2"],
    ["deligne", "--matrices", "zero_denominator_z.json"],
    ["lafforgue", "--matrices", "zero_denominator.json"],
    ["tangent", "--basis", "chain", "--d", "3", "--n", "0"],
    ["tangent", "--basis", "chain", "--d", "-1", "--n", "2"],
    ["h33", "--csv", "table.csv"],
    ["verify-all", "--only", "bogus"],
    ["tangent", "--basis", "foo", "--d", "2", "--n", "2"],
    ["tangent", "--ideal", "chain22.json", "--d", "7", "--n", "-4"],
    ["verify-all", "--only"],
    ["tangent", "--ideal", "zero_exponent.json"],
    ["lafforgue", "--matrices", "zero_by_zero.json"],
    ["lafforgue", "--matrices", "two_zero_by_zero.json"],
    ["h33", "--bound", "7"],
])
def test_bad_arguments_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "singular.json").write_text("[[[1,1],[1,1]],[[1,0],[0,1]]]")
    (tmp_path / "float_exponent.json").write_text(
        '{"d":2,"n":2,"gens":[[[1,1,1.5]],[[2,2,1]]]}')
    (tmp_path / "no_gens.json").write_text('{"d":2,"n":2}')
    (tmp_path / "bool_exponent.json").write_text(
        '{"d":2,"n":2,"gens":[[[1,1,true]],[[2,2,1]]]}')
    (tmp_path / "repeated_variable.json").write_text(
        '{"d":2,"n":2,"gens":[[[1,1,1],[1,1,2]]]}')
    (tmp_path / "empty.json").write_text("[]")
    (tmp_path / "chain22.json").write_text('{"d":2,"n":2,"gens":[[[1,1,1],[2,2,1]]]}')
    (tmp_path / "one_by_one.json").write_text("[[[1]],[[2]]]")
    (tmp_path / "one_matrix.json").write_text("[[[1,0],[0,1]]]")
    (tmp_path / "no_matrices.json").write_text('{"x": 1}')
    (tmp_path / "number.json").write_text("5")
    (tmp_path / "rows_only.json").write_text("[[1,2],[3,4]]")
    (tmp_path / "null_entry.json").write_text("[[[1,null],[0,1]],[[1,0],[0,1]]]")
    (tmp_path / "bool_entry.json").write_text("[[[1,true],[0,1]],[[1,0],[0,1]]]")
    (tmp_path / "zero_denominator_z.json").write_text(
        '[[["2/0*z",0],[0,1]],[[1,0],[0,1]]]')
    (tmp_path / "zero_denominator.json").write_text(
        '[[["1/0",0],[0,1]],[[1,0],[0,1]]]')
    (tmp_path / "zero_exponent.json").write_text('{"d":2,"n":2,"gens":[[[1,1,0]]]}')
    (tmp_path / "zero_by_zero.json").write_text("[[]]")
    (tmp_path / "two_zero_by_zero.json").write_text("[[],[]]")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "table.csv").exists()
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    if "--ideal" in argv or "--matrices" in argv:
        assert err.startswith("hilbdiag: error: ") and err.count("\n") == 1


def test_h33_csv(tmp_path, capsys):
    out_csv = tmp_path / "table.csv"
    code, out = run_cli(capsys, "h33", "--table1", "--csv", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "class,tangent,planar,symm,orbit"
    assert len(lines) == 17


def test_verify_all_subset(capsys):
    code, out = run_cli(capsys, "verify-all", "--only", "chain-tangent")
    assert code == 0
    assert "PASS chain-tangent" in out


def test_failed_subchecks_replace_the_summary(monkeypatch):
    monkeypatch.setattr(verify.tangent, "tangent_dimension", lambda ideal: -1)
    result = verify.check_chain_tangent()
    assert not result.passed
    assert result.details == ["dimension wrong at (%d,%d)" % dn for dn in
                              [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]]


def test_exception_in_a_check_is_a_failure(monkeypatch):
    def boom(d, n):
        raise ValueError("boom")
    monkeypatch.setattr(verify.tangent, "chain_ideal", boom)
    result = verify.check_chain_tangent()
    assert not result.passed
    assert result.details == ["error: ValueError('boom')"]


def test_verify_all_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(verify.tangent, "tangent_dimension", lambda ideal: -1)
    code, out = run_cli(capsys, "verify-all", "--only", "chain-tangent")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL")
