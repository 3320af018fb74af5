import json

import pytest

from pairrank.cli import main
from pairrank.serialize import parse_problem_json


def write_instance(tmp_path, capsys, instance_id):
    assert main(["example", "--id", instance_id, "--emit"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / f"ex{instance_id.replace('.', '')}.json"
    path.write_text(text, encoding="utf-8")
    return path


def test_example_emit_parses(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "3.3")
    labeled = parse_problem_json(path.read_text())
    assert labeled.labels == ("X1", "X2", "X3", "X4")
    assert "3.3-prime" in labeled.note  # orientation note ships with the document


def test_example_unknown_id(capsys):
    assert main(["example", "--id", "9.9"]) == 1
    assert "unknown instance" in capsys.readouterr().err


def test_rank_least_squares(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "3.3")
    assert main(["rank", "--method", "ls", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "X1: 1/8" in out
    assert "X3: -3/8" in out
    assert "ranking: X4 > X1 > X2 > X3" in out


def test_rank_json_output(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "3.3")
    assert main(["rank", "--method", "grs", "--epsilon", "1", "--input", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ratings"]["X4"] == "4/3"
    assert payload["ranking"] == [["X4"], ["X1"], ["X2"], ["X3"]]


def test_rank_grs_requires_epsilon(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "3.3")
    assert main(["rank", "--method", "grs", "--input", str(path)]) == 1
    assert main(["rank", "--method", "grs", "--epsilon", "fish", "--input", str(path)]) == 1
    assert main(["rank", "--method", "grs", "--epsilon", "-2", "--input", str(path)]) == 1


def test_classify_output(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "3.3")
    assert main(["classify", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "balanced: yes" in out
    assert "round_robin: no" in out
    assert "unweighted: yes" in out
    assert "extremal: yes" in out
    assert "components: {X1, X2, X3, X4}" in out


def test_check_exit_codes(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "3.3")
    assert main(["check", "--axiom", "sc", "--method", "rowsum", "--input", str(path)]) == 2
    capsys.readouterr()
    assert main(["check", "--axiom", "iim", "--method", "rowsum", "--input", str(path)]) == 0
    capsys.readouterr()
    assert main(["check", "--axiom", "iim", "--method", "ls", "--input", str(path)]) == 2
    out = capsys.readouterr().out
    assert "witness: change at (X3, X4)" in out
    assert "witness target: (X1, X2)" in out
    assert main(["check", "--axiom", "wsc", "--method", "rowsum", "--input", str(path)]) == 0


def test_check_budget_exceeded_exit(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "3.3")
    code = main(
        ["check", "--axiom", "sc", "--method", "rowsum", "--input", str(path), "--budget", "0"]
    )
    assert code == 3
    assert "budget-exceeded" in capsys.readouterr().out


@pytest.mark.parametrize("axiom", ["iim", "sc", "mvi"])
def test_check_rejects_negative_budget(tmp_path, capsys, axiom):
    path = write_instance(tmp_path, capsys, "3.3")
    argv = ["check", "--axiom", axiom, "--method", "rowsum", "--input", str(path), "--budget", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget" in captured.err


def test_check_json_report(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "3.3")
    code = main(
        ["check", "--axiom", "sc", "--method", "ls", "--input", str(path), "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "satisfied-on-instances-checked"
    assert payload["axiom"] == "sc"


def test_check_mv_axioms(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "4.1")
    assert main(["check", "--axiom", "mva", "--method", "ls", "--input", str(path)]) == 0
    capsys.readouterr()
    assert main(["check", "--axiom", "mvi", "--method", "rowsum", "--input", str(path)]) == 0


def test_macrovertices_listing(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "4.1")
    assert main(["macrovertices", "--input", str(path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["{X2, X3}", "{X1, X2, X3}", "{X1, X2, X3, X4}"]


def test_enumerate_sc(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "3.1")
    assert main(["enumerate-sc", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "X1 > (X2 ~ X3) > X4" in out
    assert "total: 1" in out


def test_enumerate_sc_budget_exceeded_exit(tmp_path, capsys):
    results = [[0] * 4 for _ in range(4)]
    matches = [[0, 4, 0, 0], [4, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    path = tmp_path / "quadruple.json"
    path.write_text(json.dumps({"version": 1, "labels": list("abcd"), "R": results, "M": matches}))
    assert main(["enumerate-sc", "--input", str(path)]) == 3
    assert capsys.readouterr().out == (
        "verdict: budget-exceeded\ndetail: multiplicity 4 exceeds the search cap of 3\n"
    )


def test_enumerate_sc_seven_objects_is_budget_exceeded(tmp_path, capsys):
    n = 7  # a cyclic round robin: each object beats the next three
    results = [[0 if i == j else 1 if (j - i) % n <= 3 else -1 for j in range(n)] for i in range(n)]
    matches = [[int(i != j) for j in range(n)] for i in range(n)]
    path = tmp_path / "round-robin-7.json"
    labels = [f"P{i + 1}" for i in range(n)]
    path.write_text(json.dumps({"version": 1, "labels": labels, "R": results, "M": matches}))
    assert main(["enumerate-sc", "--input", str(path)]) == 3
    assert capsys.readouterr().out == (
        "verdict: budget-exceeded\ndetail: ranking enumeration is limited to six objects, got 7\n"
    )


def write_unplayed(tmp_path, n):
    """A problem of ``n`` objects with no matches: each subset is a macrovertex."""
    path = tmp_path / f"unplayed-{n}.json"
    zeros = [[0] * n for _ in range(n)]
    labels = [f"P{i + 1}" for i in range(n)]
    path.write_text(json.dumps({"version": 1, "labels": labels, "R": zeros, "M": zeros}))
    return path


def test_macrovertices_over_twenty_objects_is_budget_exceeded(tmp_path, capsys):
    path = write_unplayed(tmp_path, 21)
    assert main(["macrovertices", "--input", str(path)]) == 3
    assert capsys.readouterr().out == (
        "verdict: budget-exceeded\ndetail: macrovertex detection is limited to twenty objects, got 21\n"
    )


@pytest.mark.parametrize(
    "method,tag",
    [(["rowsum"], "rowsum"), (["ls"], "ls"), (["grs", "--epsilon", "1/2"], "grs(1/2)")],
    ids=["rowsum", "ls", "grs"],
)
def test_check_mv_over_twenty_objects_is_budget_exceeded(tmp_path, capsys, method, tag):
    # The budget report names the method as every other report does: by the scorer's tag.
    path = write_unplayed(tmp_path, 21)
    detail = "macrovertex detection is limited to twenty objects, got 21"
    for axiom in ("mva", "mvi"):
        assert main(["check", "--axiom", axiom, "--method", *method, "--input", str(path)]) == 3
        assert capsys.readouterr().out == (
            f"axiom: {axiom}\nmethod: {tag}\nverdict: budget-exceeded\ninstances checked: 0\n"
            f"detail: {detail}\n"
        )
        assert main(["check", "--axiom", axiom, "--method", *method, "--input", str(path), "--json"]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "axiom": axiom,
            "method": tag,
            "verdict": "budget-exceeded",
            "witness": None,
            "instances_checked": 0,
            "detail": detail,
        }


def test_theorem31_command(capsys):
    assert main(["theorem31"]) == 0
    out = capsys.readouterr().out
    assert "verdict: contradiction established" in out
    assert out.count("[ok]") == 5
    assert main(["theorem31", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "contradiction established"


def test_ingest_and_rank_csv(tmp_path, capsys):
    csv_path = tmp_path / "matches.csv"
    csv_path.write_text(
        "object_a,object_b,score_a,score_b\n"
        "ann,bob,1,0\n"
        "bob,cam,1/2,1/2\n"
        "cam,ann,0,1\n",
        encoding="utf-8",
    )
    assert main(["ingest", "--input", str(csv_path)]) == 0
    document = capsys.readouterr().out
    labeled = parse_problem_json(document)
    assert labeled.labels == ("ann", "bob", "cam")

    out_path = tmp_path / "problem.json"
    assert main(["ingest", "--input", str(csv_path), "--output", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["rank", "--method", "rowsum", "--input", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "ann: 2" in out


def test_rank_reads_csv_directly(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text(
        "object_a,object_b,score_a,score_b\na,b,1,0\n", encoding="utf-8"
    )
    assert main(["rank", "--method", "rowsum", "--input", str(csv_path)]) == 0
    assert "a: 1" in capsys.readouterr().out


def test_parse_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["rank", "--method", "ls", "--input", str(bad)]) == 1
    capsys.readouterr()
    assert main(["rank", "--method", "ls", "--input", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("object_a,object_b,score_a,score_b\nA,A,1,0\n", encoding="utf-8")
    assert main(["rank", "--method", "ls", "--input", str(bad_csv)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_input_directory_is_a_diagnostic(tmp_path, capsys):
    assert main(["rank", "--method", "ls", "--input", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Is a directory" in captured.err


def test_ingest_into_missing_folder_is_a_diagnostic(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("object_a,object_b,score_a,score_b\na,b,1,0\n", encoding="utf-8")
    target = tmp_path / "nodir" / "x.json"
    assert main(["ingest", "--input", str(csv_path), "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "No such file or directory" in captured.err
    assert not target.parent.exists()


def test_usage_errors_exit_1(capsys):
    assert main(["rank", "--method", "mystery", "--input", "x.json"]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    path = write_instance(tmp_path, capsys, "3.1")
    monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
    assert main(["enumerate-sc", "--input", "-"]) == 0
    out = capsys.readouterr().out
    assert "X1 > (X2 ~ X3) > X4" in out
