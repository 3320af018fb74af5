import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pairrank
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
    start = time.perf_counter()
    assert main(["rank", "--method", "grs", "--epsilon", "1e99999999", "--input", str(path)]) == 1
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("method", ["rowsum", "ls"])
def test_epsilon_without_grs_is_a_usage_error(tmp_path, capsys, method):
    path = write_instance(tmp_path, capsys, "3.3")
    for command in (["rank"], ["check", "--axiom", "sc"]):
        assert main([*command, "--method", method, "--epsilon", "1/2", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--epsilon applies only to method grs" in captured.err


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


def test_example_prints_the_instance(capsys):
    assert main(["example", "--id", "3.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("instance 3.1: Four objects")
    assert lines[1:] == [
        "results:",
        "  [0, 1, 1, 0]",
        "  [-1, 0, 0, 1]",
        "  [-1, 0, 0, 1]",
        "  [0, -1, -1, 0]",
        "matches:",
        "  [0, 1, 1, 0]",
        "  [1, 0, 0, 1]",
        "  [1, 0, 0, 1]",
        "  [0, 1, 1, 0]",
    ]


def test_problem_without_macrovertices(tmp_path, capsys):
    # A path a-b-c with one match on a-b and two on b-c: each pair's outsider
    # plays its two members a different number of times.
    path = tmp_path / "path.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "labels": ["a", "b", "c"],
                "R": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                "M": [[0, 1, 0], [1, 0, 2], [0, 2, 0]],
            }
        ),
        encoding="utf-8",
    )
    assert main(["macrovertices", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "no nontrivial macrovertices\n"
    assert main(["check", "--axiom", "mva", "--method", "ls", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no nontrivial macrovertex found\n"


def test_enumerate_sc(tmp_path, capsys):
    path = write_instance(tmp_path, capsys, "3.1")
    assert main(["enumerate-sc", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "X1 > (X2 ~ X3) > X4" in out
    assert "total: 1" in out


def test_enumerate_sc_budget_exceeded_exit(tmp_path, capsys):
    # Listing the options of a pair played 13 or more times would take more
    # than 3**13 > 10**6 candidates, so it is refused before any listing.
    for count in (13, 200_000):
        results = [[0] * 4 for _ in range(4)]
        matches = [[0, count, 0, 0], [count, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        path = tmp_path / f"deep-{count}.json"
        path.write_text(json.dumps({"version": 1, "labels": list("abcd"), "R": results, "M": matches}))
        start = time.perf_counter()
        assert main(["enumerate-sc", "--input", str(path)]) == 3
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().out == (
            "verdict: budget-exceeded\ndetail: more than 1000000 layer splits examined for pair (X1, X2)\n"
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


# Every subset of 2..20 of 21 unplayed objects is a macrovertex: one too many for the cap.
OVER_CAP = "2097129 macrovertices exceed the cap of 1048576"


def test_macrovertices_over_twenty_objects_is_budget_exceeded(tmp_path, capsys):
    path = write_unplayed(tmp_path, 21)
    assert main(["macrovertices", "--input", str(path)]) == 3
    assert capsys.readouterr().out == f"verdict: budget-exceeded\ndetail: {OVER_CAP}\n"


def test_planted_twins_in_a_forty_team_swiss_table(tmp_path, capsys):
    # T02 is given T01's opponents and results, so {T01, T02} is a macrovertex
    # of a table too large for a scan of every subset.
    document = json.loads((Path(__file__).parent / "golden" / "inputs" / "swiss40.json").read_text())
    R, M = document["R"], document["M"]
    for k in range(2, 40):
        M[1][k] = M[k][1] = M[0][k]
        R[1][k], R[k][1] = R[0][k], R[k][0]
    path = tmp_path / "twins40.json"
    path.write_text(json.dumps(document))
    assert main(["macrovertices", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "{T01, T02}\n"
    assert main(["check", "--axiom", "mvi", "--method", "ls", "--input", str(path)]) == 0
    # Eight variants of the T01-T02 pair, each against the C(38, 2) outsider pairs.
    assert capsys.readouterr().out == (
        "axiom: mvi\nmethod: ls\nverdict: satisfied-on-instances-checked\ninstances checked: 5624\n"
    )


@pytest.mark.parametrize(
    "method,tag",
    [(["rowsum"], "rowsum"), (["ls"], "ls"), (["grs", "--epsilon", "1/2"], "grs(1/2)")],
    ids=["rowsum", "ls", "grs"],
)
def test_check_mv_over_twenty_objects_is_budget_exceeded(tmp_path, capsys, method, tag):
    # The budget report names the method as every other report does: by the scorer's tag.
    path = write_unplayed(tmp_path, 21)
    detail = OVER_CAP
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


@pytest.mark.parametrize(
    "name, text, diagnostic",
    [
        ("huge.json", '{"version": 1, "labels": ["a", "b"], "R": [["0", "1e99999999"], ["-1", "0"]]}',
         "$.R[0][1]: not a rational"),
        ("tiny.csv", "object_a,object_b,score_a,score_b\na,b,1e-99999999,1\n", "line 2: not a rational number"),
    ],
)
def test_long_exponent_cell_is_rejected_quickly(tmp_path, capsys, name, text, diagnostic):
    # Fraction would spend minutes building 10**99999999.
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    assert main(["rank", "--method", "rowsum", "--input", str(path)]) == 1
    assert time.perf_counter() - start < 5
    assert diagnostic in capsys.readouterr().err


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


MATCH_LIST = "object_a,object_b,score_a,score_b\nann,bob,1,0\nbob,cam,1/2,1/2\n"


def _document(labels, results, matches):
    return json.dumps({"version": 1, "labels": labels, "R": results, "M": matches})


@pytest.mark.parametrize(
    "name, text",
    [
        ("matches.csv", MATCH_LIST),
        ("matches.txt", MATCH_LIST),  # recognised as CSV by its header line
        ("problem.json", _document(["ann", "bob"], [[0, 1], [-1, 0]], [[0, 1], [1, 0]])),
    ],
    ids=["csv", "sniffed-txt", "json"],
)
def test_byte_order_mark_is_skipped(tmp_path, capsys, monkeypatch, name, text):
    # Spreadsheet exports start with a UTF-8 byte-order mark.
    import io

    path = tmp_path / name
    commands = [["rank", "--method", "rowsum"]] + ([] if name.endswith(".json") else [["ingest"]])
    for command in commands:
        path.write_text(text, encoding="utf-8")
        assert main([*command, "--input", str(path)]) == 0
        expected = capsys.readouterr().out
        path.write_text(text, encoding="utf-8-sig")
        assert main([*command, "--input", str(path)]) == 0
        assert capsys.readouterr().out == expected
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
        assert main([*command, "--input", "-"]) == 0
        assert capsys.readouterr().out == expected


def _transitive_round_robin(n):
    """Object i beats every later object once: distinct ratings, equal degrees."""
    results = [[(j > i) - (j < i) for j in range(n)] for i in range(n)]
    matches = [[int(i != j) for j in range(n)] for i in range(n)]
    return _document([f"X{i + 1}" for i in range(n)], results, matches)


@pytest.mark.parametrize(
    "document, pairs",
    [
        (_transitive_round_robin(9), 36),
        (_document(["a", "b"], [[0, 0], [0, 0]], [[0, 4], [4, 0]]), 2),
    ],
    ids=["objects", "multiplicity"],
)
def test_sc_search_caps_check_no_pair(tmp_path, capsys, document, pairs):
    # Nine objects and four matches on a pair are searched like any other
    # problem; every pair here settles without a layer split.
    path = tmp_path / "searched.json"
    path.write_text(document, encoding="utf-8")
    for axiom in ("sc", "wsc"):
        assert main(["check", "--axiom", axiom, "--method", "ls", "--input", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"axiom: {axiom}\nmethod: ls\nverdict: satisfied-on-instances-checked\ninstances checked: {pairs}\n"
        )
        assert main(["check", "--axiom", axiom, "--method", "ls", "--input", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "axiom": axiom,
            "method": "ls",
            "verdict": "satisfied-on-instances-checked",
            "witness": None,
            "instances_checked": pairs,
            "detail": "",
        }


def test_sc_over_the_caps_without_eligible_pairs_is_satisfied(tmp_path, capsys):
    # Object k plays the first object k times: every degree differs, so no
    # pair needs a search and no layer split is examined.
    n = 9
    matches = [[0] * n for _ in range(n)]
    for k in range(1, n):
        matches[0][k] = matches[k][0] = k
    path = tmp_path / "distinct-degrees.json"
    path.write_text(_document([f"X{i + 1}" for i in range(n)], [[0] * n for _ in range(n)], matches))
    assert main(["check", "--axiom", "sc", "--method", "ls", "--input", str(path)]) == 0
    assert capsys.readouterr().out == (
        "axiom: sc\nmethod: ls\nverdict: satisfied-on-instances-checked\ninstances checked: 0\n"
    )


def test_process_exit_codes_match_main(tmp_path, capsys):
    # ``python -m pairrank`` exits with main's return value and prints what it prints.
    example = write_instance(tmp_path, capsys, "3.3")
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    round_robin = tmp_path / "round-robin-7.json"
    round_robin.write_text(_transitive_round_robin(7), encoding="utf-8")
    cases = [
        (0, ["rank", "--method", "rowsum", "--input", str(example)]),
        (1, ["rank", "--method", "rowsum", "--input", str(bad)]),
        (2, ["check", "--axiom", "sc", "--method", "rowsum", "--input", str(example)]),
        (3, ["enumerate-sc", "--input", str(round_robin)]),
    ]
    src = str(Path(pairrank.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for code, argv in cases:
        assert main(argv) == code
        expected = capsys.readouterr()
        process = subprocess.run(
            [sys.executable, "-m", "pairrank", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (process.returncode, process.stdout, process.stderr) == (code, expected.out, expected.err)


@pytest.mark.parametrize(
    "text",
    [
        "[" * 3000 + "]" * 3000,
        '{"version": 1, "labels": ["a"], "R": [[0]], "M": [[0]], "note": ' + "[" * 3000 + "]" * 3000 + "}",
    ],
    ids=["document", "note"],
)
def test_deeply_nested_json_is_a_schema_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert main(["rank", "--method", "rowsum", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $: not valid JSON (nested too deeply)\n"


def test_integer_past_the_digit_limit_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(
        '{"version": 1, "labels": ["a", "b"], "R": [[0, 0], [0, 0]], "M": [[0, 1' + "0" * 5000 + '], [1, 0]]}',
        encoding="utf-8",
    )
    assert main(["rank", "--method", "rowsum", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $: an integer has more than 4300 digits\n"
