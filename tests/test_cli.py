import csv
import functools
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import pairrank
from pairrank import cli
from pairrank.axioms import enumerate_sc_rankings
from pairrank.cli import main
from pairrank.methods import format_order
from pairrank.registry import get_instance
from pairrank.serialize import CSV_HEADER, emit_problem_json, parse_problem_json

from oracles import benchmark_generators


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


def enumerated_as_format_order(path) -> str:
    """``enumerate-sc`` output written by :func:`format_order` over the admitted orders."""
    labeled = parse_problem_json(Path(path).read_text(encoding="utf-8"))
    orders = enumerate_sc_rankings(labeled.problem)
    return "".join(f"{format_order(order, labeled.labels)}\n" for order in orders) + f"total: {len(orders)}\n"


def test_enumerate_sc_prints_labels_verbatim(tmp_path, capsys):
    # Labels holding format fields, braces and the separators themselves are
    # arguments of each order's template, never parsed as part of it.
    document = json.loads(write_instance(tmp_path, capsys, "3.2").read_text())
    document["labels"] = ["{", "}", "{0}", "(", " > ", " ~ "]
    path = tmp_path / "braces.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["enumerate-sc", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == enumerated_as_format_order(path)
    lines = out.split("\n")
    assert lines[0] == "({ ~ } ~ {0}) > (( ~  >  ~  ~ )"
    assert lines[1] == "({ ~ } ~ {0}) > (( ~  ~ ) >  > "
    assert lines[-2:] == ["total: 130", ""]


def test_enumerate_sc_lines_are_format_order_of_the_admitted_orders(tmp_path, capsys):
    paths = [write_instance(tmp_path, capsys, name) for name in ("3.1", "3.2", "3.3", "3.3-prime")]
    paths += sorted((Path(__file__).parent / "golden" / "inputs").glob("w*.json"))  # the golden weighted inputs
    assert len(paths) == 10
    gen = benchmark_generators()
    for seed in range(10):
        path = tmp_path / f"weighted-{seed}.json"
        path.write_text(gen.dense_weighted(random.Random(seed), 6, 2, 0.5).to_json(), encoding="utf-8")
        paths.append(path)
    for path in paths:
        assert main(["enumerate-sc", "--input", str(path)]) == 0
        assert capsys.readouterr().out == enumerated_as_format_order(path), path


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
    # The other side: each of the C(38, 2) outsider pairs changes, in three
    # variants if unplayed and eight if played once, and the twins are the
    # one watched pair.
    for method, tag in ((["ls"], "ls"), (["grs", "--epsilon", "1/3"], "grs(1/3)")):
        assert main(["check", "--axiom", "mva", "--method", *method, "--input", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"axiom: mva\nmethod: {tag}\nverdict: satisfied-on-instances-checked\ninstances checked: 3104\n"
        )


@pytest.mark.parametrize(
    "method,tag",
    [(["rowsum"], "rowsum"), (["ls"], "ls"), (["grs", "--epsilon", "1/2"], "grs(1/2)")],
    ids=["rowsum", "ls", "grs"],
)
def test_check_mv_over_twenty_objects_is_budget_exceeded(tmp_path, capsys, method, tag):
    # The budget report names the method as every other report does: by its ratings' method.
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


@pytest.mark.parametrize("argv", [["rank", "--method", "rowsum"], ["ingest"]], ids=["rank", "ingest"])
def test_csv_field_past_the_size_limit_is_a_diagnostic(tmp_path, capsys, argv):
    path = tmp_path / "long.csv"
    path.write_text("object_a,object_b,score_a,score_b\n" + "x" * 140_000 + ",b,1,0\n", encoding="utf-8")
    assert main([*argv, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: field larger than field limit (131072)\n"


def test_input_directory_is_a_diagnostic(tmp_path, capsys):
    assert main(["rank", "--method", "ls", "--input", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Is a directory" in captured.err


def _read_failures(root: Path) -> list[tuple[str, str]]:
    """One case each way a path can fail to open: the argument, and its one stderr line."""
    (root / "x.json").write_text("{}", encoding="utf-8")
    (root / "loop").symlink_to("loop")
    (root / "bad.json").write_bytes(b"\xff{}")
    return [
        (str(root / "missing.json"), f"error: input file not found: {root / 'missing.json'}\n"),
        (str(root / "x.json" / "y"), f"error: input file not found: {root / 'x.json' / 'y'}\n"),
        (str(root / "loop"), f"error: input file not found: {root / 'loop'}\n"),
        (str(root), f"error: [Errno 21] Is a directory: '{root}'\n"),
        (str(root / "bad.json"),
         "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
    ]


@pytest.mark.parametrize("case", range(5), ids=["missing", "through-a-file", "symlink-loop", "directory", "not-utf8"])
def test_unreadable_input_diagnostics(tmp_path, capsys, case):
    source, diagnostic = _read_failures(tmp_path)[case]
    for command in (["rank", "--method", "rowsum"], ["enumerate-sc"], ["ingest"]):
        assert main([*command, "--input", source]) == 1
        assert capsys.readouterr() == ("", diagnostic)


def test_byte_order_mark_is_not_part_of_the_document(tmp_path, capsys, monkeypatch):
    # The mark is dropped before parsing, from a file and from stdin alike,
    # so a broken document's diagnostic counts columns from after it.
    import io

    text = '{"version": 1, "labels": ["a"],}'
    path = tmp_path / "mark.json"
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    diagnostic = (
        "error: $: not valid JSON (Expecting property name enclosed in double quotes:"
        " line 1 column 32 (char 31))\n"
    )
    assert main(["rank", "--method", "rowsum", "--input", str(path)]) == 1
    assert capsys.readouterr() == ("", diagnostic)
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
    assert main(["rank", "--method", "rowsum", "--input", "-"]) == 1
    assert capsys.readouterr() == ("", diagnostic)
    csv_text = "object_a,object_b,score_a,score_b\na,a,1,0\n"
    path.write_text(csv_text, encoding="utf-8-sig")
    assert main(["rank", "--method", "rowsum", "--input", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: line 2: self-match for 'a'\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + csv_text))
    assert main(["rank", "--method", "rowsum", "--input", "-"]) == 1
    assert capsys.readouterr() == ("", "error: line 2: self-match for 'a'\n")


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


# Each subcommand and the options its usage line lists besides --help.
COMMAND_OPTIONS = {
    "rank": {"--method", "--epsilon", "--input", "--json"},
    "classify": {"--input"},
    "check": {"--axiom", "--method", "--epsilon", "--input", "--budget", "--json"},
    "macrovertices": {"--input"},
    "enumerate-sc": {"--input"},
    "example": {"--id", "--emit"},
    "theorem31": {"--json"},
    "ingest": {"--input", "--output"},
}


@pytest.mark.parametrize("command", [[], *([name] for name in COMMAND_OPTIONS)], ids=lambda c: c[0] if c else "top")
def test_help_prints_usage_to_stdout(capsys, command):
    assert main([*command, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    usage = captured.out.split("\n\n", 1)[0]
    assert usage.startswith(" ".join(["usage: pairrank", *command]))
    flags = set(re.findall(r"(?<![\w-])--?[\w-]+", usage))
    assert flags == (COMMAND_OPTIONS[command[0]] if command else set()) | {"--help"}
    if not command:
        assert all(name in captured.out for name in COMMAND_OPTIONS)


USAGE_ERRORS = [
    # Abbreviations are refused, so --meth leaves the required --method missing.
    (["rank", "--meth", "ls", "--input", "x.json"], "--method"),
    (["rank", "--method", "ls", "--input", "x.json", "--meth", "ls"], "--meth"),
    (["frobnicate"], "frobnicate"),
    ([], "COMMAND"),
    (["rank", "--method", "ls"], "--input"),
    (["theorem31", "extra"], "extra"),
    (["rank", "--input", "x.json", "--method"], "--method"),
    (["check", "--axiom", "sc", "--method", "ls", "--input", "x.json", "--budget", "-1"], "--budget"),
]


@pytest.mark.parametrize(
    "argv, named",
    USAGE_ERRORS,
    ids=["abbreviated", "unknown-option", "unknown-command", "no-command", "no-input", "extra-argument",
         "no-value", "negative-budget"],
)
def test_usage_error_is_one_line_on_stderr(capsys, argv, named):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


# main reads a named command's arguments from its flag table, or hands them to its
# sub-parser; everything else goes through the top-level parser.  All must read every
# argv alike, also the spellings of a value that int() or argparse read in their own way
# (" 7", "+3", "1_0" and an Arabic-Indic three are ints; "0x10" and "" are not).
_VALUES = {
    "--method": ["rowsum", "grs", "ls", "mystery"], "--axiom": ["iim", "sc", "wsc", "mva", "mvi", "xx"],
    "--epsilon": ["1/10", "-1", "x"],
    "--budget": ["0", "25", "-1", "x", " 7", "+3", "1_0", "0x10", "\u0663", ""],
    "--input": ["x.json", "-", "--json", ""], "--output": ["y.json", "-"], "--id": ["3.3", "-1"],
}
_STRAY = ["--meth", "--Method", "--method=ls", "--input=x.json", "--json=1", "--help", "-h", "--", "", "-1",
          "extra", "frobnicate", "RANK", "rank ", "--emit", "--budget"]


def _fuzzed_argv(rng: random.Random) -> list[str]:
    """Mostly a command and some of its options, shuffled, with stray tokens anywhere.  Half
    have no stray token and no other command's option, so that many reach the flag table's read."""
    command = rng.choice([*COMMAND_OPTIONS, rng.choice(_STRAY)])
    known = sorted(COMMAND_OPTIONS.get(command, ()))
    plain = rng.random() < 0.5
    # One of the command's options may come twice (the last value wins), and one of any command's.
    options = [*known, *rng.sample(known, rng.choice([0, min(1, len(known))])),
               *([] if plain else [rng.choice([*_VALUES, "--json"])])]
    argv = [command]
    for option in rng.sample(options, len(options)):
        if rng.random() < 0.85:
            values = _VALUES.get(option)
            argv += [option, rng.choice(values)] if values and rng.random() < 0.9 else [option]
    for _ in range(0 if plain else rng.choice([0, 0, 1, 2])):
        argv.insert(rng.randint(0, len(argv)), rng.choice(_STRAY))
    return argv


def _record(calls, name, **options):
    calls.append((name, options))


def _parsed_by_parser(argv, capsys):
    """What PARSER gives for argv: the command and options it names (its
    handler is `_record` bound to the command's name), its usage error, or
    the exit code and stdout of --help."""
    try:
        options = vars(cli.PARSER.parse_args(argv))
    except ValueError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out
    return "options", options.pop("handler").args[1], options


def _dispatched_by_main(argv, capsys, calls):
    """What main's dispatch gives for argv, in the same terms."""
    code = main(argv)
    captured = capsys.readouterr()
    if captured.err:
        assert (code, captured.out, captured.err[:7], captured.err[-1:]) == (1, "", "error: ", "\n")
        return "error", captured.err[7:-1]
    if calls:
        assert (code, captured.out, len(calls)) == (0, "", 1)
        return "options", *calls.pop()
    return "exit", code, captured.out


def _assert_main_reads_as_parser(argvs, capsys, monkeypatch):
    """Each command's handler records its options instead of running, then each argv is read both ways."""
    calls = []
    for name, parser in cli._COMMANDS.choices.items():
        monkeypatch.setitem(parser._defaults, "handler", functools.partial(_record, calls, name))
    for argv in argvs:
        assert _dispatched_by_main(argv, capsys, calls) == _parsed_by_parser(argv, capsys), argv


# A repeated flag (its last value wins), a repeated --json, an empty input name and each --budget spelling.
_SPELLINGS = [
    ["rank", "--method", "grs", "--input", "x.json", "--method", "ls"],
    ["check", "--axiom", "sc", "--json", "--method", "ls", "--input", "x.json", "--json"],
    ["check", "--axiom", "iim", "--method", "ls", "--input", ""],
    *(["check", "--axiom", "iim", "--method", "ls", "--input", "x.json", "--budget", value]
      for value in _VALUES["--budget"]),
]


@pytest.mark.parametrize(
    "argv",
    [argv for argv, _ in USAGE_ERRORS] + [[*command, "--help"] for command in [[], *([n] for n in COMMAND_OPTIONS)]]
    + _SPELLINGS,
)
def test_listed_argv_read_the_same_through_main_as_through_parser(capsys, monkeypatch, argv):
    _assert_main_reads_as_parser([argv], capsys, monkeypatch)


def test_fuzzed_argv_read_the_same_through_main_as_through_parser(capsys, monkeypatch):
    rng = random.Random(3401)
    argvs = [_fuzzed_argv(rng) for _ in range(2000)]
    handed = []  # main's calls of a sub-parser: each is an argv that the flag table did not read
    parse_args = cli._Parser.parse_args

    def counted(parser, *args):
        handed.append(parser is not cli.PARSER)
        return parse_args(parser, *args)

    monkeypatch.setattr(cli._Parser, "parse_args", counted)
    _assert_main_reads_as_parser(argvs, capsys, monkeypatch)
    read_by_table = sum(argv[0] in cli._TABLES for argv in argvs) - sum(handed)
    assert read_by_table >= len(argvs) // 8  # the oracle compares table reads, not only fallbacks


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["pairrank", "rank", "--help"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("usage: pairrank rank")
    monkeypatch.setattr("sys.argv", ["pairrank", "rank", "--method", "ls"])
    assert main() == 1
    assert "--input" in capsys.readouterr().err
    monkeypatch.setattr("sys.argv", ["pairrank"])
    assert main() == 1
    assert "COMMAND" in capsys.readouterr().err


class _UnreadableStdin:
    def read(self, *args):
        pytest.fail("stdin was read before the command line was checked")


@pytest.mark.parametrize(
    "argv, diagnostic",
    [
        (["rank", "--method", "ls", "--epsilon", "1/2"], "--epsilon applies only to method grs"),
        (["check", "--axiom", "sc", "--method", "rowsum", "--epsilon", "1/2"], "--epsilon applies only to method grs"),
        (["rank", "--method", "grs"], "method grs requires --epsilon"),
        (["check", "--axiom", "iim", "--method", "rowsum", "--budget", "-1"], "--budget"),
    ],
    ids=["rank-epsilon", "check-epsilon", "grs-without-epsilon", "negative-budget"],
)
def test_usage_is_checked_before_the_input_is_read(capsys, monkeypatch, argv, diagnostic):
    monkeypatch.setattr("sys.stdin", _UnreadableStdin())
    assert main([*argv, "--input", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert diagnostic in captured.err


def test_labels_are_printed_verbatim(tmp_path, capsys):
    # An escape sequence in a label reaches stdout unchanged, whatever stdout is.
    path = tmp_path / "escape.csv"
    path.write_text("object_a,object_b,score_a,score_b\n\x1b[31mred,blue,1,0\n", encoding="utf-8")
    assert main(["rank", "--method", "rowsum", "--input", str(path), "--json"]) == 0
    label = next(iter(json.loads(capsys.readouterr().out)["ratings"]))
    assert label == "\x1b[31mred"
    assert main(["rank", "--method", "rowsum", "--input", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"{label}: 1\n")


_ESCAPED_LABELS = ["é", 'a"b', "c\\d", "日本"]


@pytest.mark.parametrize("argv, codes", [
    (["rank", "--method", "ls", "--json"], {0}),
    (["check", "--axiom", "iim", "--method", "ls", "--json"], {0, 2}),
    (["check", "--axiom", "sc", "--method", "rowsum", "--json"], {0, 2}),
    (["ingest"], {0}),
    (["example", "--id", "3.3", "--emit"], {0}),
], ids=["rank", "check-iim", "check-sc", "ingest", "example"])
def test_json_output_is_the_stdlib_indented_text(tmp_path, capsys, argv, codes):
    path = tmp_path / "labels.csv"
    rows = [CSV_HEADER, ["é", 'a"b', "1", "0"], ['a"b', "c\\d", "1", "0"], ["c\\d", "日本", "1/2", "1/2"],
            ["日本", "é", "0", "1"], ["é", "c\\d", "1", "0"]]
    with path.open("w", encoding="utf-8", newline="") as file:
        csv.writer(file).writerows(rows)
    assert main(argv + (["--input", str(path)] if argv[0] != "example" else [])) in codes
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    if argv[0] in ("rank", "ingest"):
        assert out.isascii() and all(json.dumps(label) in out for label in _ESCAPED_LABELS)


def test_cli_imports_only_the_standard_library():
    code = "import sys; before = set(sys.modules); import pairrank.cli; print(*sorted(set(sys.modules) - before))"
    src = str(Path(pairrank.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    loaded = done.stdout.split()
    assert "pairrank.cli" in loaded, done.stderr
    allowed = sys.stdlib_module_names | {"pairrank"}
    assert [name for name in loaded if name.partition(".")[0] not in allowed] == []


# A fresh process imports the CLI, runs the command its arguments name (if any) with
# example 3.3 on stdin, and prints the modules that it loaded.
_PROBE = """import contextlib, io, sys
before = set(sys.modules)
import pairrank.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        pairrank.cli.main(sys.argv[1:])
print(*sorted(set(sys.modules) - before))
"""


def _fresh_env():
    src = str(Path(pairrank.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@functools.cache
def _loaded_by(*argv: str) -> frozenset[str]:
    example = emit_problem_json(get_instance("3.3"))
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], input=example, capture_output=True, text=True,
                          env=_fresh_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    return frozenset(done.stdout.split())


_CLI = {"pairrank", "pairrank.cli"}
_READS = _CLI | {"pairrank.core", "pairrank.serialize"}  # a command that reads its input
_SCORES = _READS | {"pairrank.methods"}
_CHECKS = _SCORES | {"pairrank.axioms"}
# Each command and the package modules that a process running it loads: no more than it runs.
COMMAND_MODULES = [
    ((), _CLI),
    (("rank", "--help"), _CLI),
    (("rank", "--method", "ls"), _CLI),  # a usage error: --input is missing
    (("rank", "--method", "rowsum", "--input", "-"), _SCORES),
    (("rank", "--method", "ls", "--input", "-"), _SCORES | {"pairrank.linalg"}),
    (("example", "--id", "3.3"), _READS | {"pairrank.registry"}),
    (("check", "--axiom", "sc", "--method", "rowsum", "--input", "-"), _CHECKS),
    (("enumerate-sc", "--input", "-"), _CHECKS),
    (("theorem31",), _CHECKS | {"pairrank.registry"}),
    (("check", "--axiom", "mva", "--method", "ls", "--input", "-"),
     _CHECKS | {"pairrank.macrovertex", "pairrank.linalg"}),
]


@pytest.mark.parametrize(
    "argv, modules", COMMAND_MODULES, ids=[" ".join(argv) or "import" for argv, _ in COMMAND_MODULES]
)
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    assert {name for name in _loaded_by(*argv) if name.partition(".")[0] == "pairrank"} == modules


def test_cli_import_loads_no_hashlib():
    # Only RankingProblem.fingerprint digests, and no command reads one, so no
    # command loads hashlib (or its C part), though most load pairrank.core.
    assert sum("pairrank.core" in modules for _, modules in COMMAND_MODULES) == 7
    for argv, modules in COMMAND_MODULES:
        loaded = _loaded_by(*argv)
        assert modules <= loaded, argv
        assert {"hashlib", "_hashlib"}.isdisjoint(loaded), argv


def _cyclic_round_robin(n):
    """Each object beats the next three."""
    results = [[0 if i == j else 1 if (j - i) % n <= 3 else -1 for j in range(n)] for i in range(n)]
    matches = [[int(i != j) for j in range(n)] for i in range(n)]
    return json.dumps({"version": 1, "labels": [f"P{i + 1}" for i in range(n)], "R": results, "M": matches})


@pytest.mark.parametrize(
    "argv, stdin, code, out, err",
    [
        (["rank", "--method", "ls"], None, 1, "", "error: the following arguments are required: --input\n"),
        (["rank", "--method", "rowsum", "--input", "missing.json"], None, 1, "",
         "error: input file not found: missing.json\n"),
        (["check", "--axiom", "sc", "--method", "rowsum", "--budget", "0", "--input", "-"], "3.3", 3,
         "axiom: sc\nmethod: rowsum\nverdict: budget-exceeded\ninstances checked: 0\n"
         "detail: more than 0 layer splits examined for pair (X1, X2)\n", ""),
        (["enumerate-sc", "--input", "-"], "round robin of 7", 3,
         "verdict: budget-exceeded\ndetail: ranking enumeration is limited to six objects, got 7\n", ""),
    ],
    ids=["usage", "missing-file", "split-budget", "seven-objects"],
)
def test_error_paths_in_a_fresh_process(tmp_path, argv, stdin, code, out, err):
    text = {None: "", "3.3": emit_problem_json(get_instance("3.3")), "round robin of 7": _cyclic_round_robin(7)}[stdin]
    done = subprocess.run([sys.executable, "-m", "pairrank", *argv], input=text, capture_output=True, text=True,
                          env=_fresh_env(), cwd=tmp_path, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


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


def _looks_like_csv_by_copies(text):
    """The sniff as it read the text before: whole copies of the input."""
    first_line = text.lstrip().splitlines()[0] if text.strip() else ""
    return tuple(cell.strip().lower() for cell in first_line.split(",", 4)) == CSV_HEADER


def test_csv_sniff_reads_the_first_line_as_splitlines_does():
    whitespace = [chr(c) for c in range(0x3000 + 1) if chr(c).isspace()]
    boundaries = [c for c in whitespace if len(f"a{c}b".splitlines()) == 2]
    assert len(boundaries) == 10 and "\x1f" not in boundaries and "\u3000" in whitespace
    heads = [
        "object_a,object_b,score_a,score_b",
        " Object_A ,\tobject_b,SCORE_A  ,  score_b\x1f ",
        "object_a,object_b,score_a,score_b,",
        "object_a,object_b,score_a,score_b,extra,more",
        "object_a,object_b,score_a",
        "object_a,,object_b,score_a,score_b",
        '{"version": 1, "labels": ["a", "b", "c"], "R": [[0]]}',
        "",
    ]
    heads += [f"object_a,object_b{c},score_a,score_b" for c in whitespace]
    leads = ["", "\r\n", " \t", "\n\n  "] + whitespace
    ends = ["", "\r\n", ",", "\x1fx", "a\n"] + [c + "a,b,1,0" for c in whitespace]
    answers = Counter()
    for head in heads:
        for lead in leads:
            for end in ends:
                text = lead + head + end
                answer = cli._looks_like_csv("input", text)
                assert answer == _looks_like_csv_by_copies(text), repr(text)
                answers[answer] += 1
    assert answers[True] > 1000 and answers[False] > 1000
    assert cli._looks_like_csv("input.csv", "")


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
