"""End-to-end walk of a small tournament through every CLI surface."""

import json

from pairrank.cli import main
from pairrank.methods import format_order, induce_ranking, least_squares, row_sum
from pairrank.serialize import parse_problem_json

# Five players, incomplete schedule: everyone plays three of the four
# others.  Decisive games except one draw.
MATCHES = """object_a,object_b,score_a,score_b
dina,eero,1,0
dina,femi,1,0
gbenga,dina,0,1
eero,femi,1/2,1/2
eero,hana,1,0
femi,gbenga,0,1
gbenga,hana,1,0
hana,dina,0,1
hana,femi,0,1
"""


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_tournament_walkthrough(tmp_path, capsys):
    csv_path = tmp_path / "season.csv"
    csv_path.write_text(MATCHES, encoding="utf-8")

    problem_path = tmp_path / "season.json"
    code, _ = run(capsys, ["ingest", "--input", str(csv_path), "--output", str(problem_path)])
    assert code == 0

    labeled = parse_problem_json(problem_path.read_text())
    assert labeled.labels == ("dina", "eero", "femi", "gbenga", "hana")
    problem = labeled.problem
    # dina won all four games; hana lost three and beat nobody but... check totals
    assert sum(problem.matches[0]) == 4
    assert row_sum(problem).values[0] == 4

    code, out = run(capsys, ["classify", "--input", str(problem_path)])
    assert code == 0
    assert "connected: yes" in out
    assert "unweighted: yes" in out
    assert "balanced: no" in out  # dina played four games, eero three

    code, out = run(
        capsys, ["rank", "--method", "grs", "--epsilon", "1/4", "--input", str(problem_path), "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranking"][0] == ["dina"]

    # The library agrees with the CLI output.
    ratings = least_squares(problem)
    order = induce_ranking(ratings)
    code, out = run(capsys, ["rank", "--method", "ls", "--input", str(problem_path)])
    assert code == 0
    assert f"ranking: {format_order(order, labeled.labels)}" in out

    # Row sum stays independent of remote matches; the corrected methods
    # are self-consistent here.
    code, _ = run(capsys, ["check", "--axiom", "iim", "--method", "rowsum", "--input", str(problem_path)])
    assert code == 0
    code, _ = run(capsys, ["check", "--axiom", "sc", "--method", "ls", "--input", str(problem_path)])
    assert code == 0
    code, _ = run(
        capsys,
        ["check", "--axiom", "sc", "--method", "grs", "--epsilon", "2", "--input", str(problem_path)],
    )
    assert code == 0
    code, _ = run(capsys, ["check", "--axiom", "wsc", "--method", "rowsum", "--input", str(problem_path)])
    assert code == 0


def test_walkthrough_rating_sanity(tmp_path, capsys):
    csv_path = tmp_path / "season.csv"
    csv_path.write_text(MATCHES, encoding="utf-8")
    code, out = run(capsys, ["ingest", "--input", str(csv_path)])
    assert code == 0
    problem = parse_problem_json(out).problem
    s = row_sum(problem).values
    # dina 4-0, eero 1-1-1 plus a draw, femi one win two losses and a draw,
    # gbenga two wins one loss, hana lost all four.
    assert s == (4, 0, -1, 1, -4)
    assert sum(s) == 0
