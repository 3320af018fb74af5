import csv
import io
import json
import random
from fractions import Fraction

import pytest

from pairrank.core import InvalidProblemError, RankingProblem, problem_from_results_matches
from pairrank.registry import get_instance
from pairrank.serialize import (
    IngestError,
    LabeledProblem,
    SchemaError,
    emit_problem_json,
    indented_json,
    ingest_matches,
    parse_problem_json,
)

from oracles import (
    benchmark_generators,
    reference_ingest_matches,
    reference_parse_problem_json,
    reference_problem,
)


def roundtrip(labeled: LabeledProblem) -> LabeledProblem:
    return parse_problem_json(emit_problem_json(labeled))


def test_json_round_trip_is_lossless():
    for instance_id in ("3.1", "3.2", "3.3", "3.3-prime", "4.1"):
        entry = get_instance(instance_id)
        labeled = LabeledProblem(labels=entry.labels, problem=entry.problem, note=entry.note)
        back = roundtrip(labeled)
        assert back.labels == labeled.labels
        assert back.problem == labeled.problem
        assert back.note == labeled.note


def test_json_rational_entries_parse_exactly():
    document = {
        "version": 1,
        "labels": ["a", "b"],
        "R": [["0", "1/2"], ["-1/2", "0"]],
        "M": [[0, 1], [1, 0]],
    }
    labeled = parse_problem_json(json.dumps(document))
    assert labeled.problem.results[0][1] == Fraction(1, 2)


def test_json_schema_errors_carry_paths():
    base = {
        "version": 1,
        "labels": ["a", "b"],
        "R": [["0", "1"], ["-1", "0"]],
        "M": [[0, 1], [1, 0]],
    }

    bad = dict(base, version=2)
    with pytest.raises(SchemaError, match=r"\$\.version"):
        parse_problem_json(json.dumps(bad))

    bad = dict(base, R=[["0", 0.5], ["-1", "0"]])
    with pytest.raises(SchemaError, match=r"\$\.R\[0\]\[1\]"):
        parse_problem_json(json.dumps(bad))

    bad = dict(base, M=[[0, "1"], [1, 0]])
    with pytest.raises(SchemaError, match=r"\$\.M\[0\]\[1\]"):
        parse_problem_json(json.dumps(bad))

    bad = dict(base, labels=["a", "a"])
    with pytest.raises(SchemaError, match="unique"):
        parse_problem_json(json.dumps(bad))

    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_problem_json("{nope")


def test_json_rejects_invariant_violations():
    document = {
        "version": 1,
        "labels": ["a", "b"],
        "R": [["0", "2"], ["-2", "0"]],
        "M": [[0, 1], [1, 0]],
    }
    with pytest.raises(SchemaError, match="result"):
        parse_problem_json(json.dumps(document))


def test_ingest_basic_rows():
    stream = io.StringIO("object_a,object_b,score_a,score_b\nA,B,1,0\nB,C,1/2,1/2\n")
    labeled = ingest_matches(stream)
    assert labeled.labels == ("A", "B", "C")
    p = labeled.problem
    assert p.results[0][1] == 1 and p.matches[0][1] == 1
    assert p.results[1][2] == 0 and p.matches[1][2] == 1


def test_ingest_accumulates_duplicates():
    stream = io.StringIO("object_a,object_b,score_a,score_b\nA,B,1,0\nA,B,1,0\n")
    p = ingest_matches(stream).problem
    assert p.matches[0][1] == 2
    assert p.results[0][1] == 2


def test_ingest_reconstructs_instance_31(instance_31):
    rows = [
        "object_a,object_b,score_a,score_b",
        "X1,X2,1,0",
        "X1,X3,1,0",
        "X2,X4,1,0",
        "X3,X4,1,0",
    ]
    labeled = ingest_matches(io.StringIO("\n".join(rows) + "\n"))
    assert labeled.labels == ("X1", "X2", "X3", "X4")
    assert labeled.problem == instance_31


def test_ingest_decimal_scores_are_exact():
    stream = io.StringIO("object_a,object_b,score_a,score_b\nA,B,0.5,0.5\n")
    p = ingest_matches(stream).problem
    assert p.results[0][1] == 0
    assert p.matches[0][1] == 1


def test_ingest_errors_carry_line_numbers():
    with pytest.raises(IngestError, match="line 2"):
        ingest_matches(io.StringIO("object_a,object_b,score_a,score_b\nA,A,1,0\n"))
    with pytest.raises(IngestError, match="line 3"):
        ingest_matches(
            io.StringIO("object_a,object_b,score_a,score_b\nA,B,1,0\nA,C,2,0\n")
        )
    with pytest.raises(IngestError, match="line 2"):
        ingest_matches(io.StringIO("object_a,object_b,score_a,score_b\nA,B,x,y\n"))
    with pytest.raises(IngestError, match="header"):
        ingest_matches(io.StringIO("a,b,c,d\nA,B,1,0\n"))
    with pytest.raises(IngestError, match="empty input"):
        ingest_matches(io.StringIO(""))
    # A field past the csv module's size limit is a diagnostic at its line,
    # in the header, a match row, or a quoted field; the limit stays as it is.
    header, label = "object_a,object_b,score_a,score_b\n", "x" * 140_000
    limit = csv.field_size_limit()
    for line, text in (
        (1, f"{label},b,c,d\n"),
        (2, f"{header}{label},B,1,0\n"),
        (3, f'{header}A,B,1,0\n"{label}",B,1,0\n'),
    ):
        with pytest.raises(IngestError, match=rf"^line {line}: field larger than field limit \(131072\)$"):
            ingest_matches(io.StringIO(text))
    assert csv.field_size_limit() == limit


def test_match_record_invariants():
    def read(row: str):
        return ingest_matches(io.StringIO("object_a,object_b,score_a,score_b\nC,D,1,0\n" + row + "\n"))

    with pytest.raises(IngestError, match=r"^line 3: self-match for 'A'$"):
        read("A,A,1,0")
    with pytest.raises(IngestError, match=r"^line 3: scores must sum to 1, got 2 \+ 0$"):
        read("A,B,2,0")
    with pytest.raises(IngestError, match=r"^line 3: scores must be nonnegative$"):
        read("A,B,-1,2")
    labeled = read("A,B,1/3,2/3")
    assert labeled.labels == ("C", "D", "A", "B")
    assert labeled.problem.results[2][3] == Fraction(-1, 3)
    assert labeled.problem.matches[2][3] == 1


def test_both_labels_blank_is_an_empty_label_not_a_self_match():
    for ingest in (ingest_matches, reference_ingest_matches):
        with pytest.raises(IngestError, match=r"^line 2: empty object label$"):
            ingest(io.StringIO("object_a,object_b,score_a,score_b\n , ,1,0\n"))


def test_crlf_stream():
    stream = io.StringIO("object_a,object_b,score_a,score_b\r\nA,B,1,0\r\n")
    assert ingest_matches(stream).labels == ("A", "B")


# --- differential: one-pass ingestion against the three-pass reference --------


def _spell(rng: random.Random, value: Fraction):
    """A JSON cell for ``value``: an int or a canonical or non-canonical string."""
    spellings = [str(value), f"{2 * value.numerator}/{2 * value.denominator}", f" {value} "]
    if value.denominator == 1:
        spellings.append(int(value))
    if value.denominator in (1, 2, 4):
        spellings.append(str(float(value)))
    if value == 0:
        spellings += ["-0", "0/7"]
    elif value > 0:
        spellings.append(f"+{value}")
    return rng.choice(spellings)


def _seeded_matrices(rng: random.Random, n: int, integral: bool):
    """Random valid (results, matches) as exact values, about 60% of pairs played."""
    results = [[Fraction(0)] * n for _ in range(n)]
    matches = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                mu = rng.randint(1, 3)
                den = 1 if integral else rng.choice((1, 2, 3, 4))
                rho = Fraction(rng.randint(-den * mu, den * mu), den)
                results[i][j], results[j][i] = rho, -rho
                matches[i][j] = matches[j][i] = mu
    return results, matches


# Results that are not shared objects: every cell its own `Fraction`, so
# validation meets a new state at every pair.
RESULT_KINDS = ("fresh", "half", "large")


def _unshared_matrices(rng: random.Random, n: int, kind: str):
    """Random valid (results, matches), about 60% of pairs played, each
    result a fresh `Fraction`: denominators up to 4, halves only, or large
    denominators with results at or near their bound."""
    results = [[Fraction(0) for _ in range(n)] for _ in range(n)]
    matches = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                mu = rng.randint(1, 3)
                den = {"fresh": rng.choice((1, 2, 3, 4)), "half": 2, "large": rng.randint(10**20, 10**40)}[kind]
                top = den * mu
                num = rng.choice((top, -top, top - 1, rng.randint(-top, top))) if kind == "large" else rng.randint(-top, top)
                results[i][j], results[j][i] = Fraction(num, den), Fraction(-num, den)
                matches[i][j] = matches[j][i] = mu
    return results, matches


def _nudge(rng: random.Random, results, matches) -> None:
    """Move one played result just past its bound, both ways, or give its
    mirror the same numerator over a slightly larger denominator."""
    played = [(i, j) for i, row in enumerate(matches) for j, mu in enumerate(row) if mu]
    if played:
        i, j = rng.choice(played)
        value, step = results[i][j], rng.choice((1, 10**30))
        if rng.random() < 0.5:
            past = matches[i][j] + Fraction(1, value.denominator * step)
            results[i][j], results[j][i] = past, -past
        else:
            results[j][i] = Fraction(-value.numerator, value.denominator + step)


def _document_for(rng: random.Random, results, matches) -> dict:
    n = len(matches)
    return {
        "version": 1,
        "labels": [f"team {i}" for i in rng.sample(range(100), n)],
        "R": [[_spell(rng, x) for x in row] for row in results],
        "M": [list(row) for row in matches],
        "note": rng.choice(["", "seeded"]),
    }


def _match_list(rng: random.Random, labels, results, matches) -> list[str]:
    """CSV lines of unit matches (wins, losses, draws) that sum to integral results."""
    lines = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            rho, mu = int(results[i][j]), matches[i][j]
            games = ["1,0"] * max(rho, 0) + ["0,1"] * max(-rho, 0)
            games += [rng.choice(["1/2,1/2", "0.5,0.5", " 1/2 , 2/4 "]) for _ in range(mu - abs(rho))]
            for game in games:
                a, b = game.split(",")
                if rng.random() < 0.5:
                    lines.append(f"{labels[i]},{labels[j]},{a},{b}")
                else:
                    lines.append(f"{labels[j]},{labels[i]},{b},{a}")
    rng.shuffle(lines)
    return lines


def _outcome(read, *args):
    """What a reader gives: the labeled problem's parts, or the error it raises."""
    try:
        labeled = read(*args)
    except (InvalidProblemError, SchemaError, IngestError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(labeled, RankingProblem):
        labeled = LabeledProblem(labels=(), problem=labeled)
    problem = labeled.problem
    assert all(type(x) is Fraction for row in problem.results for x in row)
    assert all(type(x) is int for row in problem.matches for x in row)
    return labeled.labels, labeled.note, problem.results, problem.matches


@pytest.mark.parametrize("seed", range(49))
def test_ingestion_matches_the_three_pass_reference(seed):
    rng = random.Random(f"ingest:{seed}")
    n = rng.randint(1, 9)
    kind = RESULT_KINDS[seed % 3] if seed >= 40 else None
    integral = kind is None and seed % 2 == 0
    results, matches = _unshared_matrices(rng, n, kind) if kind else _seeded_matrices(rng, n, integral)
    document = _document_for(rng, results, matches)
    text = json.dumps(document)
    parsed = _outcome(parse_problem_json, text)
    assert parsed == _outcome(reference_parse_problem_json, text)
    assert parsed[2:] == (tuple(map(tuple, results)), tuple(map(tuple, matches)))
    raw = (results, matches) if kind else (document["R"], document["M"])
    assert _outcome(problem_from_results_matches, *raw) == _outcome(reference_problem, *raw)
    if integral:
        lines = _match_list(rng, document["labels"], results, matches)
        if lines:
            lines.insert(rng.randrange(len(lines)), "")
        csv_text = "object_a,object_b,score_a,score_b\n" + "\n".join(lines) + "\n"
        ingested = _outcome(ingest_matches, io.StringIO(csv_text))
        assert ingested == _outcome(reference_ingest_matches, io.StringIO(csv_text))


BAD_RESULTS = ("x", "1/0", "", None, [1], {}, 0.5, True, "7/2", "-3", 4, Fraction(1, 3), "1/3")
BAD_MATCHES = (-1, -2, "2", 1.5, 2.0, Fraction(3, 2), Fraction(2), None, [0], True, 4, 0)


def _corrupt(rng: random.Random, document: dict) -> None:
    """Replace one or two cells (sometimes mirrored, sometimes a whole row)."""
    n = len(document["labels"])
    for _ in range(rng.randint(1, 2)):
        name = rng.choice("RM")
        i, j = rng.randrange(n), rng.randrange(n)
        rows = document[name]
        kind = rng.random()
        if i >= len(rows) or j >= len(rows[i]):
            continue
        if kind < 0.1:
            rows[i] = rows[i][:-1]
        elif kind < 0.15 and name == "M":
            del rows[i]
        else:
            value = rng.choice(BAD_RESULTS if name == "R" else BAD_MATCHES)
            rows[i][j] = value
            if kind < 0.5 and i != j and len(rows[j]) == n:
                mirrored = value if name == "M" else -value if isinstance(value, (int, Fraction)) else value
                rows[j][i] = mirrored


@pytest.mark.parametrize("seed", range(260))
def test_malformed_inputs_give_the_reference_diagnostics(seed):
    rng = random.Random(f"corrupt:{seed}")
    n = rng.randint(1, 6)
    if seed < 200:
        results, matches = _seeded_matrices(rng, n, seed % 3 != 0)
        document = _document_for(rng, results, matches)
    else:  # the results themselves, each its own object, nudged or corrupted
        results, matches = _unshared_matrices(rng, n, RESULT_KINDS[seed % 3])
        document = dict(_document_for(rng, results, matches), R=results)
    if seed >= 200 and seed % 2:
        _nudge(rng, results, matches)
    else:
        _corrupt(rng, document)
    raw = (document["R"], document["M"])
    assert _outcome(problem_from_results_matches, *raw) == _outcome(reference_problem, *raw)
    cells = {"R": [[str(x) if isinstance(x, Fraction) else x for x in row] for row in document["R"]],
             "M": [[str(x) if isinstance(x, Fraction) else x for x in row] for row in document["M"]]}
    text = json.dumps(dict(document, **cells))
    assert _outcome(parse_problem_json, text) == _outcome(reference_parse_problem_json, text)


@pytest.mark.parametrize("seed", range(60))
def test_malformed_match_lists_give_the_reference_diagnostics(seed):
    rng = random.Random(f"corrupt-csv:{seed}")
    n = rng.randint(2, 6)
    results, matches = _seeded_matrices(rng, n, True)
    lines = _match_list(rng, [f"P{i}" for i in range(n)], results, matches) or ["P0,P1,1,0"]
    k = rng.randrange(len(lines))
    a, b, x, y = lines[k].split(",")
    lines[k] = rng.choice([f"{a},{a},{x},{y}", f"{a},{b},{x}", f"{a},{b},{x},{y},0", f"{a},{b},1,1",
                           f"{a},{b},-1,2", f"{a},{b},x,{y}", f"{a},{b},1/0,0", f" ,{b},{x},{y}",
                           f"{a},{b},1/3,2/3"])
    csv_text = "object_a,object_b,score_a,score_b\n" + "\n".join(lines) + "\n"
    new = _outcome(ingest_matches, io.StringIO(csv_text))
    assert new == _outcome(reference_ingest_matches, io.StringIO(csv_text))


# --- differential at table sizes, where the row paths engage -------------------


def _swiss(n: int):
    """A seeded Swiss table, and its document with the rows before the last
    three spelled every way ``_spell`` knows (ints among them); the last
    rows keep the canonical strings, so they map through a warm table."""
    table = benchmark_generators().swiss(random.Random(27_000 + n), n)
    document = json.loads(table.to_json())
    rng = random.Random(n)
    early = document["R"][: n - 3] = [[_spell(rng, Fraction(x)) for x in row] for row in document["R"][: n - 3]]
    assert {x for row in document["R"][n - 3:] for x in row} <= {x for row in early for x in row if type(x) is str}
    assert any(type(x) is int and x == 1 for row in early for x in row)
    return table, document


@pytest.mark.parametrize("n", [40, 150])
def test_swiss_tables_read_as_the_three_pass_reference(n):
    table, document = _swiss(n)
    text = json.dumps(document)
    parsed = _outcome(parse_problem_json, text)
    assert parsed == _outcome(reference_parse_problem_json, text)
    assert parsed[2:] == (tuple(map(tuple, table.R)), tuple(map(tuple, table.M)))
    raw = (document["R"], document["M"])
    assert _outcome(problem_from_results_matches, *raw) == _outcome(reference_problem, *raw)
    lines = table.to_csv().splitlines()
    for csv_lines in (lines, lines + lines[1:]):  # every pair met once, then twice (summed)
        csv_text = "\n".join(csv_lines) + "\n"
        ingested = _outcome(ingest_matches, io.StringIO(csv_text))
        assert ingested == _outcome(reference_ingest_matches, io.StringIO(csv_text))
        cells = [x for row in ingested[2] for x in row]
        assert len({id(x) for x in cells}) == len(set(cells))  # equal results share one object


# One bad cell in a late row, after the table is warm: the results cells a
# row lookup must not let through (equal to 1 and hashing alike, or not
# hashable), a new string that fails, and a mirror of the wrong sign; then
# a bool and a wrong mirror among the match counts.
LATE_BAD_CELLS = [("R", True), ("R", 1.0), ("R", 0.5), ("R", "1/0"), ("R", [1]), ("R", "mirror"),
                  ("M", True), ("M", "mirror")]


@pytest.mark.parametrize("n", [40, 150])
@pytest.mark.parametrize(("name", "bad"), LATE_BAD_CELLS, ids=repr)
def test_a_bad_late_cell_of_a_swiss_table_gives_the_reference_diagnostic(n, name, bad):
    _, document = _swiss(n)
    i = next(i for i in range(n - 1, n - 4, -1) if "1" in document["R"][i])  # a late row with a win
    j = document["R"][i].index("1")
    rows = document[name]
    if bad == "mirror":
        rows[j][i] = rows[i][j] if name == "R" else rows[i][j] + 1
    else:
        rows[i][j] = bad
    text = json.dumps(document)
    parsed = _outcome(parse_problem_json, text)
    assert parsed == _outcome(reference_parse_problem_json, text)
    assert parsed[0] == "SchemaError"
    raw = (document["R"], document["M"])
    assert _outcome(problem_from_results_matches, *raw) == _outcome(reference_problem, *raw)


def test_equal_cells_of_a_swiss_table_share_one_object():
    table = benchmark_generators().swiss(random.Random(20170150), 150)
    problem = parse_problem_json(table.to_json()).problem
    cells = [x for row in problem.results for x in row]
    assert len(set(cells)) < 10
    assert len({id(x) for x in cells}) == len(set(cells))


def test_equal_values_share_one_object_whatever_their_spelling():
    document = {
        "version": 1,
        "labels": ["a", "b", "c"],
        "R": [["0", "2/4", -1], ["-1/2", "-0", " 0 "], [" 1 ", "0.0", 0]],
        "M": [[0, 1, 2], [1, 0, 0], [2, 0, 0]],
    }
    r = parse_problem_json(json.dumps(document)).problem.results
    assert r[0][1] == Fraction(1, 2) and r[1][0] == -r[0][1]
    assert r[0][0] is r[1][1] is r[1][2] is r[2][1] is r[2][2]
    assert r[0][2] is not r[2][0] and r[2][0] == 1


# The shared table of small integers that every converter starts from.

def _shared_table():
    """The module table as it stands: each spelling and value with the identity of its `Fraction`."""
    from pairrank import core

    strings = [(key, value, id(value)) for key, value in core._SMALL_STRINGS.items()]
    values = [(key, id(key), id(value)) for key, value in core._SMALL_VALUES.items()]
    return strings, values


def test_reading_new_cells_leaves_the_shared_table_unchanged():
    before = _shared_table()
    assert len(before[0]) == len(before[1]) == 17
    document = {
        "version": 1,
        "labels": ["a", "b", "c"],
        "R": [["0", "1/2", "-9"], ["-1/2", "0", " 1"], ["9", "-1", "0"]],
        "M": [[0, 1, 9], [1, 0, 1], [9, 1, 0]],
    }
    parse_problem_json(json.dumps(document))
    ingest_matches(io.StringIO("object_a,object_b,score_a,score_b\na,b,1/3,2/3\nb,c,0.5,.5\na,c,+1,0\n"))
    problem_from_results_matches([[0, 10], [-10, 0]], [[0, 12], [12, 0]])
    problem_from_results_matches([[Fraction(0), Fraction(1, 3)], [Fraction(-1, 3), Fraction(0)]], [[0, 1], [1, 0]])
    problem_from_results_matches([["0", "7/3"], ["-7/3", "0"]], [[0, 3], [3, 0]])
    assert _shared_table() == before


def test_every_spelling_of_a_small_integer_is_the_shared_object():
    from pairrank import core

    one = core._SMALL_STRINGS["1"]
    spellings = ["1", "+1", "01", " 1", "2/2", 1]
    for spelling in spellings:
        document = {
            "version": 1,
            "labels": ["a", "b"],
            "R": [["0", spelling], [-1, "0"]],
            "M": [[0, 1], [1, 0]],
        }
        text = json.dumps(document)
        parsed = parse_problem_json(text)
        assert parsed.problem.results[0][1] is one, spelling
        assert _outcome(parse_problem_json, text) == _outcome(reference_parse_problem_json, text)
    assert problem_from_results_matches([[0, 1], [-1, 0]], [[0, 1], [1, 0]]).results[0][1] is one
    labeled = ingest_matches(io.StringIO("object_a,object_b,score_a,score_b\na,b,1,0\n"))
    assert labeled.problem.results[0][1] is one
    assert labeled.problem.results[0][0] is problem_from_results_matches([[0]], [[0]]).results[0][0]


@pytest.mark.parametrize(
    "cell", ["9/7", "x", "", True, False, 1.0, 0.5, None, [], ["1"]],
    ids=["new-string", "not-rational", "empty", "true", "false", "float-one", "float", "null", "list", "nested"],
)
@pytest.mark.parametrize("column", [0, 1, 2])
def test_a_small_integer_row_with_one_other_cell_gives_the_reference_diagnostic(cell, column):
    # Row 1 is all table strings and is read first; row 2 holds the odd cell
    # among them.  A new rational string is read, and validation fails later.
    row = ["-1", "1", "0"]
    row[column] = cell
    document = {
        "version": 1,
        "labels": ["a", "b", "c"],
        "R": [["0", "-1", "1"], ["1", "0", "-1"], row],
        "M": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    }
    text = json.dumps(document)
    outcome = _outcome(parse_problem_json, text)
    assert outcome == _outcome(reference_parse_problem_json, text)
    path = "$: " if cell == "9/7" else f"$.R[2][{column}]: "
    assert outcome[0] == "SchemaError" and outcome[1].startswith(path)


# Strings that an ASCII-only JSON encoder must escape or keep: non-ASCII text,
# control characters, quotes, backslashes and lone surrogates.
_TEXTS = ["", "plain", "é", 'a"b', "c\\d", "日本", "\x00\x1f\x7f", "\n\t\r\b\f", "\ud800", "x\udfff", "\u2028", "😀", "/"]
_INTS = [0, 1, -1, 7, -(10**30), 2**64, 10**100]


def _random_text(rng: random.Random) -> str:
    return rng.choice(_TEXTS) + "".join(chr(rng.randrange(0x110000)) for _ in range(rng.randrange(3)))


def _random_json(rng: random.Random, depth: int = 0):
    """A nested value of str-keyed dicts, lists, tuples, str, int, bool and None."""
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice([*_INTS, rng.randrange(-1000, 1000)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    items = [_random_json(rng, depth + 1) for _ in range(rng.choice([0, 1, 2, 5]))]
    if kind == 4:
        return {_random_text(rng): item for item in items}
    return items if kind == 5 else tuple(items)


def test_indented_json_matches_the_stdlib_on_random_values():
    rng = random.Random(4501)
    for _ in range(3000):
        value = _random_json(rng)
        assert indented_json(value) == json.dumps(value, indent=2), value


@pytest.mark.parametrize("value", [{}, [], (), "", "é", 'a"b', "c\\d", "日本", "\ud800", -(10**40), True, False, None,
                                   {"a": [], "b": {}, "c": ((),)}])
def test_indented_json_matches_the_stdlib_on_edge_values(value):
    assert indented_json(value) == json.dumps(value, indent=2)


# 1.0 and 0.0 equal True and False, so a lookup by value would print them as booleans; the stdlib
# prints floats and int keys and refuses a Fraction, and the writer refuses every one of them.
@pytest.mark.parametrize("value", [1.0, 0.0, Fraction(1, 2), {1: "a"}, {"a": [True, 1.0]}, ["x", {"y": 0.0}],
                                   {"r": (Fraction(1, 3),)}])
def test_indented_json_refuses_other_values(value):
    with pytest.raises(TypeError):
        indented_json(value)


def test_emitted_document_is_the_stdlib_text():
    labeled = ingest_matches(io.StringIO("object_a,object_b,score_a,score_b\né,\"a\"\"b\",1,0\nc\\d,日本,1/2,1/2\n"))
    document = emit_problem_json(labeled)
    assert document == json.dumps(json.loads(document), indent=2)
    assert parse_problem_json(document).labels == ("é", 'a"b', "c\\d", "日本")
