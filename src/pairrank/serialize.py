"""Problem ingestion and lossless serialization.

Two external formats:

* JSON problem documents:
  ``{"version": 1, "labels": [...], "R": [["p/q", ...], ...], "M": [[int, ...], ...]}``
  with results string-encoded as exact fractions (never floats) and an
  optional free-text ``note``.
* CSV match lists with header ``object_a,object_b,score_a,score_b`` where
  the two scores of a match are nonnegative rationals summing to one
  (win 1,0 -- draw 1/2,1/2 -- or any split).  Labels map to indices in
  first-seen order; repeated pairs accumulate.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # the stdlib's C string encoder
from typing import IO, Iterable

from .core import MAX_CELL_DIGITS, InvalidProblemError, RankingProblem, _Typed, fraction_memo
from .core import problem_from_results_matches

__all__ = [
    "IngestError",
    "LabeledProblem",
    "SchemaError",
    "emit_problem_json",
    "ingest_matches",
    "parse_problem_json",
]

CSV_HEADER = ("object_a", "object_b", "score_a", "score_b")


class SchemaError(ValueError):
    """A JSON problem document violates the schema; message carries the path."""


class IngestError(ValueError):
    """A CSV match stream is malformed; message carries the line number."""


@dataclass(frozen=True)
class LabeledProblem:
    """A problem together with its external object labels."""

    labels: tuple[str, ...]
    problem: RankingProblem
    note: str = ""


def _parse_score(text: str, convert, line: int) -> Fraction:
    try:
        return convert(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise IngestError(f"line {line}: not a rational number: {text!r}") from exc


def _match_outcome(row: list[str], convert, line: int) -> tuple[Fraction, Fraction]:
    """One match's checks, in order: two rational scores, two distinct
    labels, and a nonnegative split summing to one.  Gives each object's
    net result, both through the memo."""
    score_a, score_b = _parse_score(row[2], convert, line), _parse_score(row[3], convert, line)
    label_a, label_b = row[0].strip(), row[1].strip()
    if not label_a or not label_b:
        raise IngestError(f"line {line}: empty object label")
    if label_a == label_b:
        raise IngestError(f"line {line}: self-match for {label_a!r}")
    if score_a < 0 or score_b < 0:
        raise IngestError(f"line {line}: scores must be nonnegative")
    if score_a + score_b != 1:
        raise IngestError(f"line {line}: scores must sum to 1, got {score_a} + {score_b}")
    return convert(score_a - score_b), convert(score_b - score_a)


def _csv_rows(reader):
    """The reader's rows; a csv error, such as an oversized field, is an `IngestError` at its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"line {reader.line_num}: {exc}") from None


def ingest_matches(stream: IO[str] | Iterable[str]) -> LabeledProblem:
    """Aggregate a CSV match stream into a ranking problem.

    Each distinct pair of score texts is checked once, and equal results,
    sums of repeated pairs included, share one object.
    """
    rows = _csv_rows(csv.reader(stream))
    try:
        header = next(rows)
    except StopIteration:
        raise IngestError("empty input: expected a header row") from None
    if tuple(h.strip().lower() for h in header) != CSV_HEADER:
        raise IngestError(
            f"line 1: expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
        )
    labels: list[str] = []
    index: dict[str, int] = {}
    played: dict[tuple[int, int], list] = {}  # (a, b), a < b -> [a's net, b's net, match count]
    outcomes: dict[tuple[str, str], tuple[Fraction, Fraction]] = {}  # checked score texts
    convert = fraction_memo()

    def object_index(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for line, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise IngestError(f"line {line}: expected 4 fields, got {len(row)}")
        label_a, label_b = row[0].strip(), row[1].strip()
        scores = row[2], row[3]
        outcome = outcomes.get(scores)
        if outcome is None or not label_a or not label_b or label_a == label_b:  # raises what fails first
            outcome = outcomes[scores] = _match_outcome(row, convert, line)
        a = object_index(label_a)
        b = object_index(label_b)
        if a > b:
            a, b, outcome = b, a, outcome[::-1]
        pair = played.get((a, b))
        if pair is None:
            played[a, b] = [*outcome, 1]
        else:
            pair[0] += outcome[0]
            pair[2] += 1
    n = len(labels)
    if n == 0:
        raise IngestError("no matches found")
    zero = convert(0)
    results = [[zero] * n for _ in range(n)]
    matches = [[0] * n for _ in range(n)]
    for (a, b), (net, mirror, count) in played.items():
        if count > 1:  # a sum made here
            net, mirror = convert(net), convert(-net)
        results[a][b], results[b][a] = net, mirror
        matches[a][b] = matches[b][a] = count
    problem = problem_from_results_matches(_Typed(map(tuple, results)), _Typed(map(tuple, matches)))
    return LabeledProblem(labels=tuple(labels), problem=problem)


def emit_problem_json(labeled: LabeledProblem) -> str:
    """Serialize losslessly; fractions become strings in lowest terms."""
    document = {
        "version": 1,
        "labels": list(labeled.labels),
        "R": [[str(x) for x in row] for row in labeled.problem.results],
        "M": [list(row) for row in labeled.problem.matches],
    }
    if labeled.note:
        document["note"] = labeled.note
    return indented_json(document)


def indented_json(value, newline: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)`` for str-keyed dicts, lists, tuples, str, int, bool
    and None, each string quoted by the stdlib's C encoder; any other value is a `TypeError`.
    ``newline`` is the line break and indent that close ``value`` (nested values are indented further)."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return {True: "true", False: "false", None: "null"}[value]
    inner = newline + "  "
    if kind is dict:
        items, ends = [_quote(key) + ": " + indented_json(item, inner) for key, item in value.items()], "{}"
    elif kind is list or kind is tuple:
        items, ends = [indented_json(item, inner) for item in value], "[]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1] if items else ends


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{path}: {message}")


def _result_cell(convert, cell, i: int, j: int) -> Fraction:
    if type(cell) is not str and type(cell) is not int:  # a JSON true or false is a bool
        raise SchemaError(f"$.R[{i}][{j}]: must be a rational string or integer (floats are not exact)")
    try:
        return convert(cell)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"$.R[{i}][{j}]: not a rational: {cell!r}") from exc


def parse_problem_json(text: str) -> LabeledProblem:
    """Parse and validate a problem document; diagnostics carry JSON paths.

    A results row of known strings maps through the memo's string table in
    one call; any other row is checked and converted cell by cell.  The
    per-label and per-row diagnostics are formatted only when raised.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise SchemaError("$: not valid JSON (nested too deeply)") from exc
    except ValueError as exc:  # an integer literal past Python's int-string digit limit
        raise SchemaError(f"$: an integer has more than {MAX_CELL_DIGITS} digits") from exc
    _require(isinstance(document, dict), "$", "document must be an object")
    _require(document.get("version") == 1, "$.version", "must be 1")
    labels = document.get("labels")
    _require(isinstance(labels, list) and labels, "$.labels", "must be a nonempty array")
    for idx, label in enumerate(labels):
        if not isinstance(label, str) or label == "":
            raise SchemaError(f"$.labels[{idx}]: must be a nonempty string")
    _require(len(set(labels)) == len(labels), "$.labels", "labels must be unique")
    n = len(labels)

    raw_results = document.get("R")
    _require(isinstance(raw_results, list) and len(raw_results) == n, "$.R", f"must be a {n}x{n} array")
    convert = fraction_memo()
    strings = convert.strings
    results = []
    for i, row in enumerate(raw_results):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"$.R[{i}]: must have {n} entries")
        try:
            results.append(tuple(map(strings.__getitem__, row)))
        except (KeyError, TypeError):  # a string not seen yet, or not a string: cell by cell
            results.append(tuple(_result_cell(convert, cell, i, j) for j, cell in enumerate(row)))

    raw_matches = document.get("M")
    _require(isinstance(raw_matches, list) and len(raw_matches) == n, "$.M", f"must be a {n}x{n} array")
    matches = []
    for i, row in enumerate(raw_matches):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"$.M[{i}]: must have {n} entries")
        if set(map(type, row)) != {int}:  # a JSON true or false is a bool
            j = next(j for j, cell in enumerate(row) if type(cell) is not int)
            raise SchemaError(f"$.M[{i}][{j}]: must be an integer")
        matches.append(tuple(row))

    note = document.get("note", "")
    _require(isinstance(note, str), "$.note", "must be a string")
    try:
        problem = problem_from_results_matches(_Typed(results), _Typed(matches))
    except InvalidProblemError as exc:
        raise SchemaError(f"$: {exc}") from exc
    return LabeledProblem(labels=tuple(labels), problem=problem, note=note)
