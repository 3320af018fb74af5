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
from typing import IO, Iterable

from .core import InvalidProblemError, RankingProblem, fraction_memo
from .core import problem_from_results_matches

__all__ = [
    "IngestError",
    "LabeledProblem",
    "MatchRecord",
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


@dataclass(frozen=True)
class MatchRecord:
    """One match: two distinct labels and a nonnegative score split summing to one."""

    object_a: str
    object_b: str
    score_a: Fraction
    score_b: Fraction

    def __post_init__(self):
        if self.object_a == self.object_b:
            raise IngestError(f"self-match for {self.object_a!r}")
        if self.score_a < 0 or self.score_b < 0:
            raise IngestError("scores must be nonnegative")
        if self.score_a + self.score_b != 1:
            raise IngestError(
                f"scores must sum to 1, got {self.score_a} + {self.score_b}"
            )


def _parse_score(text: str, convert) -> Fraction:
    try:
        return convert(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise IngestError(f"not a rational number: {text!r}") from exc


def ingest_matches(stream: IO[str] | Iterable[str]) -> LabeledProblem:
    """Aggregate a CSV match stream into a ranking problem."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty input: expected a header row") from None
    if tuple(h.strip().lower() for h in header) != CSV_HEADER:
        raise IngestError(
            f"line 1: expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
        )
    labels: list[str] = []
    index: dict[str, int] = {}
    played: dict[tuple[int, int], list] = {}  # (a, b), a < b -> [a's net result, match count]
    convert = fraction_memo()

    def object_index(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for line, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise IngestError(f"line {line}: expected 4 fields, got {len(row)}")
        try:
            record = MatchRecord(
                object_a=row[0].strip(),
                object_b=row[1].strip(),
                score_a=_parse_score(row[2], convert),
                score_b=_parse_score(row[3], convert),
            )
        except IngestError as exc:
            raise IngestError(f"line {line}: {exc}") from None
        if not record.object_a or not record.object_b:
            raise IngestError(f"line {line}: empty object label")
        a = object_index(record.object_a)
        b = object_index(record.object_b)
        net = record.score_a - record.score_b
        if a > b:
            a, b, net = b, a, -net
        pair = played.setdefault((a, b), [0, 0])
        pair[0] += net
        pair[1] += 1
    n = len(labels)
    if n == 0:
        raise IngestError("no matches found")
    zero = Fraction(0)
    results = [[zero] * n for _ in range(n)]
    matches = [[0] * n for _ in range(n)]
    for (a, b), (net, count) in played.items():
        results[a][b], results[b][a] = net, -net
        matches[a][b] = matches[b][a] = count
    return LabeledProblem(labels=tuple(labels), problem=problem_from_results_matches(results, matches))


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
    return json.dumps(document, indent=2)


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{path}: {message}")


def parse_problem_json(text: str) -> LabeledProblem:
    """Parse and validate a problem document; diagnostics carry JSON paths."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: not valid JSON ({exc})") from exc
    _require(isinstance(document, dict), "$", "document must be an object")
    _require(document.get("version") == 1, "$.version", "must be 1")
    labels = document.get("labels")
    _require(isinstance(labels, list) and labels, "$.labels", "must be a nonempty array")
    for idx, label in enumerate(labels):
        _require(
            isinstance(label, str) and label != "", f"$.labels[{idx}]", "must be a nonempty string"
        )
    _require(len(set(labels)) == len(labels), "$.labels", "labels must be unique")
    n = len(labels)

    raw_results = document.get("R")
    _require(isinstance(raw_results, list) and len(raw_results) == n, "$.R", f"must be a {n}x{n} array")
    convert = fraction_memo()
    results = []
    for i, row in enumerate(raw_results):
        _require(isinstance(row, list) and len(row) == n, f"$.R[{i}]", f"must have {n} entries")
        parsed_row = []
        for j, cell in enumerate(row):
            if type(cell) is not str and type(cell) is not int:  # a JSON true or false is a bool
                raise SchemaError(f"$.R[{i}][{j}]: must be a rational string or integer (floats are not exact)")
            try:
                parsed_row.append(convert(cell))
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"$.R[{i}][{j}]: not a rational: {cell!r}") from exc
        results.append(parsed_row)

    raw_matches = document.get("M")
    _require(isinstance(raw_matches, list) and len(raw_matches) == n, "$.M", f"must be a {n}x{n} array")
    matches = []
    for i, row in enumerate(raw_matches):
        _require(isinstance(row, list) and len(row) == n, f"$.M[{i}]", f"must have {n} entries")
        for j, cell in enumerate(row):
            if type(cell) is not int:
                raise SchemaError(f"$.M[{i}][{j}]: must be an integer")
        matches.append(row)

    note = document.get("note", "")
    _require(isinstance(note, str), "$.note", "must be a string")
    try:
        problem = problem_from_results_matches(results, matches)
    except InvalidProblemError as exc:
        raise SchemaError(f"$: {exc}") from exc
    return LabeledProblem(labels=tuple(labels), problem=problem, note=note)
