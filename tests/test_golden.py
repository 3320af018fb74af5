"""Byte-identical CLI output on a recorded corpus.

Four corpus files map each argument list to the stdout and exit code the
CLI produced when the corpus was recorded, and to its stderr when it wrote
any:

* ``tests/golden/check.json``: the single-pair sweeps.  Every combination
  of ``check --axiom iim|mva|mvi``, method, built-in instance where the
  check applies, budget (none, 0, 1, 7) and ``--json`` on/off; the same for
  ``iim|mva|mvi`` on the disconnected problem and for ``iim`` on a
  five-object path, whose LS sweeps fall back to full re-scores.  Beside
  them, ``macrovertices`` and ``classify`` on every built-in instance, on
  the disconnected problem, the path and the seeded weighted problems, and
  on the 40-object Swiss table, which has no nontrivial macrovertex.
* ``tests/golden/sc.json``: the dominance search.  ``check --axiom
  sc|wsc`` for every method and built-in instance, with and without
  ``--budget 0`` and ``--json``; the same without ``--budget`` on the
  seeded Swiss tables of 20 and 40 objects; ``enumerate-sc`` on examples
  3.1-3.3 and on the seeded weighted problems in ``tests/golden/inputs/``;
  and ``theorem31`` with and without ``--json``.
* ``tests/golden/rank.json``: the exact scorers.  ``rank --method rowsum|ls|
  grs`` (epsilon 1/10 and 1/2), with and without ``--json``, on every
  built-in instance, on a disconnected problem with rational results and
  on seeded Swiss tables of 20 and 40 objects (inputs in
  ``tests/golden/inputs/``).
* ``tests/golden/errors.json``: the input diagnostics.  ``rank --method
  rowsum`` on malformed JSON documents and CSV match lists (and a few valid
  ones with non-canonical cells); the inputs are the ``ERRORS`` table below.

Re-record (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from pairrank.cli import main
from pairrank.core import problem_from_results_matches
from pairrank.macrovertex import find_macrovertices
from pairrank.registry import get_instance, instance_ids
from pairrank.serialize import LabeledProblem, emit_problem_json

from corpus import random_problem
from oracles import benchmark_generators

FOLDER = Path(__file__).parent / "golden"
INPUTS = FOLDER / "inputs"
METHODS = (["rowsum"], ["ls"], ["grs", "--epsilon", "1/2"])
BUDGETS = ([], ["--budget", "0"], ["--budget", "1"], ["--budget", "7"])

# Weighted problems for enumerate-sc: input name -> (seed, objects, multiplicity
# cap) of ``random_problem(..., edge_probability=0.6)``, written to the input
# file when it is missing.  Each has two or three matches on some pair and
# took under a second to enumerate when recorded.
SEEDED = {
    "w5-m2-a": (70108, 5, 2),
    "w5-m3-a": (70100, 5, 3),
    "w5-m3-b": (70106, 5, 3),
    "w6-m2-a": (70115, 6, 3),
    "w6-m2-b": (70119, 6, 2),
    "w6-m3-a": (70113, 6, 3),
}


# Inputs of the rank corpus beside the built-in instances: Swiss tables
# (input name -> (seed, objects) of the benchmark's ``gen.swiss``) and one
# problem with three components, among them an isolated object.
SWISS = {"swiss20": (20170111, 20), "swiss40": (20170112, 40)}
DISCONNECTED = "disconnected"
# A path X1-X2-X3-X4-X5 of the sweep corpus: every edge is a bridge.
PATH = "path5"
# Hand-built inputs: name -> (objects, (a, b, matches, result) per played pair).
# The disconnected problem has components {X1, X3, X6}, {X2, X4, X5} and
# {X7}, and two rational results.
BUILT = {
    DISCONNECTED: (7, ((0, 2, 2, "3/2"), (2, 5, 1, "-1"), (0, 5, 1, "0"), (1, 3, 1, "1"), (3, 4, 3, "-1/2"))),
    PATH: (5, ((0, 1, 1, "1"), (1, 2, 2, "0"), (2, 3, 1, "-1"), (3, 4, 2, "1"))),
}
RANK_METHODS = (*METHODS[:2], ["grs", "--epsilon", "1/10"], METHODS[2])


def _document(**fields) -> str:
    """A valid three-object problem document with ``fields`` replaced."""
    document = {
        "version": 1,
        "labels": ["a", "b", "c"],
        "R": [["0", "1", "-1/2"], ["-1", "0", "0"], ["1/2", "0", "0"]],
        "M": [[0, 1, 1], [1, 0, 2], [1, 2, 0]],
    }
    document.update(fields)
    return json.dumps(document)


def _cells(rows, i, j, value):
    """Copy of ``rows`` with entry (i, j) replaced by ``value``."""
    out = [list(row) for row in rows]
    out[i][j] = value
    return out


_R = json.loads(_document())["R"]
_M = json.loads(_document())["M"]
_CSV = "object_a,object_b,score_a,score_b\n"

# Inputs of the diagnostics corpus: file name -> text.  The suffix picks the
# reader (``.txt`` is sniffed by its header).  Every check of the JSON schema,
# of the problem invariants and of the CSV reader has a case.  No CSV input
# can give a non-integral score total for a pair, since each match's two
# scores already sum to one.
ERRORS = {
    "json-syntax.json": "{",
    "json-not-object.json": "[1, 2]",
    "json-version.json": _document(version=2),
    "json-labels-empty.json": _document(labels=[]),
    "json-label-blank.json": _document(labels=["a", "", "c"]),
    "json-labels-repeated.json": _document(labels=["a", "b", "a"]),
    "json-R-rows.json": _document(R=_R[:2]),
    "json-R-row-length.json": _document(R=[_R[0], _R[1][:2], _R[2]]),
    "json-M-missing.json": json.dumps({k: v for k, v in json.loads(_document()).items() if k != "M"}),
    "json-M-row-length.json": _document(M=[_M[0], _M[1], _M[2] + [0]]),
    "json-R-float.json": _document(R=_cells(_R, 0, 1, 0.5)),
    "json-R-bool.json": _document(R=_cells(_R, 1, 0, True)),
    "json-R-list.json": _document(R=_cells(_R, 2, 0, [1])),
    "json-R-null.json": _document(R=_cells(_R, 0, 0, None)),
    "json-R-text.json": _document(R=_cells(_R, 0, 2, "x")),
    "json-R-zero-denominator.json": _document(R=_cells(_R, 1, 2, "1/0")),
    "json-M-text.json": _document(M=_cells(_M, 0, 1, "1")),
    "json-M-float.json": _document(M=_cells(_M, 1, 2, 2.0)),
    "json-M-bool.json": _document(M=_cells(_M, 2, 0, True)),
    "json-note.json": _document(note=5),
    "json-R-diagonal.json": _document(R=_cells(_R, 1, 1, "1/3")),
    "json-M-diagonal.json": _document(M=_cells(_M, 2, 2, 1)),
    "json-skew.json": _document(R=_cells(_R, 2, 0, "-1/2")),
    "json-symmetry.json": _document(M=_cells(_M, 2, 1, 3)),
    "json-negative-count.json": _document(
        R=_cells(_cells(_R, 1, 2, "0"), 2, 1, "-0"), M=_cells(_cells(_M, 1, 2, -2), 2, 1, -2)
    ),
    "json-bound.json": _document(R=_cells(_cells(_R, 0, 2, "-3/2"), 2, 0, "3/2")),
    "json-bound-integer.json": _document(R=_cells(_cells(_R, 1, 2, 3), 2, 1, "-3")),
    "json-skew-before-diagonal.json": _document(R=_cells(_cells(_cells(_R, 2, 2, "1"), 1, 2, "1"), 2, 1, "1")),
    "json-bound-before-count.json": _document(
        R=_cells(_cells(_R, 0, 1, "2"), 1, 0, "-2"), M=_cells(_cells(_M, 1, 2, -1), 2, 1, -1)
    ),
    "json-non-canonical.json": _document(
        R=[["0", "2/2", " -1/2 "], [-1, "-0", "0/5"], ["0.5", 0, "0"]]
    ),
    "csv-header.csv": "a,b,c,d\nA,B,1,0\n",
    "csv-empty.csv": "",
    "csv-header-only.csv": _CSV,
    "csv-fields.csv": _CSV + "A,B,1,0\nA,C,1\n",
    "csv-self-match.csv": _CSV + "A,B,1,0\nB,B,1,0\n",
    "csv-sum.csv": _CSV + "A,B,1,0\nB,C,1,1/2\n",
    "csv-negative.csv": _CSV + "A,B,-1,2\n",
    "csv-non-rational.csv": _CSV + "A,B,1,0\nA,C,x,y\n",
    "csv-zero-denominator.csv": _CSV + "A,B,1/0,0\n",
    "csv-blank-label.csv": _CSV + "A, ,1,0\n",
    "csv-sniffed.txt": "Object_A, object_b,SCORE_A,score_b\nA,B,1,0\nB,C,2,-1\n",
    "csv-five-field-header.txt": "object_a,object_b,score_a,score_b,note\nA,B,1,0,x\n",
    "csv-valid.csv": _CSV + "A,B,1,0\n\nB,C,0.5,1/2\nC,A,1/3,2/3\nA,B, 0 , 1 \n",
}


def _applies(axiom: str, instance_id: str) -> bool:
    problem = get_instance(instance_id).problem
    if axiom == "iim":
        return problem.n >= 4
    return bool(find_macrovertices(problem))


def sweep_cases() -> list[tuple[str, list[str]]]:
    """(input name, argv without --input) for every single-pair sweep case."""
    sources = [(axiom, i) for axiom in ("iim", "mva", "mvi") for i in instance_ids() if _applies(axiom, i)]
    sources += [(axiom, DISCONNECTED) for axiom in ("iim", "mva", "mvi")] + [("iim", PATH)]
    out = []
    for axiom, source in sources:
        for method in METHODS:
            for budget in BUDGETS:
                for as_json in ([], ["--json"]):
                    argv = ["check", "--axiom", axiom, "--method", *method, *budget, *as_json]
                    out.append((source, argv))
    return out


def structure_cases() -> list[tuple[str, list[str]]]:
    """(input name, argv without --input) for every macrovertex and class case."""
    sources = (*instance_ids(), DISCONNECTED, PATH, *SEEDED, "swiss40")
    return [(source, [command]) for source in sources for command in ("macrovertices", "classify")]


def sc_cases() -> list[tuple[str | None, list[str]]]:
    """(input name or None, argv without --input) for every dominance case."""
    out = []
    for axiom in ("sc", "wsc"):
        for instance_id in instance_ids():
            for method in METHODS:
                for budget in BUDGETS[:2]:
                    for as_json in ([], ["--json"]):
                        argv = ["check", "--axiom", axiom, "--method", *method, *budget, *as_json]
                        out.append((instance_id, argv))
    for source in SWISS:
        for axiom in ("sc", "wsc"):
            for method in METHODS:
                for as_json in ([], ["--json"]):
                    out.append((source, ["check", "--axiom", axiom, "--method", *method, *as_json]))
    for source in ("3.1", "3.2", "3.3", "3.3-prime", *SEEDED):
        out.append((source, ["enumerate-sc"]))
    out.append((None, ["theorem31"]))
    out.append((None, ["theorem31", "--json"]))
    return out


def rank_cases() -> list[tuple[str, list[str]]]:
    """(input name, argv without --input) for every scorer case."""
    out = []
    for source in (*instance_ids(), DISCONNECTED, *SWISS):
        for method in RANK_METHODS:
            for as_json in ([], ["--json"]):
                out.append((source, ["rank", "--method", *method, *as_json]))
    return out


def error_cases() -> list[tuple[str, list[str]]]:
    """(input file name, argv without --input) for every diagnostics case."""
    return [(name, ["rank", "--method", "rowsum"]) for name in ERRORS]


CORPORA = {
    "check.json": lambda: sweep_cases() + structure_cases(),
    "sc.json": sc_cases,
    "rank.json": rank_cases,
    "errors.json": error_cases,
}
STORED = (*SEEDED, DISCONNECTED, PATH, *SWISS)


def key(source: str | None, argv: list[str]) -> str:
    return " ".join(argv) if source is None else f"{source} " + " ".join(argv)


def stored_document(name: str) -> str:
    """Text of the stored input ``name``, regenerated from its recipe."""
    if name in SWISS:
        seed, n = SWISS[name]
        return benchmark_generators().swiss(random.Random(seed), n).to_json()
    if name in BUILT:
        n, pairs = BUILT[name]
        results = [[0] * n for _ in range(n)]
        matches = [[0] * n for _ in range(n)]
        for a, b, mu, rho in pairs:
            matches[a][b] = matches[b][a] = mu
            results[a][b] = Fraction(rho)
            results[b][a] = -Fraction(rho)
        problem = problem_from_results_matches(results, matches)
    else:
        seed, n, cap = SEEDED[name]
        problem = random_problem(seed, n, max_multiplicity=cap, edge_probability=0.6)
    labels = tuple(f"X{i + 1}" for i in range(n))
    return emit_problem_json(LabeledProblem(labels=labels, problem=problem))


def run(source: str | None, argv: list[str], folder: Path) -> dict:
    if source in STORED:
        argv = [*argv, "--input", str(INPUTS / f"{source}.json")]
    elif source in ERRORS:
        path = folder / source
        path.write_text(ERRORS[source], encoding="utf-8")
        argv = [*argv, "--input", str(path)]
    elif source is not None:
        path = folder / f"{source}.json"
        if not path.exists():
            with contextlib.redirect_stdout(io.StringIO()) as emitted:
                assert main(["example", "--id", source, "--emit"]) == 0
            path.write_text(emitted.getvalue(), encoding="utf-8")
        argv = [*argv, "--input", str(path)]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    outcome = {"stdout": out.getvalue(), "exit": code}
    if err.getvalue():
        outcome["stderr"] = err.getvalue()
    return outcome


def record() -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name in STORED:
        path = INPUTS / f"{name}.json"
        if not path.exists():
            path.write_text(stored_document(name) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for filename, cases in CORPORA.items():
            corpus = {key(s, argv): run(s, argv, Path(tmp)) for s, argv in cases()}
            text = json.dumps(corpus, indent=1, sort_keys=True) + "\n"
            (FOLDER / filename).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    corpus = {}
    for filename in CORPORA:
        corpus.update(json.loads((FOLDER / filename).read_text(encoding="utf-8")))
    return corpus


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-inputs")


def test_golden_corpus_covers_every_case(golden):
    assert sorted(golden) == sorted(key(s, argv) for cases in CORPORA.values() for s, argv in cases())


CASES = sweep_cases()
STRUCTURE_CASES = structure_cases()
SC_CASES = sc_cases()
RANK_CASES = rank_cases()
ERROR_CASES = error_cases()


@pytest.mark.parametrize("instance_id,argv", CASES, ids=[key(i, argv) for i, argv in CASES])
def test_check_output_is_byte_identical(instance_id, argv, golden, inputs):
    assert run(instance_id, argv, inputs) == golden[key(instance_id, argv)]


@pytest.mark.parametrize("source,argv", STRUCTURE_CASES, ids=[key(s, argv) for s, argv in STRUCTURE_CASES])
def test_structure_output_is_byte_identical(source, argv, golden, inputs):
    assert run(source, argv, inputs) == golden[key(source, argv)]


@pytest.mark.parametrize("source,argv", SC_CASES, ids=[key(s, argv) for s, argv in SC_CASES])
def test_dominance_output_is_byte_identical(source, argv, golden, inputs):
    assert run(source, argv, inputs) == golden[key(source, argv)]


@pytest.mark.parametrize("source,argv", RANK_CASES, ids=[key(s, argv) for s, argv in RANK_CASES])
def test_rank_output_is_byte_identical(source, argv, golden, inputs):
    assert run(source, argv, inputs) == golden[key(source, argv)]



@pytest.mark.parametrize("source,argv", ERROR_CASES, ids=[key(s, argv) for s, argv in ERROR_CASES])
def test_diagnostics_are_byte_identical(source, argv, golden, inputs):
    assert run(source, argv, inputs) == golden[key(source, argv)]


if __name__ == "__main__":
    record()
