"""Byte-identical CLI output on a recorded corpus.

Three corpus files map each argument list to the stdout and exit code the
CLI produced when the corpus was recorded:

* ``tests/golden/check.json``: the single-pair sweeps.  Every combination
  of ``check --axiom iim|mva|mvi``, method, built-in instance where the
  check applies, budget (none, 0, 1, 7) and ``--json`` on/off.
* ``tests/golden/sc.json``: the dominance search.  ``check --axiom
  sc|wsc`` for every method and built-in instance, with and without
  ``--budget 0`` and ``--json``; ``enumerate-sc`` on examples 3.1-3.3 and
  on the seeded weighted problems in ``tests/golden/inputs/``; and
  ``theorem31`` with and without ``--json``.
* ``tests/golden/rank.json``: the exact scorers.  ``rank --method rowsum|ls|
  grs`` (epsilon 1/10 and 1/2), with and without ``--json``, on every
  built-in instance, on a disconnected problem with rational results and
  on seeded Swiss tables of 20 and 40 objects (inputs in
  ``tests/golden/inputs/``).

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
from pairrank.corpus import random_problem
from pairrank.macrovertex import find_macrovertices
from pairrank.registry import get_instance, instance_ids
from pairrank.serialize import LabeledProblem, emit_problem_json

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
RANK_METHODS = (*METHODS[:2], ["grs", "--epsilon", "1/10"], METHODS[2])


def _applies(axiom: str, instance_id: str) -> bool:
    problem = get_instance(instance_id).problem
    if axiom == "iim":
        return problem.n >= 4
    return bool(find_macrovertices(problem))


def sweep_cases() -> list[tuple[str, list[str]]]:
    """(instance id, argv without --input) for every single-pair sweep case."""
    out = []
    for axiom in ("iim", "mva", "mvi"):
        for instance_id in instance_ids():
            if not _applies(axiom, instance_id):
                continue
            for method in METHODS:
                for budget in BUDGETS:
                    for as_json in ([], ["--json"]):
                        argv = ["check", "--axiom", axiom, "--method", *method, *budget, *as_json]
                        out.append((instance_id, argv))
    return out


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


CORPORA = {"check.json": sweep_cases, "sc.json": sc_cases, "rank.json": rank_cases}
STORED = (*SEEDED, DISCONNECTED, *SWISS)


def key(source: str | None, argv: list[str]) -> str:
    return " ".join(argv) if source is None else f"{source} " + " ".join(argv)


def stored_document(name: str) -> str:
    """Text of the stored input ``name``, regenerated from its recipe."""
    if name in SWISS:
        seed, n = SWISS[name]
        return benchmark_generators().swiss(random.Random(seed), n).to_json()
    if name == DISCONNECTED:
        # Components {X1, X3, X6}, {X2, X4, X5} and {X7}; two rational results.
        n = 7
        results = [[0] * n for _ in range(n)]
        matches = [[0] * n for _ in range(n)]
        pairs = ((0, 2, 2, "3/2"), (2, 5, 1, "-1"), (0, 5, 1, "0"), (1, 3, 1, "1"), (3, 4, 3, "-1/2"))
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
    elif source is not None:
        path = folder / f"{source}.json"
        if not path.exists():
            with contextlib.redirect_stdout(io.StringIO()) as emitted:
                assert main(["example", "--id", source, "--emit"]) == 0
            path.write_text(emitted.getvalue(), encoding="utf-8")
        argv = [*argv, "--input", str(path)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return {"stdout": out.getvalue(), "exit": code}


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
SC_CASES = sc_cases()
RANK_CASES = rank_cases()


@pytest.mark.parametrize("instance_id,argv", CASES, ids=[key(i, argv) for i, argv in CASES])
def test_check_output_is_byte_identical(instance_id, argv, golden, inputs):
    assert run(instance_id, argv, inputs) == golden[key(instance_id, argv)]


@pytest.mark.parametrize("source,argv", SC_CASES, ids=[key(s, argv) for s, argv in SC_CASES])
def test_dominance_output_is_byte_identical(source, argv, golden, inputs):
    assert run(source, argv, inputs) == golden[key(source, argv)]


@pytest.mark.parametrize("source,argv", RANK_CASES, ids=[key(s, argv) for s, argv in RANK_CASES])
def test_rank_output_is_byte_identical(source, argv, golden, inputs):
    assert run(source, argv, inputs) == golden[key(source, argv)]


if __name__ == "__main__":
    record()
