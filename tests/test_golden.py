"""Byte-identical CLI output for the single-pair sweeps on the built-in instances.

``tests/golden/check.json`` maps each argument list to the stdout and exit
code the CLI produced when the corpus was recorded.  Every combination of
``check --axiom iim|mva|mvi``, method, built-in instance where the check
applies, budget (none, 0, 1, 7) and ``--json`` on/off is covered.

Re-record (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from pairrank.cli import main
from pairrank.macrovertex import find_macrovertices
from pairrank.registry import get_instance, instance_ids

GOLDEN = Path(__file__).parent / "golden" / "check.json"
METHODS = (["rowsum"], ["ls"], ["grs", "--epsilon", "1/2"])
BUDGETS = ([], ["--budget", "0"], ["--budget", "1"], ["--budget", "7"])


def _applies(axiom: str, instance_id: str) -> bool:
    problem = get_instance(instance_id).problem
    if axiom == "iim":
        return problem.n >= 4
    return bool(find_macrovertices(problem))


def cases() -> list[tuple[str, list[str]]]:
    """(instance id, argv without --input) for every golden combination."""
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


def key(instance_id: str, argv: list[str]) -> str:
    return f"{instance_id} " + " ".join(argv)


def run(instance_id: str, argv: list[str], folder: Path) -> dict:
    path = folder / f"{instance_id}.json"
    if not path.exists():
        with contextlib.redirect_stdout(io.StringIO()) as emitted:
            assert main(["example", "--id", instance_id, "--emit"]) == 0
        path.write_text(emitted.getvalue(), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([*argv, "--input", str(path)])
    return {"stdout": out.getvalue(), "exit": code}


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        corpus = {key(i, argv): run(i, argv, Path(tmp)) for i, argv in cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-inputs")


def test_golden_corpus_covers_every_case(golden):
    assert sorted(golden) == sorted(key(i, argv) for i, argv in cases())


CASES = cases()


@pytest.mark.parametrize("instance_id,argv", CASES, ids=[key(i, argv) for i, argv in CASES])
def test_check_output_is_byte_identical(instance_id, argv, golden, inputs):
    assert run(instance_id, argv, inputs) == golden[key(instance_id, argv)]


if __name__ == "__main__":
    record()
