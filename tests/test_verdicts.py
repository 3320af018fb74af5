"""The verdict ledger: decided axiom verdicts on seeded problems never change.

``tests/golden/verdicts.json`` maps each seeded problem to its recipe, a
SHA-256 of its matrices and one record per (axiom, method, budget): the
verdict, ``instances_checked``, the detail and a SHA-256 of the witness JSON
as the CLI prints it.  ``enumerate-sc`` is recorded as the count of admitted
orders plus a SHA-256 of their levels, or as its refusal.  The problems come
from the benchmark's generators (``perfbench/gen.py``) and from
``tests/corpus.py``; the test recomputes every record in process.

Budgets are 0, 50 and 3,000 layer splits for SC and WSC, and 1,000 instances
or none for the single-pair sweeps (IIM everywhere from four objects on, MVA
and MVI where the problem has a nontrivial macrovertex).

Compare with, or re-record (only when an output change is intended)::

    PYTHONPATH=src python tests/test_verdicts.py [--record]

The recorder refuses to change or drop a decided record, to add a record to
a recorded problem, and to change or drop a problem; a new problem comes in
whole.  A ``budget-exceeded`` record may become decided, or stay
``budget-exceeded`` at the same or a later pair with another count.  Each
such transition is printed.  Only ``--record`` writes the file, and only when
nothing was refused.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pairrank.axioms import (
    BUDGET_EXCEEDED,
    SATISFIED,
    BudgetExceededError,
    check_sc,
    check_wsc,
    enumerate_sc_rankings,
    search_iim_violation,
)
from pairrank.core import problem_from_results_matches
from pairrank.macrovertex import find_macrovertices, search_mv_violation
from pairrank.methods import make_scorer

import corpus
from oracles import benchmark_generators

LEDGER = Path(__file__).parent / "golden" / "verdicts.json"
SCORERS = {"rowsum": make_scorer("rowsum"), "ls": make_scorer("ls"), "grs-1/3": make_scorer("grs", Fraction(1, 3))}
SC_BUDGETS = (0, 50, 3000)
SWEEP_BUDGETS = (1000, None)


def recipes() -> dict[str, dict]:
    """Problem name -> recipe: a generator, and its arguments after a fresh
    ``random.Random(seed)`` for the benchmark's generators."""
    out = {}
    dense = itertools.product(range(4, 9), (1, 2, 3), (0.4, 0.7))
    for k, (n, cap, density) in enumerate(dense):
        out[f"dense-{k:02d}"] = {"source": "gen.dense_weighted", "seed": 5000 + k, "args": [n, cap, density]}
    # Round robins with one tied pair of row sums, every pair met three times.
    for seed in (5, 6, 7):
        out[f"one-tie-8x3-{seed}"] = {"source": "gen.round_robin_one_tie", "seed": seed, "args": [8, 3]}
    for seed in (8, 9):
        out[f"one-tie-5x2-{seed}"] = {"source": "gen.round_robin_one_tie", "seed": seed, "args": [5, 2]}
    for seed in (1, 2):
        out[f"planted-{seed}"] = {"source": "gen.planted_macrovertex", "seed": seed, "args": [8, 3, 6]}
    out["swiss-20"] = {"source": "gen.swiss", "seed": 20170111, "args": [20]}
    out["swiss-40"] = {"source": "gen.swiss", "seed": 20170112, "args": [40]}
    # ``corpus.sc_corpus`` and ``corpus.macrovertex_corpus``, one recipe each.
    base = 49_201

    def sparse(seed, n, cap, density):
        kwargs = {"max_multiplicity": cap, "edge_probability": density}
        return {"source": "corpus.random_problem", "args": [seed, n], "kwargs": kwargs}

    for k in range(8):
        out[f"sc-{k:02d}"] = sparse(base + k, 4 + k % 4, 1, 0.6)
    for k in range(5):
        out[f"sc-{8 + k:02d}"] = sparse(base + 100 + k, 4 + k % 3, 2, 0.5)
    out["sc-13"] = sparse(base + 205, 5, 3, 0.5)
    out["sc-14"] = sparse(base + 201, 8, 1, 0.4)
    for k in range(6):
        out[f"mv-{k}"] = {"source": "corpus.random_with_macrovertex", "args": [base + 300 + k]}
    out["mv-6"] = {"source": "corpus.random_round_robin", "args": [base + 310, 4, 2]}
    out["mv-7"] = {"source": "corpus.random_round_robin", "args": [base + 311, 5, 1]}
    return out


def build(recipe: dict):
    module, _, name = recipe["source"].partition(".")
    if module == "gen":
        table = getattr(benchmark_generators(), name)(random.Random(recipe["seed"]), *recipe["args"])
        return problem_from_results_matches(table.R, table.M)
    return getattr(corpus, name)(*recipe["args"], **recipe.get("kwargs", {}))


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _report_record(run) -> dict:
    """One check's record; a refusal raised before any instance is one too,
    as the CLI reports it."""
    try:
        report = run()
    except BudgetExceededError as exc:
        return {"verdict": BUDGET_EXCEEDED, "instances_checked": 0, "detail": str(exc), "witness_sha256": None}
    witness = None if report.witness is None else _sha256(report.witness)
    return {
        "verdict": report.verdict,
        "instances_checked": report.instances_checked,
        "detail": report.detail,
        "witness_sha256": witness,
    }


def records(problem) -> dict[str, dict]:
    """Every record of one problem, keyed "axiom method budget"."""
    out = {}
    sweeps = ["iim"] * (problem.n >= 4) + ["mva", "mvi"] * bool(find_macrovertices(problem))
    for method, scorer in SCORERS.items():
        for axiom, budget in itertools.product(("sc", "wsc"), SC_BUDGETS):
            check = check_sc if axiom == "sc" else check_wsc
            out[f"{axiom} {method} {budget}"] = _report_record(lambda: check(scorer, problem, budget))
        for axiom, budget in itertools.product(sweeps, SWEEP_BUDGETS):
            if axiom == "iim":
                run = lambda: search_iim_violation(scorer, problem, budget)
            else:
                run = lambda: search_mv_violation(scorer, problem, axiom, budget)
            out[f"{axiom} {method} {budget}"] = _report_record(run)
    try:
        levels = enumerate_sc_rankings(problem)
        out["enumerate-sc"] = {"count": len(levels), "levels_sha256": _sha256(levels)}
    except BudgetExceededError as exc:
        out["enumerate-sc"] = {"verdict": BUDGET_EXCEEDED, "detail": str(exc)}
    return out


def entry(recipe: dict) -> dict:
    problem = build(recipe)
    matrices = [[str(x) for x in row] for row in problem.results], [list(row) for row in problem.matches]
    return {"recipe": recipe, "problem_sha256": _sha256(matrices), "records": records(problem)}


def _stopped_at(record: dict) -> tuple[int, ...]:
    """The label numbers of the pair a budget-exceeded record names (empty
    when it names none), so that a later pair compares greater."""
    found = re.search(r"pair \(X(\d+), X(\d+)\)", record.get("detail", ""))
    return tuple(map(int, found.groups())) if found else ()


def _summary(record: dict | None) -> str:
    if record is None:
        return "absent"
    if "count" in record:
        return f"{record['count']} orders"
    parts = [record["verdict"], f"{record.get('instances_checked', '-')} checked", record["detail"]]
    return ", ".join(str(part) for part in parts if part != "")


def compare(old: dict, new: dict) -> tuple[list[str], list[str]]:
    """(allowed transitions, refused changes) from ledger ``old`` to ``new``."""
    allowed, refused = [], []
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            allowed.append(f"{name}: new problem, {len(new[name]['records'])} records")
            continue
        if name not in new or any(old[name][field] != new[name][field] for field in ("recipe", "problem_sha256")):
            refused.append(f"{name}: problem dropped or changed")
            continue
        before, after = old[name]["records"], new[name]["records"]
        for key in sorted(before.keys() | after.keys()):
            was, now = before.get(key), after.get(key)
            if was == now:
                continue
            line = f"{name} {key}: {_summary(was)} -> {_summary(now)}"
            accepted = was is not None and now is not None and was.get("verdict") == BUDGET_EXCEEDED
            if accepted and now.get("verdict") == BUDGET_EXCEEDED:
                accepted = _stopped_at(now) >= _stopped_at(was)
            (allowed if accepted else refused).append(line)
    return allowed, refused


@functools.cache
def _load() -> dict:
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def test_ledger_lists_every_recipe():
    assert {name: item["recipe"] for name, item in _load().items()} == recipes()


@pytest.mark.parametrize("name", sorted(recipes()))
def test_ledger_record_is_unchanged(name):
    stored = _load()[name]
    assert entry(stored["recipe"]) == stored


def test_recorder_refuses_changes_to_decided_records():
    satisfied = {"verdict": SATISFIED, "instances_checked": 6, "detail": "", "witness_sha256": None}
    blocked = dict(satisfied, verdict=BUDGET_EXCEEDED, detail="more than 0 layer splits examined for pair (X2, X1)")
    ledger = {"p": {"recipe": {}, "problem_sha256": "", "records": {"a": satisfied, "b": blocked}}}

    def changed(**records):
        return {"p": dict(ledger["p"], records={**ledger["p"]["records"], **records})}

    assert compare(ledger, ledger) == ([], [])
    later = dict(blocked, detail="more than 0 layer splits examined for pair (X3, X1)")
    earlier = dict(blocked, detail="more than 0 layer splits examined for pair (X1, X2)")
    for allowed_change in (satisfied, later, dict(blocked, instances_checked=1)):
        assert compare(ledger, changed(b=allowed_change))[1] == []
    for refused_change in (blocked, dict(satisfied, instances_checked=5)):
        assert compare(ledger, changed(a=refused_change))[0] == []
    assert compare(ledger, changed(b=earlier))[0] == []
    assert compare(ledger, {"p": dict(ledger["p"], problem_sha256="x")})[1] == ["p: problem dropped or changed"]
    assert len(compare(ledger, {"p": dict(ledger["p"], records={"b": blocked})})[1]) == 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare the verdict ledger with the code, or re-record it.")
    parser.add_argument("--record", action="store_true", help="write the ledger when nothing is refused")
    record = parser.parse_args(argv).record
    old = _load() if LEDGER.exists() else {}
    new = {name: entry(recipe) for name, recipe in recipes().items()}
    allowed, refused = compare(old, new)
    for line in allowed:
        print(line)
    for line in refused:
        print(f"REFUSED {line}")
    if refused:
        return 1
    if record:
        LEDGER.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
