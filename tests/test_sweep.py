"""The incremental single-pair sweep against the full-rebuild oracle."""

import random
from fractions import Fraction

import pytest

from pairrank.axioms import search_iim_violation
from pairrank.core import problem_from_results_matches, with_pair
from pairrank.corpus import random_problem, random_round_robin, random_with_macrovertex
from pairrank.macrovertex import find_macrovertices, search_mv_violation
from pairrank.methods import RatingVector, Scorer, least_squares, make_scorer

from oracles import rebuild_with_pair, sweep_outcomes, sweep_report



def _parity(problem):
    # Not independent of anything: every change of a match count can flip
    # all tied pairs, so IIM, MVA and MVI break at varied sweep positions.
    sign = 1 if sum(map(sum, problem.matches)) % 4 == 0 else -1
    values = tuple(s + sign * Fraction(i, 100) for i, s in enumerate(problem.row_sums))
    return RatingVector(values=values, method="parity", problem=problem)


SCORERS = [
    make_scorer("rowsum"),
    make_scorer("ls"),
    make_scorer("grs", Fraction(1, 3)),
    Scorer(tag="parity", fn=_parity),
]

PROBLEMS = [
    random_problem(7101, 4, max_multiplicity=2),
    random_problem(7102, 5, max_multiplicity=3),
    random_problem(7103, 5, edge_probability=0.3),
    random_round_robin(7104, 4, max_multiplicity=2),
    random_with_macrovertex(7105, 5),
    random_with_macrovertex(7106, 6),
]


def _search(scorer, problem, axiom, budget):
    if axiom == "iim":
        return search_iim_violation(scorer, problem, budget)
    return search_mv_violation(scorer, problem, axiom, budget)


def _cases():
    for p, problem in enumerate(PROBLEMS):
        for axiom in ("iim", "mva", "mvi"):
            if axiom == "iim" and problem.n > 5 or axiom != "iim" and not find_macrovertices(problem):
                continue  # too slow to re-run at every budget / nothing to sweep
            for scorer in SCORERS:
                yield pytest.param(problem, axiom, scorer, id=f"p{p}-{axiom}-{scorer.tag}")


@pytest.mark.parametrize("problem,axiom,scorer", _cases())
def test_sweep_agrees_with_rebuild_oracle_at_every_budget(problem, axiom, scorer):
    outcomes = sweep_outcomes(scorer, problem, axiom)
    full = _search(scorer, problem, axiom, None)
    assert full.to_dict() == sweep_report(full.method, axiom, outcomes)
    # The re-runs share ratings, which keeps the budget scan fast; the oracle
    # above scored every instance afresh.  Every scorer here is a function
    # of the matches and the row sums alone, so those are the cache key.
    ratings = {}

    def cached(p):
        key = (p.matches, p.row_sums)
        if key not in ratings:
            ratings[key] = scorer(p)
        return ratings[key]

    shared = Scorer(tag=scorer.tag, fn=cached)
    for budget in range(full.instances_checked + 2):
        expected = sweep_report(full.method, axiom, outcomes, budget)
        assert _search(shared, problem, axiom, budget).to_dict() == expected, budget


@pytest.mark.parametrize("seed", range(8))
def test_with_pair_agrees_with_full_rebuild(seed):
    rng = random.Random(seed)
    problem = random_problem(7200 + seed, rng.randint(3, 8))
    for _ in range(12):
        i, j = rng.sample(range(problem.n), 2)
        m = rng.randint(0, 3)
        r = Fraction(rng.randint(-2 * m, 2 * m), 2)
        changed = with_pair(problem, i, j, r, m)
        rebuilt = rebuild_with_pair(problem, i, j, r, m)
        assert changed.results == rebuilt.results
        assert changed.matches == rebuilt.matches
        assert changed.row_sums == tuple(sum(row, Fraction(0)) for row in rebuilt.results)
        assert changed.row_sums == problem_from_results_matches(changed.results, changed.matches).row_sums
        problem = changed  # chain the changes so seeded sums carry over


def test_mvi_sweep_scores_each_distinct_perturbation_once():
    # In a round robin every subset is a macrovertex, so one change inside
    # recurs under many macrovertices; it is scored only the first time.
    problem = random_round_robin(7300, 6, max_multiplicity=1)
    calls = []
    counting = Scorer(tag="ls", fn=lambda p: calls.append(p) or least_squares(p))
    report = search_mv_violation(counting, problem, "mvi")
    distinct = {(p.results, p.matches) for p in calls[1:]}
    assert len(calls) == 1 + len(distinct) == 121
    assert report.instances_checked > 0
