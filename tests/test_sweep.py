"""The incremental single-pair sweep against the full-rebuild oracle."""

import itertools
import random
from dataclasses import asdict, replace
from fractions import Fraction

import pytest

from pairrank import methods
from pairrank.axioms import SATISFIED, _ranks, pair_variants, search_iim_violation
from pairrank.core import multigraph, problem_from_results_matches, with_pair
from pairrank.macrovertex import find_macrovertices, search_mv_violation
from pairrank.methods import make_scorer

from corpus import random_problem, random_round_robin, random_with_macrovertex
from oracles import PARITY, rebuild_with_pair, sweep_outcomes, sweep_report

SCORERS = [
    make_scorer("rowsum"),
    make_scorer("ls"),
    make_scorer("grs", Fraction(1, 3)),
    PARITY,
]

# The path X2 - X1 - X3 - X4: every edge is a bridge.
PATH = problem_from_results_matches(
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    [[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 0, 1, 0]],
)

PROBLEMS = [
    random_problem(7101, 4, max_multiplicity=2),
    random_problem(7102, 5, max_multiplicity=3),
    random_problem(7103, 5, edge_probability=0.3),
    random_round_robin(7104, 4, max_multiplicity=2),
    random_with_macrovertex(7105, 5),
    random_with_macrovertex(7106, 6),
    PATH,
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
    assert asdict(full) == sweep_report(full.method, axiom, outcomes)
    # The re-runs share ratings, which keeps the budget scan fast; the oracle
    # above scored every instance afresh.  Every scorer here is a function
    # of the matches and the row sums alone, so those are the cache key.  The
    # wrapper keeps the scorer's pair update, so the closed form is what is
    # compared; the parity scorer has none and covers the re-scoring path.
    ratings = {}

    def cached(p):
        key = (p.matches, p.row_sums)
        if key not in ratings:
            ratings[key] = scorer(p)
        return ratings[key]

    shared = replace(scorer, fn=cached)
    for budget in range(full.instances_checked + 2):
        expected = sweep_report(full.method, axiom, outcomes, budget)
        assert asdict(_search(shared, problem, axiom, budget)) == expected, budget


CLOSED_FORM = [
    make_scorer("rowsum"),
    make_scorer("ls"),
    make_scorer("grs", Fraction(1, 3)),
    make_scorer("grs", Fraction(1, 10)),
]


def _closed_form_ranks(scorer, problem, a, b, r2, m2):
    """Ranks of one change from the scorer's pair update, or None where it
    has no closed form."""
    update = scorer.pair_update(problem, scorer(problem))
    keys = update and update(a, b)(r2, m2)
    return None if keys is None else _ranks(keys)


@pytest.mark.parametrize("scorer", CLOSED_FORM, ids=lambda s: s.tag)
def test_closed_form_ranks_equal_a_full_rescore(scorer):
    seen = {"disconnected": 0, "bridge": 0, "variants": 0}
    for seed in range(36):
        problem = random_problem(7400 + seed, 4 + seed % 4, edge_probability=0.35 + seed % 3 * 0.15)
        disconnected = len(multigraph(problem).components) > 1
        seen["disconnected"] += disconnected
        update = scorer.pair_update(problem, scorer(problem))
        if update is None:
            assert scorer.tag == "ls" and disconnected
            continue
        for a, b in itertools.combinations(range(problem.n), 2):
            line = update(a, b)
            for r2, m2 in pair_variants(problem, a, b):
                perturbed = with_pair(problem, a, b, r2, m2)
                keys = line(r2, m2)
                if keys is None:
                    assert scorer.tag == "ls" and len(multigraph(perturbed).components) == 2
                    seen["bridge"] += 1
                    continue
                assert _ranks(keys) == _ranks(scorer(perturbed).values), (seed, a, b, r2, m2)
                seen["variants"] += 1
    assert seen["disconnected"] >= 5 and seen["variants"] > 1000
    assert (seen["bridge"] > 0) == (scorer.tag == "ls")


def test_bridge_removal_has_no_closed_form():
    ls = make_scorer("ls")
    for a, b in ((0, 1), (0, 2), (2, 3)):
        assert _closed_form_ranks(ls, PATH, a, b, Fraction(0), 0) is None
        perturbed = with_pair(PATH, a, b, Fraction(1), 2)  # not a removal
        assert _closed_form_ranks(ls, PATH, a, b, Fraction(1), 2) == _ranks(ls(perturbed).values)
    for scorer in CLOSED_FORM[::2]:  # removing a bridge is no special case for row sum and GRS
        perturbed = with_pair(PATH, 0, 2, Fraction(0), 0)
        assert _closed_form_ranks(scorer, PATH, 0, 2, Fraction(0), 0) == _ranks(scorer(perturbed).values)


def test_joining_two_components():
    # {X1, X2} and {X3, X4}; a match between X2 and X3 joins them.
    split = problem_from_results_matches(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    )
    for scorer in CLOSED_FORM:
        for r2 in (-1, 0, 1):
            joined = with_pair(split, 1, 2, Fraction(r2), 1)
            # LS has no closed form on a disconnected base; the others do.
            expected = None if scorer.tag == "ls" else _ranks(scorer(joined).values)
            assert _closed_form_ranks(scorer, split, 1, 2, Fraction(r2), 1) == expected
        assert asdict(search_iim_violation(scorer, split)) == sweep_report(
            scorer(split).method, "iim", sweep_outcomes(scorer, split, "iim")
        )


def test_grs_maximal_multiplicity_changes_keep_closed_form_ranks():
    # Only X1-X2 meets twice: lowering it or raising X3-X4 to two matches
    # moves the maximal multiplicity (the right-hand-side factor) 2 -> 1 or
    # 2 -> 3 or keeps it while another pair reaches it.
    problem = problem_from_results_matches(
        [[0, 2, 1, 0, -1], [-2, 0, 0, 1, 0], [-1, 0, 0, 0, 1], [0, -1, 0, 0, 1], [1, 0, -1, -1, 0]],
        [[0, 2, 1, 0, 1], [2, 0, 0, 1, 0], [1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [1, 0, 1, 1, 0]],
    )
    changes = [(0, 1, 1, 1), (0, 1, -1, 1), (0, 1, 3, 3), (0, 1, 0, 3), (1, 3, 2, 2), (1, 3, -2, 2)]
    for eps in (Fraction(1, 3), Fraction(1, 10), Fraction(5)):
        grs = make_scorer("grs", eps)
        for a, b, r2, m2 in changes:
            perturbed = with_pair(problem, a, b, Fraction(r2), m2)
            assert perturbed.max_multiplicity() != 2 or (a, b) == (1, 3)
            ranks = _closed_form_ranks(grs, problem, a, b, Fraction(r2), m2)
            assert ranks == _ranks(grs(perturbed).values), (eps, a, b, r2, m2)


def test_a_closed_form_flip_the_rescore_does_not_confirm_raises(instance_33):
    # Row sum never flips a watched pair; an update claiming it reverses all
    # ranks is caught when the witness is re-scored.
    rowsum = make_scorer("rowsum")
    lying = replace(rowsum, pair_update=lambda p, base: lambda a, b: lambda r2, m2: list(range(p.n, 0, -1)))
    assert search_iim_violation(rowsum, instance_33).verdict == SATISFIED
    with pytest.raises(ArithmeticError):
        search_iim_violation(lying, instance_33)


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


def test_mvi_sweep_scores_each_distinct_perturbation_once(monkeypatch):
    # In a round robin every subset is a macrovertex, so one change inside
    # recurs under many macrovertices.  The closed form solves once for the
    # base and once per changed pair, whatever its variants and however
    # often it recurs, and never calls the scorer again.
    problem = random_round_robin(7300, 6, max_multiplicity=1)
    solves = []

    def counting_solve(rows, rhs):
        solves.append(len(rows))
        return solve(rows, rhs)

    solve = methods.solve_linear_system
    monkeypatch.setattr(methods, "solve_linear_system", counting_solve)
    for scorer in (make_scorer("ls"), make_scorer("grs", Fraction(1, 3))):
        solves.clear()
        calls = []
        counting = replace(scorer, fn=lambda p, fn=scorer.fn: calls.append(p) or fn(p))
        report = search_mv_violation(counting, problem, "mvi")
        assert report.verdict == SATISFIED and report.instances_checked > 0
        assert len(calls) == 1
        assert len(solves) == 1 + 15
