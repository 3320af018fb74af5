"""Known theorems as regressions on seeded corpora, not only on the
built-in instances:

* row sum satisfies IIM;
* LS and GRS satisfy SC and WSC (Chebotarev & Shamis 1998; Gonzalez-Diaz,
  Hendrickx & Lohmann 2014), on Swiss tables of up to 80 objects as well;
* LS and GRS satisfy MVA and MVI (the source paper, section 4);
* on the same corpora, every violation the deliberately non-independent
  parity scorer reports replays through the independent instance check,
  and so does the row-sum SC witness on each Swiss table.

The Swiss tables and planted macrovertices come from the benchmark's
generators, which share no code with the package.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from pairrank.axioms import (
    SATISFIED,
    VIOLATED,
    check_sc,
    check_wsc,
    search_iim_violation,
)
from pairrank.core import problem_from_results_matches
from pairrank.macrovertex import search_mv_violation
from pairrank.methods import induce_ranking, make_scorer

from corpus import random_problem
from helpers import ranks_above
from oracles import (
    PARITY,
    benchmark_generators,
    check_iim_instance,
    check_mva_instance,
    check_mvi_instance,
    evaluate_witness,
)

GEN = benchmark_generators()
EXACT = [make_scorer("ls"), make_scorer("grs", Fraction(1, 3)), make_scorer("grs", Fraction(1, 10))]


def _problem(table):
    return problem_from_results_matches(table.R, table.M)


SWISS = {n: _problem(GEN.swiss(random.Random(5200 + n), n)) for n in (20, 40)}
# The dominance search also runs on a larger table; the IIM sweep does not.
SC_SWISS = {**SWISS, 80: _problem(GEN.swiss(random.Random(5280), 80))}
PLANTED = [
    _problem(GEN.planted_macrovertex(random.Random(5300 + 10 * n + k), n, size, pairs))
    for n, size, pairs in ((7, 2, 6), (8, 3, 6), (9, 3, 8))
    for k in range(4)
]
SMALL = [random_problem(5400 + k, 4 + k % 3, max_multiplicity=2, edge_probability=0.6) for k in range(12)]


def _perturbed(witness):
    return problem_from_results_matches(
        [[Fraction(x) for x in row] for row in witness["perturbed_results"]], witness["perturbed_matches"]
    )


@pytest.mark.parametrize("n", sorted(SWISS))
def test_row_sum_satisfies_iim_on_swiss_tables(n):
    problem = SWISS[n]
    report = search_iim_violation(make_scorer("rowsum"), problem)
    assert report.verdict == SATISFIED
    # Each pair played m times has sum(2*m2 + 1 for m2 in m-1..m+1, m2 >= 0) - 1
    # variants, and each variant watches every pair of the other n - 2 objects.
    variants = sum(
        sum(2 * m2 + 1 for m2 in (m - 1, m, m + 1) if m2 >= 0) - 1
        for k, row in enumerate(problem.matches)
        for m in row[k + 1:]
    )
    assert report.instances_checked == variants * comb(n - 2, 2)
    parity = search_iim_violation(PARITY, problem)
    assert parity.verdict == VIOLATED
    witness = parity.witness
    replay = check_iim_instance(PARITY, problem, _perturbed(witness), *witness["target_pair"])
    assert replay.verdict == VIOLATED and replay.witness["flipped"] == witness["flipped"]


@pytest.mark.parametrize("which", ["mva", "mvi"])
def test_exact_scorers_satisfy_localized_independence_on_planted_macrovertices(which):
    check = check_mva_instance if which == "mva" else check_mvi_instance
    violations = 0
    for problem in PLANTED:
        for scorer in EXACT:
            report = search_mv_violation(scorer, problem, which)
            assert report.verdict == SATISFIED and report.instances_checked > 0
        parity = search_mv_violation(PARITY, problem, which)
        if parity.verdict == VIOLATED:
            violations += 1
            witness = parity.witness
            replay = check(
                PARITY, problem, _perturbed(witness), witness["macrovertex"], *witness["target_pair"]
            )
            assert replay.verdict == VIOLATED and replay.witness["flipped"] == witness["flipped"]
    assert violations > 0


def test_exact_scorers_satisfy_self_consistency_on_seeded_problems():
    violations = 0
    for problem in SMALL:
        for scorer in EXACT:
            assert check_sc(scorer, problem).verdict == SATISFIED
        parity = check_sc(PARITY, problem)
        if parity.verdict == VIOLATED:
            violations += 1
            payload = parity.witness
            order = induce_ranking(PARITY(problem))
            assert evaluate_witness(problem, order, payload) == payload["dominance"]
            i, j = payload["pair"]
            broken = ranks_above(order, j, i) if payload["dominance"] == "weak" else not ranks_above(order, i, j)
            assert broken
    assert violations > 0


@pytest.mark.parametrize("n", sorted(SC_SWISS))
def test_exact_scorers_satisfy_self_consistency_on_swiss_tables(n):
    problem = SC_SWISS[n]
    for scorer in EXACT[:2]:
        for check in (check_sc, check_wsc):
            report = check(scorer, problem)
            # Every degree is 11, so each unordered pair is checked one way at least.
            assert report.verdict == SATISFIED and report.instances_checked >= comb(n, 2)
    # Row sum breaks SC on each of these tables, and its witness replays.
    rowsum = make_scorer("rowsum")
    report = check_sc(rowsum, problem)
    assert report.verdict == VIOLATED
    payload = report.witness
    assert evaluate_witness(problem, induce_ranking(rowsum(problem)), payload) == payload["dominance"]
