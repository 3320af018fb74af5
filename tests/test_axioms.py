import gc
import itertools
import random
import time
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from pairrank.axioms import (
    BUDGET_EXCEEDED,
    SATISFIED,
    VIOLATED,
    BudgetExceededError,
    check_sc,
    check_wsc,
    enumerate_sc_rankings,
    impossibility_trace,
    pair_variants,
    search_iim_violation,
)
from pairrank.axioms import _dominance_search, _layer_splits, _OrderLanes, _SplitBudget
from pairrank.axioms import MAX_LAYER_SPLITS, _edge_options, _splits_exceeded
from pairrank.core import (
    multigraph,
    permute_problem,
    problem_from_results_matches,
    with_pair,
)
from pairrank.macrovertex import search_mv_violation
from pairrank.methods import induce_ranking, iter_weak_orders, least_squares, make_scorer, row_sum
from pairrank.registry import get_instance, instance_ids
from pairrank.serialize import parse_problem_json

from corpus import random_problem, random_round_robin
from helpers import order_from_groups, ranks_above, ranks_at_least, reversed_order, sum_problems, tied
from oracles import (
    benchmark_generators,
    _layer_bijections,
    _variants,
    check_iim_instance,
    evaluate_witness,
    naive_sc_dominance,
    permutation_layer_verdict,
    reference_weak_order_levels,
)

ROWSUM = make_scorer("rowsum")
LS = make_scorer("ls")
GRS1 = make_scorer("grs", 1)


# ---------------------------------------------------------------- dominance

def run_search(problem, order, i, j, results_only, strict, budget=None):
    """One dominance search with a fresh split budget, as one check would start."""
    return _dominance_search(problem, order, i, j, _SplitBudget(problem, budget), results_only, strict)


def dominance(problem, order, i, j, budget=None):
    """(kind, witness): "strict" from the strict search, else the any search's answer."""
    found = run_search(problem, order, i, j, False, True, budget)
    return found if found[0] == "strict" else run_search(problem, order, i, j, False, False, budget)


def assert_modes_match_oracle(problem, order, i, j, results_only=False):
    """Both searches agree with the exhaustive oracle, and their witnesses replay."""
    expected = naive_sc_dominance(problem, order, i, j, strict_from_results_only=results_only)
    strict = run_search(problem, order, i, j, results_only, True)
    found = run_search(problem, order, i, j, results_only, False)
    assert strict[0] in ("strict", "none"), (i, j)
    assert (strict[0] == "strict") == (expected == "strict"), (i, j, results_only, expected)
    assert (found[0] == "none") == (expected == "none"), (i, j, results_only, expected)
    for kind, witness in (strict, found):
        if kind != "none":
            replayed = evaluate_witness(problem, order, witness, strict_from_results_only=results_only)
            assert replayed == kind, (i, j, results_only)


def test_dominance_strict_same_opponents(instance_31):
    order = order_from_groups([[0], [1, 2], [3]])
    kind, witness = dominance(instance_31, order, 0, 3)
    assert kind == "strict"
    assert evaluate_witness(instance_31, order, witness) == "strict"


def test_dominance_weak_both_ways(instance_31):
    order = order_from_groups([[0], [1, 2], [3]])
    assert dominance(instance_31, order, 1, 2)[0] == "weak"
    assert dominance(instance_31, order, 2, 1)[0] == "weak"


def every_match_repeated(problem, times):
    """``problem`` with each result and match count multiplied by ``times``."""
    return problem_from_results_matches(
        [[times * x for x in row] for row in problem.results],
        [[times * m for m in row] for row in problem.matches],
    )


def test_dominance_empty_opponents():
    p = problem_from_results_matches(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    )
    order = order_from_groups([[0, 1, 2, 3]])
    assert dominance(p, order, 2, 3)[0] == "weak"
    assert dominance(p, order, 3, 2)[0] == "weak"


def test_dominance_degree_mismatch_is_none(instance_41):
    order = order_from_groups([[0, 1, 2, 3, 4, 5]])
    assert dominance(instance_41, order, 0, 1)[0] == "none"


def test_dominance_budget_guard(instance_33):
    # Nine objects are no longer refused: every pair is tied and settles
    # without a layer split.
    big = problem_from_results_matches(
        [[0] * 9 for _ in range(9)], [[0 if i == j else 1 for j in range(9)] for i in range(9)]
    )
    report = check_sc(ROWSUM, big)
    assert report.verdict == SATISFIED
    assert report.instances_checked == 72
    # Instance 3.3 with every match played 13 times: listing one 13-match
    # edge would take 3**13 > 10**6 candidates, so the first pair searched
    # ends the check, with no pair decided.
    report = check_sc(ROWSUM, every_match_repeated(instance_33, 13))
    assert report.verdict == BUDGET_EXCEEDED
    assert report.instances_checked == 0
    assert report.detail == "more than 1000000 layer splits examined for pair (X1, X2)"


def test_dominance_candidate_cap(instance_33):
    order = induce_ranking(row_sum(instance_33))
    with pytest.raises(BudgetExceededError):
        dominance(instance_33, order, 0, 1, 0)


def test_dominance_matches_naive_oracle_on_instances(instance_31, instance_33):
    for problem in (instance_31, instance_33):
        for order in (
            induce_ranking(row_sum(problem)),
            order_from_groups([[0, 1, 2, 3]]),
        ):
            for i, j in itertools.permutations(range(problem.n), 2):
                assert_modes_match_oracle(problem, order, i, j)


def test_dominance_matches_naive_oracle_randomized():
    checked = 0
    for seed in range(40):
        problem = random_problem(900 + seed, 4, max_multiplicity=2, edge_probability=0.6)
        orders = [
            induce_ranking(row_sum(problem)),
            order_from_groups([[0, 1, 2, 3]]),
            order_from_groups([[0, 1], [2, 3]]),
        ]
        for order in orders:
            for i, j in itertools.permutations(range(4), 2):
                for results_only in (False, True):
                    assert_modes_match_oracle(problem, order, i, j, results_only)
                    checked += 1
    assert checked > 500


def test_dominance_matches_naive_oracle_triple_multiplicity():
    # Tiny problems with a triple edge exercise the three-layer splits.
    cases = [
        problem_from_results_matches(
            [[0, 2, 0], [-2, 0, -1], [0, 1, 0]],
            [[0, 3, 1], [3, 0, 2], [1, 2, 0]],
        ),
        problem_from_results_matches(
            [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
            [[0, 3, 1], [3, 0, 3], [1, 3, 0]],
        ),
    ]
    for problem in cases:
        for order in (
            induce_ranking(row_sum(problem)),
            order_from_groups([[0, 1, 2]]),
            order_from_groups([[2], [0], [1]]),
        ):
            for i, j in itertools.permutations(range(3), 2):
                assert_modes_match_oracle(problem, order, i, j)


def test_check_sc_requires_integer_results():
    p = problem_from_results_matches(
        [[0, Fraction(1, 2), 0, 0], [Fraction(-1, 2), 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    )
    with pytest.raises(ValueError):
        check_sc(ROWSUM, p)
    with pytest.raises(ValueError):
        enumerate_sc_rankings(p)


def test_self_consistency_rejects_ratings_of_another_problem(instance_33, instance_33_prime):
    def elsewhere(problem):
        return row_sum(instance_33_prime)

    for checker in (check_sc, check_wsc):
        with pytest.raises(ValueError, match="different problem"):
            checker(elsewhere, instance_33)


def test_strict_witness_is_antisymmetric(instance_31):
    order = order_from_groups([[0], [1, 2], [3]])
    kind, witness = dominance(instance_31, order, 0, 3)
    assert kind == "strict"
    swapped = dict(
        witness,
        pair=[3, 0],
        bijections=[sorted([l, k] for k, l in layer) for layer in witness["bijections"]],
    )
    assert evaluate_witness(instance_31, order, swapped) == "none"


# ------------------------------------------------------- self-consistency

def test_check_sc_rowsum_violated_on_cycle(instance_33):
    report = check_sc(ROWSUM, instance_33)
    assert report.verdict == VIOLATED
    assert report.witness["pair"] == [0, 1]
    assert report.witness["dominance"] == "strict"
    assert report.exit_code() == 2
    # replay the witness independently
    order = induce_ranking(row_sum(instance_33))
    assert evaluate_witness(instance_33, order, report.witness) == "strict"


def test_check_sc_rowsum_violated_on_six_cycle(instance_32):
    report = check_sc(ROWSUM, instance_32)
    assert report.verdict == VIOLATED
    assert report.witness["pair"] == [1, 4]


def test_check_sc_satisfied_for_corrected_methods(instance_33):
    assert check_sc(GRS1, instance_33).verdict == SATISFIED
    assert check_sc(LS, instance_33).verdict == SATISFIED


def test_check_wsc_rowsum_satisfied(instance_32, instance_33):
    assert check_wsc(ROWSUM, instance_33).verdict == SATISFIED
    assert check_wsc(ROWSUM, instance_32).verdict == SATISFIED


def test_check_wsc_trivial_when_no_results(instance_41):
    for scorer in (ROWSUM, GRS1, LS):
        assert check_wsc(scorer, instance_41).verdict == SATISFIED


def test_check_sc_weak_dominance_violation(instance_31):
    # X2 and X3 are exact twins (same results against the same objects), so
    # any scorer separating them breaks the weak conclusion.
    from pairrank.methods import RatingVector

    def tiebreaker(problem):
        return RatingVector(
            values=tuple(Fraction(v) for v in (3, 1, 2, 0)),
            method="tiebreaker",
            problem=problem,
        )

    report = check_sc(tiebreaker, instance_31)
    assert report.verdict == VIOLATED
    assert report.witness["pair"] == [1, 2]
    assert report.witness["dominance"] == "weak"
    assert "at least as high" in report.detail


def test_check_sc_budget_exceeded_reported(instance_33):
    report = check_sc(ROWSUM, instance_33, 0)
    assert report.verdict == BUDGET_EXCEEDED
    assert report.exit_code() == 3


def test_check_sc_budget_resolves_with_larger_cap():
    # A dense triple-edge problem overflows a tiny per-pair cap but settles
    # to a definite verdict under the default budget.
    problem = random_problem(5013, 6, max_multiplicity=3, edge_probability=0.8)
    assert problem.max_multiplicity() == 3
    capped = check_sc(ROWSUM, problem, 50)
    assert capped.verdict == BUDGET_EXCEEDED
    assert "layer splits" in capped.detail
    assert check_sc(ROWSUM, problem).verdict == SATISFIED


def test_check_sc_budget_is_shared_by_all_pairs():
    # Three pairs need 32, 64 and 128 layer splits: a budget that covers each
    # pair but not their sum runs out on the third, after five decided pairs.
    problem = random_problem(5202, 6, max_multiplicity=2, edge_probability=0.8)
    assert check_sc(ROWSUM, problem, 224).verdict == SATISFIED
    report = check_sc(ROWSUM, problem, 223)
    assert report.verdict == BUDGET_EXCEEDED
    assert report.instances_checked == 5
    assert report.detail == "more than 223 layer splits examined for pair (X6, X5)"


def test_check_sc_judges_each_distinct_layer_once(monkeypatch):
    # The 2,500 layer splits a budget-bound dense eight-object problem
    # affords repeat a few dozen distinct layers: each is matched once per
    # search, not per split.
    from pairrank import axioms

    table = benchmark_generators().dense_weighted(random.Random(27), 8, 3, 0.7)
    problem = problem_from_results_matches(table.R, table.M)
    matching, pairing, search = axioms._perfect_matching, axioms._layer_pairing, axioms._dominance_search
    matchings = pairings = 0
    judged = set()  # the layers judged in the running search

    def counting_matching(adjacency):
        nonlocal matchings
        matchings += 1
        return matching(adjacency)

    def once_per_search(left, right, *args):
        nonlocal pairings
        pairings += 1
        assert (left, right) not in judged
        judged.add((left, right))
        return pairing(left, right, *args)

    def fresh_search(*args):
        judged.clear()
        return search(*args)

    monkeypatch.setattr(axioms, "_perfect_matching", counting_matching)
    monkeypatch.setattr(axioms, "_layer_pairing", once_per_search)
    monkeypatch.setattr(axioms, "_dominance_search", fresh_search)
    report = check_sc(ROWSUM, problem, 2500)
    assert report.verdict == BUDGET_EXCEEDED
    assert report.detail == "more than 2500 layer splits examined for pair (X6, X4)"
    assert 0 < pairings <= matchings <= 100


def test_check_sc_multiplicity_guard(instance_32):
    # Four matches on a pair are no longer refused: the tied pair settles
    # without a layer split.
    quad = problem_from_results_matches([[0, 0], [0, 0]], [[0, 4], [4, 0]])
    report = check_sc(LS, quad)
    assert report.verdict == SATISFIED
    assert report.instances_checked == 2
    # 13 matches on every pair of 3.2: each edge costs more than the budget.
    report = check_sc(ROWSUM, every_match_repeated(instance_32, 13))
    assert report.verdict == BUDGET_EXCEEDED
    assert report.instances_checked == 3
    assert report.detail == "more than 1000000 layer splits examined for pair (X2, X5)"


# ------------------------------------------------------------ enumeration

def test_enumerate_unique_ranking(instance_31):
    orders = enumerate_sc_rankings(instance_31)
    assert orders == [order_from_groups([[0], [1, 2], [3]])]


def test_enumerate_contains_reference_orders(instance_32):
    orders = set(enumerate_sc_rankings(instance_32))
    assert len(orders) >= 3
    first = order_from_groups([[0, 1, 2], [3, 4, 5]])
    second = order_from_groups([[4], [3, 5], [0, 2], [1]])
    assert first in orders
    assert second in orders
    assert reversed_order(second) in orders


def test_enumerate_agrees_with_naive_admissibility(instance_32):
    # Spot-check membership decisions against the exhaustive oracle.
    degrees = multigraph(instance_32).degrees
    eligible = [
        (i, j)
        for i in range(6)
        for j in range(6)
        if i != j and degrees[i] == degrees[j]
    ]

    def naive_admissible(order):
        for i, j in eligible:
            kind = naive_sc_dominance(instance_32, order, i, j)
            if kind == "strict" and not ranks_above(order, i, j):
                return False
            if kind == "weak" and not ranks_at_least(order, i, j):
                return False
        return True

    accepted = enumerate_sc_rankings(instance_32)
    accepted_set = set(accepted)
    for order in accepted[::13]:  # every 13th member
        assert naive_admissible(order)
    rejected_checked = 0
    for order in iter_weak_orders(6):
        if order not in accepted_set:
            assert not naive_admissible(order)
            rejected_checked += 1
            if rejected_checked >= 25:
                break


def test_enumerate_all_tied_for_symmetric_round_robin():
    p = problem_from_results_matches(
        [[0] * 4 for _ in range(4)],
        [[0 if i == j else 1 for j in range(4)] for i in range(4)],
    )
    orders = enumerate_sc_rankings(p)
    assert orders == [order_from_groups([[0, 1, 2, 3]])]


def test_enumerate_rejects_large_problems():
    p = problem_from_results_matches(
        [[0] * 7 for _ in range(7)], [[0] * 7 for _ in range(7)]
    )
    with pytest.raises(BudgetExceededError):
        enumerate_sc_rankings(p)


def test_enumerate_refuses_a_single_match_in_a_deep_problem():
    # One pair played 1,000 times makes every split 1,000 layers deep, so a
    # single match elsewhere has 1,000 placements, each coded over 1,000
    # layers: more than the budget, refused before any is listed.
    n = 6
    results = [[0] * n for _ in range(n)]
    matches = [[0] * n for _ in range(n)]
    for a, b, count in ((0, 1, 1), (2, 3, 1), (4, 5, 1000)):
        matches[a][b] = matches[b][a] = count
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"layer splits examined for pair \(X1, X2\)"):
        enumerate_sc_rankings(problem_from_results_matches(results, matches))
    assert time.perf_counter() - start < 1


def test_enumerate_over_the_multiplicity_cap_without_eligible_pairs():
    # Degrees 4, 5, 3 and 2 all differ, so no pair is searched and no layer
    # split is examined, however deep the problem: every order is admitted.
    matches = [[0, 4, 0, 0], [4, 0, 1, 0], [0, 1, 0, 2], [0, 0, 2, 0]]
    p = problem_from_results_matches([[0] * 4 for _ in range(4)], matches)
    orders = enumerate_sc_rankings(p)
    assert len(orders) == 75
    assert orders == list(iter_weak_orders(4))


def _permute_order(order: tuple[int, ...], perm) -> tuple[int, ...]:
    levels = [0] * len(perm)
    for i, level in enumerate(order):
        levels[perm[i]] = level
    return tuple(levels)


def test_enumerate_closed_under_automorphisms(instance_32):
    n = instance_32.n
    automorphisms = [
        perm
        for perm in itertools.permutations(range(n))
        if permute_problem(instance_32, perm) == instance_32
    ]
    assert len(automorphisms) > 1  # the mirror symmetry is nontrivial
    orders = set(enumerate_sc_rankings(instance_32))
    for perm in automorphisms:
        assert {_permute_order(o, perm) for o in orders} == orders


def test_enumerate_fast_path_agrees_with_general(instance_31):
    # Re-derive the accepted set through the per-order dominance verdicts.
    degrees = multigraph(instance_31).degrees
    eligible = [
        (i, j)
        for i in range(4)
        for j in range(4)
        if i != j and degrees[i] == degrees[j]
    ]

    def admissible(order):
        for i, j in eligible:
            kind = dominance(instance_31, order, i, j)[0]
            if kind == "strict" and not ranks_above(order, i, j):
                return False
            if kind == "weak" and not ranks_at_least(order, i, j):
                return False
        return True

    general = [o for o in iter_weak_orders(4) if admissible(o)]
    assert general == enumerate_sc_rankings(instance_31)


def test_enumerate_general_path_on_doubled_instance(instance_31):
    # Doubling every match keeps the structure but forces the layered search.
    doubled = sum_problems(instance_31, instance_31)
    assert doubled.max_multiplicity() == 2
    orders = enumerate_sc_rankings(doubled)
    assert order_from_groups([[0], [1, 2], [3]]) in orders


def _admissible(problem, order, dominance) -> bool:
    """SC membership of ``order``, with ``dominance(order, i, j)`` giving each verdict."""
    for i, j in itertools.permutations(range(problem.n), 2):
        if ranks_above(order, i, j):
            continue  # both conclusions already hold
        kind = dominance(order, i, j)
        if kind == "strict" or (kind == "weak" and not ranks_at_least(order, i, j)):
            return False
    return True


# Seeded four-object problems with two or three matches on some pair, and
# one without any match (every pair then dominates the other weakly).
WEIGHTED_FOUR = {
    f"seed{seed}-cap{cap}": random_problem(seed, 4, max_multiplicity=cap, edge_probability=0.7)
    for seed, cap in ((302, 3), (304, 3), (306, 2), (329, 2), (339, 3))
}
WEIGHTED_FOUR["no-matches"] = problem_from_results_matches(
    [[0] * 4 for _ in range(4)], [[0] * 4 for _ in range(4)]
)


@pytest.mark.parametrize("name", sorted(WEIGHTED_FOUR))
def test_weighted_enumeration_matches_naive_oracle(name):
    problem = WEIGHTED_FOUR[name]
    assert name == "no-matches" or problem.max_multiplicity() >= 2

    def naive(order, i, j):
        return naive_sc_dominance(problem, order, i, j)

    expected = [o for o in iter_weak_orders(4) if _admissible(problem, o, naive)]
    assert enumerate_sc_rankings(problem) == expected


def test_enumeration_on_41_agrees_with_per_order_search(instance_41):
    # The exhaustive oracle cannot handle 4.1; the per-order matching search
    # that check_sc runs decides a seeded sample of orders instead.
    accepted = enumerate_sc_rankings(instance_41)
    accepted_set = set(accepted)
    sample = random.Random(41).sample(list(iter_weak_orders(6)), 30) + accepted[::90]

    def search(order, i, j):
        return run_search(instance_41, order, i, j, False, tied(order, i, j))[0]

    for order in sample:
        assert (order in accepted_set) == _admissible(instance_41, order, search)


def _counting_edge_options(monkeypatch) -> list[tuple[int, int, int]]:
    """The arguments of every ``_edge_options`` build from now on."""
    from pairrank import axioms

    built = []
    original = axioms._edge_options

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(axioms, "_edge_options", counting)
    return built


def test_enumeration_builds_split_options_once_per_pair(monkeypatch):
    # Each eligible pair's layer splits are walked once, not once per order,
    # and an entry's options are built once for the whole enumeration: one
    # build per distinct (matches, result) among the rows the eligible
    # pairs walk, for this problem's three layers.
    problem = random_problem(70100, 5, max_multiplicity=3, edge_probability=0.6)
    assert problem.max_multiplicity() == 3
    built = _counting_edge_options(monkeypatch)
    enumerate_sc_rankings(problem)
    degrees, row_sums = multigraph(problem).degrees, problem.row_sums
    entries = {
        (problem.matches[x][k], int(problem.results[x][k]), 3)
        for i, j in itertools.permutations(range(problem.n), 2)
        if degrees[i] == degrees[j] and row_sums[i] >= row_sums[j]
        for x in (i, j)
        for k in problem.neighbors(x)
        if (x, k) != (j, i)
    }
    assert len(entries) > 1
    assert sorted(built) == sorted(entries)


def test_a_check_keeps_no_split_options_after_it_returns(monkeypatch):
    # The options table belongs to one check: a second check of the same
    # problem builds every entry it needs again, each once, as the first did.
    # Row sum violates SC on this seven-object problem after walking splits.
    text = (Path(__file__).parent / "golden" / "inputs" / "dense7.json").read_text()
    dense = parse_problem_json(text).problem
    built = _counting_edge_options(monkeypatch)
    runs = []
    for _ in range(2):
        built.clear()
        assert check_sc(ROWSUM, dense).verdict == VIOLATED
        runs.append(sorted(built))
    assert runs[0] and runs[0] == runs[1] and len(set(runs[0])) == len(runs[0])


# Split rows: the reference is the per-pair derivation that each pair did
# before the budget kept one row per object, kept here as it was.

class _ReferenceBudget:
    """The split budget as each pair read it then: the layer count, the cap,
    the splits spent, and one table of ``_edge_options`` per check."""

    def __init__(self, problem, cap=None):
        self.depth = problem.max_multiplicity()
        self.cap = MAX_LAYER_SPLITS if cap is None else cap
        self.spent = 0
        self.options = {}

    def edge_options(self, mu, rho):
        if (mu, rho) not in self.options:
            self.options[mu, rho] = _edge_options(mu, rho, self.depth)
        return self.options[mu, rho]


def _reference_layer_splits(problem, i, j, budget):
    """Rows i and j derived again for this pair: edges, refusal, options and codes."""
    n, depth, cap = problem.n, budget.depth, budget.cap
    matches = problem.matches
    results = problem.results
    edges_i = [(k, matches[i][k], int(results[i][k])) for k in problem.neighbors(i)]
    edges_j = [(l, matches[j][l], int(results[j][l])) for l in problem.neighbors(j) if l != i]
    if depth > cap or any(
        mu >= cap.bit_length() or comb(depth, mu) * 3**mu * depth > cap for _, mu, _ in edges_i + edges_j
    ):
        raise _splits_exceeded(cap, i, j)
    options_i = [budget.edge_options(mu, rho) for (_, mu, rho) in edges_i]
    options_j = [budget.edge_options(mu, rho) for (_, mu, rho) in edges_j]
    codes_j = [[sum(n**p for p in subset) for subset, _ in options] for options in options_j]
    for choice_i in itertools.product(*options_i):
        rows_i = [[] for _ in range(depth)]
        shared_rows = [[] for _ in range(depth)]
        for (k, _, _), (subset, split) in zip(edges_i, choice_i):
            for p, r in zip(subset, split):
                rows_i[p].append((k, r))
                if k == j:
                    shared_rows[p].append((i, -r))
        need = sum(n**p * (len(rows_i[p]) - len(shared_rows[p])) for p in range(depth))
        lefts = [tuple(row) for row in rows_i]
        for choice_j, code_j in zip(itertools.product(*options_j), itertools.product(*codes_j)):
            budget.spent += 1
            if budget.spent > cap:
                raise _splits_exceeded(cap, i, j)
            if sum(code_j) == need:
                rows_j = [list(row) for row in shared_rows]
                for (l, _, _), (subset, split) in zip(edges_j, choice_j):
                    for p, r in zip(subset, split):
                        rows_j[p].append((l, r))
                yield list(zip(lefts, map(tuple, rows_j)))


def _split_walk(splits, budget, problem) -> list:
    """Every ordered pair of equal degrees, in order, on one budget as a
    check spends it: each pair's splits, or the refusal that ends the walk,
    with the splits spent so far."""
    degrees = multigraph(problem).degrees
    walk = []
    for i, j in itertools.permutations(range(problem.n), 2):
        if degrees[i] == degrees[j]:
            try:
                walk.append((i, j, list(splits(problem, i, j, budget)), budget.spent))
            except BudgetExceededError as exc:
                walk.append((i, j, str(exc), budget.spent))
                break
    return walk


def _split_corpus():
    """The lane corpus and the stored golden inputs with integer results."""
    folder = Path(__file__).parent / "golden" / "inputs"
    stored = [parse_problem_json(path.read_text()).problem for path in sorted(folder.glob("*.json"))]
    return [p for p in _lane_corpus() + stored if p.has_integer_results()]


def test_split_rows_give_the_per_pair_splits_spent_and_refusals():
    corpus = _split_corpus()
    assert len(corpus) > 100 and max(p.n for p in corpus) >= 20
    refused = exhausted = 0
    for problem in corpus:
        whole = _split_walk(_reference_layer_splits, _ReferenceBudget(problem), problem)
        assert _split_walk(_layer_splits, _SplitBudget(problem), problem) == whole
        total = whole[-1][3] if whole else 0
        for cap in (0, 5, 20, total // 2):
            expected = _split_walk(_reference_layer_splits, _ReferenceBudget(problem, cap), problem)
            assert _split_walk(_layer_splits, _SplitBudget(problem, cap), problem) == expected
            if expected and isinstance(expected[-1][2], str):  # refused before any split, or spent
                refused += expected[-1][3] <= cap
                exhausted += expected[-1][3] > cap
    assert refused and exhausted


def test_a_refused_pair_builds_no_option_table(monkeypatch):
    # Objects 0 and 1 meet object 4 once each, and objects 2 and 3 meet
    # twice, so two layers.  At cap 15 an edge of one match (2 * 3 * 2 = 12
    # candidates coded) passes and an edge of two (1 * 9 * 2 = 18) is
    # refused: the rows of 2 and 3 are refused, and so is every pair with
    # one of them, before any option of the other row is built.
    matches = [[0] * 5 for _ in range(5)]
    for a, b, mu in ((0, 4, 1), (1, 4, 1), (2, 3, 2)):
        matches[a][b] = matches[b][a] = mu
    problem = problem_from_results_matches([[0] * 5 for _ in range(5)], matches)
    built = _counting_edge_options(monkeypatch)
    budget = _SplitBudget(problem, 15)
    for i, j in ((2, 0), (0, 2), (4, 3), (2, 3)):
        with pytest.raises(BudgetExceededError, match="more than 15 layer splits"):
            list(_layer_splits(problem, i, j, budget))
        assert built == [] and budget.spent == 0
    assert list(_layer_splits(problem, 0, 1, budget)) and sorted(set(built)) == [(1, 0, 2)]


# The premise tables, kept as the reference reading of the self-consistency
# premises: every pairing family of a pair, folded split by split.

def _premise_tables(problem) -> list[tuple[int, int, dict[tuple[tuple[int, int], ...], bool]]]:
    """(i, j, table) for every eligible pair i, j whose premise table is not
    empty; with no family in its table, i never dominates j."""
    degrees = multigraph(problem).degrees
    row_sums = problem.row_sums
    pairs = [
        (i, j)
        for i, j in itertools.permutations(range(problem.n), 2)
        if degrees[i] == degrees[j] and row_sums[i] >= row_sums[j]
    ]
    splits = _SplitBudget(problem)
    return [(i, j, table) for i, j in pairs if (table := _premise_table(problem, i, j, splits))]


def _premise_table(problem, i, j, budget) -> dict[tuple[tuple[int, int], ...], bool]:
    """The pairing families of i over j whose result premises all hold.

    Maps a family's sorted distinct opponent pairs (k, l), the order premises
    it needs, to whether some such family has a strictly better result.  Each
    layer split folds in its layers' bijections one layer at a time,
    deduplicating as it goes, so the full product never materialises.
    """
    bijections = {}  # one layer (left, right) -> its feasible (pairs, result_strict)
    table: dict[tuple[tuple[int, int], ...], bool] = {}
    for layers in _layer_splits(problem, i, j, budget):
        families = {(): False}
        for layer in layers:
            if layer not in bijections:
                bijections[layer] = _layer_bijections(*layer)
            folded: dict[tuple[tuple[int, int], ...], bool] = {}
            for pairs, strict in families.items():
                for layer_pairs, layer_strict in bijections[layer]:
                    merged = tuple(sorted(set(pairs + layer_pairs)))
                    folded[merged] = folded.get(merged, False) or strict or layer_strict
            families = folded
            if not families:
                break
        for pairs, strict in families.items():
            table[pairs] = table.get(pairs, False) or strict
    return table


def admitted_levels(problem) -> list[tuple[int, ...]]:
    """The lane walk behind ``enumerate_sc_rankings``, past its six-object gate."""
    lanes = _OrderLanes(problem.n)
    return list(lanes.levels(lanes.admitted(problem)))


def _admits(levels, tables) -> bool:
    """Per-order oracle for ``admitted_levels``: whether ``levels`` meets every
    conclusion the premise tables force, read one family at a time."""
    for i, j, table in tables:
        if levels[i] < levels[j]:
            continue  # i sits above j: both conclusions hold
        tied = levels[i] == levels[j]
        for pairs, result_strict in table.items():
            if not all(levels[k] <= levels[l] for k, l in pairs):
                continue
            if not tied:
                return False  # i sits below j yet dominates it
            if result_strict or any(levels[k] < levels[l] for k, l in pairs):
                return False  # tie where a strict conclusion is forced
    return True


def _lane_corpus():
    """Seeded problems of one to six objects for the bit-parallel walk."""
    gen = benchmark_generators()
    rng = random.Random(17_401)
    tables = [
        gen.dense_weighted(rng, n, cap, density)
        for n in range(1, 7)
        for cap, densities in ((1, (0.3, 0.5, 0.8)), (2, (0.3, 0.5, 0.8)), (3, (0.3, 0.45, 0.6)))
        for density in densities
    ]
    tables += [gen.regular(rng, n, d) for n, d in ((4, 2), (4, 3), (5, 2), (6, 2), (6, 3), (6, 4)) for _ in range(3)]
    tables += [gen.round_robin(rng, n, 1) for n in (5, 6) for _ in range(6)]
    tables += [gen.permuted(rng, gen.PAPER["3.2"]) for _ in range(10)]
    corpus = [problem_from_results_matches(table.R, table.M) for table in tables]
    corpus += [get_instance(name).problem for name in ("3.1", "3.2", "3.3", "3.3-prime")]
    corpus += [
        random_problem(17_500 + seed, 4 + seed % 3, max_multiplicity=3, edge_probability=0.6) for seed in range(15)
    ]
    # Six objects, seven in ten pairs met, up to three matches a pair.
    rng = random.Random(424_242)
    dense = [gen.dense_weighted(rng, 6, 3, 0.7) for _ in range(6)]
    corpus += [problem_from_results_matches(table.R, table.M) for table in dense]
    # Degrees 4, 5, 3 and 2 all differ: no eligible pair, no table.
    matches = [[0, 4, 0, 0], [4, 0, 1, 0], [0, 1, 0, 2], [0, 0, 2, 0]]
    corpus.append(problem_from_results_matches([[0] * 4 for _ in range(4)], matches))
    return corpus


def test_bit_parallel_walk_matches_the_per_order_oracle():
    corpus = _lane_corpus()
    assert len(corpus) >= 100
    assert {p.n for p in corpus} == set(range(1, 7))
    assert any(p.max_multiplicity() == 3 for p in corpus)
    walks = {n: reference_weak_order_levels(n) for n in range(1, 7)}
    untabled = 0
    for problem in corpus:
        tables = _premise_tables(problem)
        untabled += not tables
        expected = [levels for levels in walks[problem.n] if _admits(levels, tables)]
        assert admitted_levels(problem) == expected
        assert enumerate_sc_rankings(problem) == expected
    assert untabled >= 1


def test_enumerate_a_dense_six_object_problem_ends_within_the_split_budget(monkeypatch):
    # The 54th dense draw below has two or three matches on 13 of its 15
    # pairs.  A split must cost a few lane operations per layer, however
    # many pairing families it has, so that the split budget bounds the
    # whole walk (the default budget ends at pair (X5, X1) in seconds).
    from pairrank import axioms

    gen = benchmark_generators()
    rng = random.Random(17_401)
    draws = [
        gen.dense_weighted(rng, n, cap, density)
        for n in range(1, 7)
        for cap in (1, 2, 3)
        for density in (0.3, 0.5, 0.7)
    ]
    table = draws[53]
    assert table.M == [
        [0, 3, 3, 2, 2, 2],
        [3, 0, 2, 1, 2, 3],
        [3, 2, 0, 0, 3, 3],
        [2, 1, 0, 0, 3, 2],
        [2, 2, 3, 3, 0, 2],
        [2, 3, 3, 2, 2, 0],
    ]
    problem = problem_from_results_matches(table.R, table.M)
    monkeypatch.setattr(axioms, "MAX_LAYER_SPLITS", 20_000)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"^more than 20000 layer splits examined for pair \(X3, X2\)$"):
        enumerate_sc_rankings(problem)
    assert time.perf_counter() - start < 2


def test_bit_parallel_walk_past_the_six_object_limit():
    # A seven-object round robin: 47,293 candidate orders, one lane each.
    # The count was checked once against the full per-order walk (5 s);
    # here every seventh order is re-decided by it.
    table = benchmark_generators().round_robin(random.Random(17_407), 7, 1)
    problem = problem_from_results_matches(table.R, table.M)
    tables = _premise_tables(problem)
    admitted = admitted_levels(problem)
    assert len(admitted) == 1613
    index = {levels: x for x, levels in enumerate(iter_weak_orders(7))}
    assert sorted(admitted, key=index.get) == admitted
    lanes = set(admitted)
    for levels in itertools.islice(iter_weak_orders(7), 0, None, 7):
        assert (levels in lanes) == _admits(levels, tables)
    with pytest.raises(BudgetExceededError, match="limited to six objects, got 7"):
        enumerate_sc_rankings(problem)


# Layer verdicts: the subset DP read against every pairing of the layer.

def _permutation_mismatches(lanes) -> tuple[list, int, int]:
    """The layers whose cached verdict differs from the permutation form's,
    and, of all cached layers, how many have results equal as multisets on
    both sides (the strict DP is read only there) and how many of those are
    strict under some order, which only an order premise can make them."""
    mismatches, equal, order_strict = [], 0, 0
    for (left, right), verdict in lanes.verdicts.items():
        if verdict != permutation_layer_verdict(left, right, lanes.weak, lanes.strict, lanes.everywhere):
            mismatches.append((left, right))
        if sorted(r for _, r in left) == sorted(r for _, r in right):
            equal += 1
            order_strict += verdict[1] != 0
    return mismatches, equal, order_strict


def test_layer_verdicts_match_the_permutation_form():
    # Every cached (holds, strict) pair equals, bit for bit, the union over
    # the layer's result-feasible pairings, on the lane corpus and on the
    # stored inputs that enumerate-sc takes.
    folder = Path(__file__).parent / "golden" / "inputs"
    stored = [parse_problem_json(path.read_text()).problem for path in sorted(folder.glob("*.json"))]
    stored = [p for p in stored if p.n <= 6 and p.has_integer_results()]
    assert len(stored) == 9
    layers = equal = order_strict = 0
    for problem in _lane_corpus() + stored:
        lanes = _OrderLanes(problem.n)
        lanes.admitted(problem)
        mismatches, equal_here, order_strict_here = _permutation_mismatches(lanes)
        assert mismatches == []
        layers += len(lanes.verdicts)
        equal += equal_here
        order_strict += order_strict_here
    assert layers > 5000 and equal > 800 and order_strict > 600, (layers, equal, order_strict)


@pytest.mark.parametrize("n, multiplicity, orders", [(6, 2, 224), (5, 3, 24)])
def test_round_robin_layer_verdicts_match_the_permutation_form(n, multiplicity, orders):
    # Layers of five and four opponents: 120 and 24 pairings a layer.
    table = benchmark_generators().round_robin_one_tie(random.Random(8), n, multiplicity)
    problem = problem_from_results_matches(table.R, table.M)
    lanes = _OrderLanes(n)
    assert lanes.admitted(problem).bit_count() == orders
    mismatches, equal, order_strict = _permutation_mismatches(lanes)
    assert mismatches == [] and order_strict > 0, (equal, order_strict)


def test_six_object_round_robin_is_enumerated_within_two_seconds():
    # 17,820 distinct layers of five opponents, each judged over 32 subsets
    # of j's side instead of 120 pairings; read pairing by pairing, the walk
    # took 4-5 s.
    table = benchmark_generators().round_robin_one_tie(random.Random(8), 6, 2)
    problem = problem_from_results_matches(table.R, table.M)
    lanes = _OrderLanes(6)
    start = time.perf_counter()
    admitted = lanes.admitted(problem)
    elapsed = time.perf_counter() - start
    assert admitted.bit_count() == 224 and len(lanes.verdicts) == 17_820
    assert elapsed < 2, elapsed


# One layer: where no pair meets twice, a pair's one split comes from the rows.

@pytest.mark.parametrize("name", ["3.2", "round-robin"])
def test_one_layer_enumeration_builds_no_option_table(monkeypatch, name):
    from pairrank import axioms

    problem = get_instance("3.2").problem if name == "3.2" else random_round_robin(6, 6, 1)
    assert problem.max_multiplicity() == 1 and problem.n == 6
    budgets = []

    class Recording(axioms._SplitBudget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    monkeypatch.setattr(axioms, "_SplitBudget", Recording)
    built = _counting_edge_options(monkeypatch)
    orders = enumerate_sc_rankings(problem)
    degrees, row_sums = multigraph(problem).degrees, problem.row_sums
    eligible = [
        (i, j)
        for i, j in itertools.permutations(range(problem.n), 2)
        if degrees[i] == degrees[j] and row_sums[i] >= row_sums[j]
    ]
    assert built == [] and len(eligible) > 10
    assert [budget.spent for budget in budgets] == [len(eligible)]
    assert name != "3.2" or len(orders) == 130


def test_one_layer_refusals_keep_their_messages():
    # On example 3.2 (one layer), caps 0 and 2 refuse the first pair's rows
    # (an edge's three candidates cost more), and cap 3 refuses the fourth
    # split, pair (X1, X5)'s.  The walk matches the per-pair derivation at
    # these caps on every one-layer problem of the split corpus too.
    problem = get_instance("3.2").problem
    last = {
        0: (0, 1, "more than 0 layer splits examined for pair (X1, X2)", 0),
        2: (0, 1, "more than 2 layer splits examined for pair (X1, X2)", 0),
        3: (0, 4, "more than 3 layer splits examined for pair (X1, X5)", 4),
    }
    for cap, expected in last.items():
        assert _split_walk(_layer_splits, _SplitBudget(problem, cap), problem)[-1] == expected
    for cap in (0, 2):
        report = check_sc(ROWSUM, problem, budget=cap)
        assert (report.verdict, report.instances_checked) == (BUDGET_EXCEEDED, 3)
        assert report.detail == f"more than {cap} layer splits examined for pair (X2, X5)"
    one_layer = [p for p in _split_corpus() if p.max_multiplicity() == 1]
    assert len(one_layer) > 20
    for problem in one_layer:
        for cap in (2, 3):
            expected = _split_walk(_reference_layer_splits, _ReferenceBudget(problem, cap), problem)
            assert _split_walk(_layer_splits, _SplitBudget(problem, cap), problem) == expected


class _SplitAsked(Exception):
    """A dominance search reached its first layer split."""


def _no_split(*args):
    raise _SplitAsked


def test_hall_certificate_never_hides_a_family(monkeypatch):
    # A search answers "none" before asking for any layer split exactly
    # when the Hall test on the sorted opponent levels (one per unit match)
    # fails, or when a strict search with equal row sums needs strictness
    # beyond results and the level lists are equal.  Each such answer must
    # agree with the full lane walk of the same eligible pair for the same
    # order (SC, and the weak WSC search, which reads the same premises), and
    # a strict WSC "none" with the premise table's result-strict families.
    # All orders are checked up to five objects, 40 seeded ones at six.
    from pairrank import axioms

    walk, lanes = axioms._OrderLanes.dominance, {}

    def recording(table, problem, i, j, *args):
        lanes[problem][i, j] = walk(table, problem, i, j, *args)
        return lanes[problem][i, j]

    monkeypatch.setattr(axioms._OrderLanes, "dominance", recording)
    for problem in _lane_corpus() + [get_instance(name).problem for name in instance_ids()]:
        lanes[problem] = {}
        admitted_levels(problem)
    monkeypatch.setattr(axioms, "_layer_splits", _no_split)
    rng = random.Random(21_001)
    settled = unpaired = 0
    for problem, walked in lanes.items():
        tables = {}
        orders = list(enumerate(iter_weak_orders(problem.n)))
        for x, levels in orders if problem.n <= 5 else rng.sample(orders, 40):
            bit = 1 << x
            # Each object's opponent levels, one per unit match, sorted.
            opponents = [sorted(levels[k] for k, m in enumerate(row) for _ in range(m)) for row in problem.matches]
            for (i, j), (dominates, strictly) in walked.items():
                hall = all(a <= b for a, b in zip(opponents[i], opponents[j]))
                tied = problem.row_sums[i] == problem.row_sums[j]
                for results_only, strict in itertools.product((False, True), repeat=2):
                    try:
                        kind, _ = _dominance_search(problem, levels, i, j, None, results_only, strict)
                    except _SplitAsked:
                        kind = None
                    expected = not hall or strict and tied and (results_only or opponents[i] == opponents[j])
                    assert (kind == "none") == expected, (levels, i, j, results_only, strict)
                    if kind is None:
                        continue
                    settled += 1
                    if not strict:
                        assert not dominates & bit, (levels, i, j)
                        unpaired += 1
                    elif not results_only:
                        assert not strictly & bit, (levels, i, j)
                    elif dominates & bit:
                        if (i, j) not in tables:
                            tables[i, j] = _premise_table(problem, i, j, _SplitBudget(problem))
                        assert not any(
                            result_strict
                            for pairs, result_strict in tables[i, j].items()
                            if all(levels[k] <= levels[l] for k, l in pairs)
                        ), (levels, i, j)
    assert settled > 200_000 and unpaired > 90_000


def test_shared_lanes_equal_the_per_order_search_on_every_pair():
    # The lane table that enumerate-sc and the impossibility trace share
    # reads, for each ordered pair, the orders where i dominates j and those
    # where it does so strictly (SC).  Every lane must agree with the
    # one-order search, weak and strict, for every order.  One table per
    # object count serves all problems, as the trace's serves 3.3 and 3.3'.
    corpus = [p for p in _lane_corpus() if p.n <= 4]
    assert all(get_instance(name).problem in corpus for name in ("3.1", "3.3", "3.3-prime"))
    assert any(p.max_multiplicity() == 3 for p in corpus)
    tables = {n: _OrderLanes(n) for n in range(1, 5)}
    checked = strict_found = 0
    for problem in corpus:
        table = tables[problem.n]
        orders = list(enumerate(iter_weak_orders(problem.n)))
        assert table.everywhere.bit_count() == len(orders)
        for i, j in itertools.permutations(range(problem.n), 2):
            dominates, strictly = table.dominance(problem, i, j, _SplitBudget(problem))
            assert strictly & dominates == strictly
            for x, order in orders:
                bit = 1 << x
                weak_kind = run_search(problem, order, i, j, False, False)[0]
                strict_kind = run_search(problem, order, i, j, False, True)[0]
                assert bool(dominates & bit) == (weak_kind != "none"), (order, i, j)
                assert bool(strictly & bit) == (strict_kind == "strict"), (order, i, j)
                checked += 2
                strict_found += strict_kind == "strict"
    assert checked > 10_000 and strict_found > 500


def test_one_bit_lanes_stand_for_the_rows_in_order():
    # Every order set holds one bit per order: bit x of weak[k, l] is set
    # exactly where order x (the x-th row, in iter_weak_orders order) puts k
    # at or above l, of strict[k, l] where it puts k strictly above, and a
    # set reads back as the rows of its set bits, in bit order.
    rng = random.Random(40_006)
    for n in range(1, 7):
        table = _OrderLanes(n)
        rows = list(table.rows)
        assert rows == list(iter_weak_orders(n)) and table.count == len(rows)
        assert table.everywhere.bit_count() == table.count and table.everywhere >> table.count == 0
        assert set(table.weak) == set(table.strict) == set(itertools.product(range(n), repeat=2))
        for k, l in table.weak:
            assert table.weak[k, l] == sum(1 << x for x, row in enumerate(rows) if row[k] <= row[l]), (n, k, l)
            assert table.strict[k, l] == sum(1 << x for x, row in enumerate(rows) if row[k] < row[l]), (n, k, l)
        for lanes in [0, table.everywhere, *(rng.getrandbits(table.count) for _ in range(12))]:
            assert list(table.levels(lanes)) == [row for x, row in enumerate(rows) if lanes >> x & 1], (n, lanes)


def test_enumeration_verdict_cache_stays_small():
    # One bit per order keeps each cached layer verdict small: this
    # five-object enumeration caches 1,536 layers and peaks near 1.0 MB
    # traced, where a byte per order took 2.0 MB.
    problem = random_round_robin(50, 5, 2)
    assert problem.max_multiplicity() == 2
    _OrderLanes(5)  # the relation sets are built once per process, outside the bound
    tracemalloc.start()
    try:
        lanes = _OrderLanes(5)
        admitted = list(lanes.levels(lanes.admitted(problem)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lanes.verdicts) > 1500 and len(admitted) == 35
    assert peak < 1_500_000, peak


# ------------------------------------------------------------ independence

def test_iim_instance_rowsum_unaffected(instance_33, instance_33_prime):
    report = check_iim_instance(ROWSUM, instance_33, instance_33_prime, 0, 1)
    assert report.verdict == SATISFIED


def test_iim_instance_least_squares_flips(instance_33, instance_33_prime):
    report = check_iim_instance(LS, instance_33, instance_33_prime, 0, 1)
    assert report.verdict == VIOLATED
    assert report.witness["perturbed_pair"] == [2, 3]
    assert report.witness["base_ratings"] == ["1/8", "-1/8", "-3/8", "3/8"]
    assert report.witness["perturbed_ratings"] == ["-1/8", "1/8", "3/8", "-3/8"]


def test_iim_instance_preconditions(instance_33, instance_33_prime):
    with pytest.raises(ValueError):
        check_iim_instance(ROWSUM, instance_33, instance_33, 0, 1)  # identical
    with pytest.raises(ValueError):
        check_iim_instance(ROWSUM, instance_33, instance_33_prime, 2, 3)  # touches change
    doubly = with_pair(instance_33_prime, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        check_iim_instance(ROWSUM, instance_33, doubly, 0, 1)  # two changed pairs


def test_iim_search_rowsum_clean(instance_31, instance_32, instance_33):
    for problem in (instance_31, instance_32, instance_33):
        assert search_iim_violation(ROWSUM, problem).verdict == SATISFIED


def test_iim_search_finds_canonical_witness(instance_33):
    report = search_iim_violation(GRS1, instance_33)
    assert report.verdict == VIOLATED
    assert report.witness["perturbed_pair"] == [2, 3]
    assert report.witness["target_pair"] == [0, 1]
    assert report.witness["perturbed_entry"] == {"result": "1", "matches": 1}


def test_iim_search_zero_budget(instance_33):
    report = search_iim_violation(GRS1, instance_33, budget=0)
    assert report.verdict == BUDGET_EXCEEDED
    assert report.exit_code() == 3
    assert report.instances_checked == 0
    assert report.detail == "instance budget exhausted"


def test_iim_search_needs_four_objects():
    p = problem_from_results_matches(
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    )
    with pytest.raises(ValueError):
        search_iim_violation(ROWSUM, p)


def test_iim_search_handles_disconnecting_perturbations():
    # Removing the middle edge of a path splits the graph; the sweep must
    # still evaluate those variants via the per-component convention.
    path = problem_from_results_matches(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        [[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 0, 1, 0]],
    )
    report = search_iim_violation(LS, path)
    assert report.verdict in (SATISFIED, VIOLATED)
    if report.verdict == VIOLATED:
        witness = report.witness
        perturbed = problem_from_results_matches(
            [[Fraction(x) for x in row] for row in witness["perturbed_results"]],
            witness["perturbed_matches"],
        )
        replay = check_iim_instance(LS, path, perturbed, *witness["target_pair"])
        assert replay.verdict == VIOLATED


def test_pair_variants_keep_their_order_and_count():
    # Every base a pair of up to five matches can hold, half points among
    # them: the variants come in the oracle's order, the base left out only
    # when it is on the integer grid, and len counts them without a walk.
    for m in range(6):
        for result in (Fraction(r, 2) for r in range(-2 * m, 2 * m + 1)):
            problem = problem_from_results_matches([[0, result], [-result, 0]], [[0, m], [m, 0]])
            variants = pair_variants(problem, 0, 1)
            expected = list(_variants(problem, 0, 1))
            assert list(variants) == expected and len(variants) == len(expected), (m, result)
            assert len(expected) == sum(2 * m2 + 1 for m2 in {max(m - 1, 0), m, m + 1}) - (result.denominator == 1)


def test_a_budget_one_sweep_over_a_deep_pair_lists_no_variants():
    # X1 and X2 met 200,000 times: their pair has 1,200,002 variants, and a
    # sweep that stops after one instance makes one of them, not a list of all.
    m = 200_000
    problem = problem_from_results_matches([[0] * 4 for _ in range(4)], [[0, m, 0, 0], [m, 0, 0, 0], [0] * 4, [0] * 4])
    assert len(pair_variants(problem, 0, 1)) == 6 * m + 2
    tracemalloc.start()
    try:
        report = search_iim_violation(ROWSUM, problem, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.verdict, report.instances_checked) == (BUDGET_EXCEEDED, 1)
    assert peak < 1 << 20, peak


def test_every_check_accepts_a_plain_scoring_function(instance_33, instance_41):
    # A scorer is any function from a problem to ratings: a plain function
    # gives each check the report the exported scorer gives.
    def plain(problem):
        return least_squares(problem)

    for check, problem in ((search_iim_violation, instance_33), (check_sc, instance_33), (check_wsc, instance_33)):
        assert asdict(check(plain, problem)) == asdict(check(LS, problem))
    for which in ("mva", "mvi"):
        report = search_mv_violation(plain, instance_41, which)
        assert asdict(report) == asdict(search_mv_violation(LS, instance_41, which))


def test_iim_witness_replays(instance_33):
    report = search_iim_violation(LS, instance_33)
    witness = report.witness
    perturbed = problem_from_results_matches(
        [[Fraction(x) for x in row] for row in witness["perturbed_results"]],
        witness["perturbed_matches"],
    )
    replay = check_iim_instance(
        LS, instance_33, perturbed, *witness["target_pair"]
    )
    assert replay.verdict == VIOLATED


# ------------------------------------------------------------ impossibility

def test_impossibility_trace_establishes_contradiction(monkeypatch):
    # Every step reads the shared lane table; no order is searched alone.
    from pairrank import axioms

    monkeypatch.setattr(axioms, "_dominance_search", _no_split)
    trace = impossibility_trace()
    assert [s.holds for s in trace.steps] == [True] * 5
    assert trace.verdict == "contradiction established"
    names = [s.name for s in trace.steps]
    assert names == [
        "same-opponents-1-over-3",
        "same-opponents-4-over-2",
        "cross-opponents-1-over-2",
        "mirror-instance",
        "independence-contradiction",
    ]
    payload = asdict(trace)
    assert payload["verdict"] == "contradiction established"
    details = [step.details for step in trace.steps]
    assert details[0] == details[1] == {"orders_checked": 75}
    assert details[2]["conditional_orders_checked"] == 2
    assert details[2]["admissible_orders"] == enumerate_sc_rankings(get_instance("3.3").problem)


def test_lane_walks_leave_no_reference_cycles(instance_32):
    # What the enumeration, the trace and a matching search build is freed by
    # reference counting when they return: a cycle, such as a cache bound to
    # the lane table or a recursive closure, would keep it alive until the
    # cyclic collector ran.
    table = benchmark_generators().dense_weighted(random.Random(424_242), 6, 3, 0.5)
    dense = problem_from_results_matches(table.R, table.M)
    assert dense.max_multiplicity() == 3
    runs = (
        lambda: enumerate_sc_rankings(instance_32),
        lambda: enumerate_sc_rankings(dense),
        impossibility_trace,
        lambda: check_sc(ROWSUM, instance_32),
    )
    for run in runs:
        run()  # warm up: the registry and the per-n line tables
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_logical_independence_of_the_two_axioms(instance_33):
    # One method keeps independence and breaks self-consistency...
    assert search_iim_violation(ROWSUM, instance_33).verdict == SATISFIED
    assert check_sc(ROWSUM, instance_33).verdict == VIOLATED
    # ...the others keep self-consistency and break independence.
    for scorer in (GRS1, LS):
        assert check_sc(scorer, instance_33).verdict == SATISFIED
        assert search_iim_violation(scorer, instance_33).verdict == VIOLATED
