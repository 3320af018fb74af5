import itertools
import random
from dataclasses import asdict
from fractions import Fraction

import pytest

from pairrank.axioms import (
    BUDGET_EXCEEDED,
    SATISFIED,
    VIOLATED,
    BudgetExceededError,
    DominanceWitness,
    check_sc,
    check_wsc,
    enumerate_sc_rankings,
    impossibility_trace,
    sc_dominance,
    search_iim_violation,
)
from pairrank.core import (
    permute_problem,
    problem_from_results_matches,
    with_pair,
)
from pairrank.methods import (
    WeakOrder,
    induce_ranking,
    iter_weak_orders,
    make_scorer,
    row_sum,
)

from corpus import random_problem
from helpers import order_from_groups, reversed_order, sum_problems, tied
from oracles import check_iim_instance, evaluate_witness, naive_sc_dominance

ROWSUM = make_scorer("rowsum")
LS = make_scorer("ls")
GRS1 = make_scorer("grs", 1)


# ---------------------------------------------------------------- dominance

def test_dominance_strict_same_opponents(instance_31):
    order = order_from_groups([[0], [1, 2], [3]])
    dom = sc_dominance(instance_31, order, 0, 3)
    assert dom.kind == "strict"
    assert evaluate_witness(instance_31, order, dom.witness) == "strict"


def test_dominance_weak_both_ways(instance_31):
    order = order_from_groups([[0], [1, 2], [3]])
    assert sc_dominance(instance_31, order, 1, 2).kind == "weak"
    assert sc_dominance(instance_31, order, 2, 1).kind == "weak"


def test_dominance_empty_opponents():
    p = problem_from_results_matches(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    )
    order = order_from_groups([[0, 1, 2, 3]])
    assert sc_dominance(p, order, 2, 3).kind == "weak"
    assert sc_dominance(p, order, 3, 2).kind == "weak"


def test_dominance_degree_mismatch_is_none(instance_41):
    order = order_from_groups([[0, 1, 2, 3, 4, 5]])
    assert sc_dominance(instance_41, order, 0, 1).kind == "none"


def test_dominance_requires_integer_results():
    p = problem_from_results_matches(
        [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]], [[0, 1], [1, 0]]
    )
    with pytest.raises(ValueError):
        sc_dominance(p, order_from_groups([[0, 1]]), 0, 1)


def test_dominance_rejects_bad_indices(instance_31):
    order = order_from_groups([[0, 1, 2, 3]])
    with pytest.raises(ValueError):
        sc_dominance(instance_31, order, 1, 1)
    with pytest.raises(ValueError):
        sc_dominance(instance_31, order, 0, 7)
    with pytest.raises(ValueError):
        sc_dominance(instance_31, order_from_groups([[0, 1]]), 0, 1)


def test_dominance_budget_guard():
    big = problem_from_results_matches(
        [[0] * 9 for _ in range(9)], [[0 if i == j else 1 for j in range(9)] for i in range(9)]
    )
    with pytest.raises(BudgetExceededError):
        sc_dominance(big, order_from_groups([list(range(9))]), 0, 1)


def test_dominance_candidate_cap(instance_33):
    order = induce_ranking(row_sum(instance_33))
    with pytest.raises(BudgetExceededError):
        sc_dominance(instance_33, order, 0, 1, 0)


def test_dominance_matches_naive_oracle_on_instances(instance_31, instance_33):
    for problem in (instance_31, instance_33):
        for order in (
            induce_ranking(row_sum(problem)),
            order_from_groups([[0, 1, 2, 3]]),
        ):
            for i, j in itertools.permutations(range(problem.n), 2):
                expected = naive_sc_dominance(problem, order, i, j)
                assert sc_dominance(problem, order, i, j).kind == expected, (i, j)


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
                    expected = naive_sc_dominance(
                        problem, order, i, j, strict_from_results_only=results_only
                    )
                    got = sc_dominance(
                        problem, order, i, j, strict_from_results_only=results_only
                    ).kind
                    assert got == expected, (seed, i, j, results_only, got, expected)
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
                expected = naive_sc_dominance(problem, order, i, j)
                assert sc_dominance(problem, order, i, j).kind == expected, (i, j)


def test_check_sc_requires_integer_results():
    p = problem_from_results_matches(
        [[0, Fraction(1, 2), 0, 0], [Fraction(-1, 2), 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    )
    with pytest.raises(ValueError):
        check_sc(ROWSUM, p)
    with pytest.raises(ValueError):
        enumerate_sc_rankings(p)


def test_strict_witness_is_antisymmetric(instance_31):
    order = order_from_groups([[0], [1, 2], [3]])
    dom = sc_dominance(instance_31, order, 0, 3)
    assert dom.kind == "strict"
    swapped = DominanceWitness(
        pair=(3, 0),
        layer_results=dom.witness.layer_results,
        layer_matches=dom.witness.layer_matches,
        bijections=tuple(
            tuple(sorted((l, k) for k, l in layer)) for layer in dom.witness.bijections
        ),
        strict=dom.witness.strict,
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
    witness = DominanceWitness(
        pair=tuple(report.witness["pair"]),
        layer_results=tuple(
            tuple(tuple(Fraction(x) for x in row) for row in layer)
            for layer in report.witness["layer_results"]
        ),
        layer_matches=tuple(
            tuple(tuple(row) for row in layer) for layer in report.witness["layer_matches"]
        ),
        bijections=tuple(
            tuple(tuple(edge) for edge in layer) for layer in report.witness["bijections"]
        ),
        strict=report.witness["strict"],
    )
    order = induce_ranking(row_sum(instance_33))
    assert evaluate_witness(instance_33, order, witness) == "strict"


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
    from pairrank.methods import RatingVector, Scorer

    def tiebreaker(problem):
        return RatingVector(
            values=tuple(Fraction(v) for v in (3, 1, 2, 0)),
            method="tiebreaker",
            problem=problem,
        )

    report = check_sc(Scorer(tag="tiebreaker", fn=tiebreaker), instance_31)
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
    problem = random_problem(5006, 6, max_multiplicity=3, edge_probability=0.8)
    assert problem.max_multiplicity() == 3
    capped = check_sc(LS, problem, 50)
    assert capped.verdict == BUDGET_EXCEEDED
    assert "layer splits" in capped.detail
    assert check_sc(LS, problem).verdict == SATISFIED


def test_check_sc_multiplicity_guard():
    quad = problem_from_results_matches([[0, 0], [0, 0]], [[0, 4], [4, 0]])
    report = check_sc(LS, quad)
    assert report.verdict == BUDGET_EXCEEDED
    assert "multiplicity 4" in report.detail


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
    from pairrank.core import multigraph

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
            if kind == "strict" and not order.ranks_above(i, j):
                return False
            if kind == "weak" and not order.ranks_at_least(i, j):
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


def _permute_order(order: WeakOrder, perm) -> WeakOrder:
    levels = [0] * len(perm)
    for i, level in enumerate(order.levels):
        levels[perm[i]] = level
    return WeakOrder(tuple(levels))


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
    # Re-derive the accepted set through the public dominance verdicts.
    from pairrank.core import multigraph

    degrees = multigraph(instance_31).degrees
    eligible = [
        (i, j)
        for i in range(4)
        for j in range(4)
        if i != j and degrees[i] == degrees[j]
    ]

    def admissible(order):
        for i, j in eligible:
            kind = sc_dominance(instance_31, order, i, j).kind
            if kind == "strict" and not order.ranks_above(i, j):
                return False
            if kind == "weak" and not order.ranks_at_least(i, j):
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
        if order.ranks_above(i, j):
            continue  # both conclusions already hold
        kind = dominance(order, i, j)
        if kind == "strict" or (kind == "weak" and not order.ranks_at_least(i, j)):
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
    from pairrank.axioms import _dominance_search

    accepted = enumerate_sc_rankings(instance_41)
    accepted_set = set(accepted)
    sample = random.Random(41).sample(list(iter_weak_orders(6)), 30) + accepted[::90]

    def search(order, i, j):
        want = "strict" if tied(order, i, j) else "any"
        return _dominance_search(instance_41, order, i, j, None, False, want)[0]

    for order in sample:
        assert (order in accepted_set) == _admissible(instance_41, order, search)


def test_enumeration_builds_split_options_once_per_pair(monkeypatch):
    # The premise table is built once per eligible pair, not once per order.
    from pairrank import axioms
    from pairrank.core import multigraph

    problem = random_problem(70100, 5, max_multiplicity=3, edge_probability=0.6)
    assert problem.max_multiplicity() == 3
    calls = 0
    original = axioms._edge_options

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(axioms, "_edge_options", counting)
    enumerate_sc_rankings(problem)
    degrees = multigraph(problem).degrees
    bound = sum(
        len(problem.neighbors(i)) + len(problem.neighbors(j))
        for i, j in itertools.permutations(range(problem.n), 2)
        if degrees[i] == degrees[j]
    )
    assert 0 < calls <= bound


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

def test_impossibility_trace_establishes_contradiction():
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


def test_logical_independence_of_the_two_axioms(instance_33):
    # One method keeps independence and breaks self-consistency...
    assert search_iim_violation(ROWSUM, instance_33).verdict == SATISFIED
    assert check_sc(ROWSUM, instance_33).verdict == VIOLATED
    # ...the others keep self-consistency and break independence.
    for scorer in (GRS1, LS):
        assert check_sc(scorer, instance_33).verdict == SATISFIED
        assert search_iim_violation(scorer, instance_33).verdict == VIOLATED
