"""Property tests of the module-level invariants over generated problems."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import invariant_checks as inv
from pairrank.axioms import VIOLATED, check_sc
from pairrank.core import problem_from_results_matches, with_pair
from pairrank.macrovertex import find_macrovertices
from pairrank.methods import induce_ranking, make_scorer, row_sum

from corpus import random_round_robin
from oracles import (
    check_iim_instance,
    check_mva_instance,
    check_mvi_instance,
    evaluate_witness,
    reference_macrovertices,
)


@st.composite
def problems(draw, min_n=2, max_n=5, max_mult=2):
    n = draw(st.integers(min_n, max_n))
    matches = [[0] * n for _ in range(n)]
    results = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mu = draw(st.integers(0, max_mult))
            rho = draw(st.integers(-mu, mu)) if mu else 0
            matches[i][j] = matches[j][i] = mu
            results[i][j] = rho
            results[j][i] = -rho
    return problem_from_results_matches(results, matches)


@st.composite
def planted_modules(draw, max_n=9):
    """Match counts 0-3 on every pair, then up to three planted member sets,
    each meeting every outsider equally often (a later one may break or nest
    inside an earlier one).  Results are zero: detection ignores them."""
    n = draw(st.integers(1, max_n))
    counts = st.integers(0, 3)
    matches = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        matches[i][j] = matches[j][i] = draw(counts)
    plants = st.sets(st.integers(0, n - 1), min_size=2, max_size=n - 1)
    for members in draw(st.lists(plants, max_size=3)) if n > 2 else ():
        for k in range(n):
            if k not in members:
                common = draw(counts)
                for i in members:
                    matches[i][k] = matches[k][i] = common
    return problem_from_results_matches([[0] * n for _ in range(n)], matches)


@st.composite
def problems_with_permutation(draw):
    problem = draw(problems())
    perm = draw(st.permutations(range(problem.n)))
    return problem, tuple(perm)


@given(problems())
def test_matrix_and_class_invariants(problem):
    inv.check_matrix_invariants(problem)
    inv.check_class_implications(problem)


@given(problems(), st.integers(0, 10**6))
def test_laplacian_kernel_and_psd(problem, seed):
    inv.check_laplacian_invariants(problem, seed)


@given(problems())
def test_sum_algebra(problem):
    inv.check_sum_algebra(problem)


@given(problems(max_mult=3))
def test_decomposition_round_trip(problem):
    inv.check_decomposition_round_trip(problem)


@settings(max_examples=25)
@given(problems())
def test_rating_identities(problem):
    inv.check_rating_identities(problem, sweep=(Fraction(1, 1000), Fraction(1), Fraction(1000)))


@settings(max_examples=25)
@given(problems())
def test_low_end_refinement(problem):
    # Strict row-sum inequalities survive at the small-coupling endpoint.
    s = row_sum(problem).values
    from pairrank.methods import generalized_row_sum

    low = generalized_row_sum(problem, Fraction(1, 10**6)).values
    for i in range(problem.n):
        for j in range(problem.n):
            if s[i] > s[j]:
                assert low[i] > low[j]


@given(problems_with_permutation())
def test_permutation_equivariance(problem_and_perm):
    problem, perm = problem_and_perm
    inv.check_equivariance(problem, perm)


@given(problems())
def test_sign_flip(problem):
    inv.check_sign_flip(problem)


@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 3))
def test_round_robin_agreement(seed, n, mult):
    problem = random_round_robin(seed, n, max_multiplicity=mult)
    inv.check_round_robin_agreement(problem)


@settings(max_examples=20)
@given(problems(min_n=4, max_n=4, max_mult=1))
def test_violation_witnesses_replay(problem):
    # Whenever the plain row sum breaks self-consistency, the reported
    # witness must replay to the same verdict when checked independently.
    report = check_sc(make_scorer("rowsum"), problem)
    if report.verdict != VIOLATED:
        return
    order = induce_ranking(row_sum(problem))
    assert evaluate_witness(problem, order, report.witness) == report.witness["dominance"]


@settings(max_examples=15)
@given(problems(min_n=4, max_n=5, max_mult=1))
def test_independence_implies_localized_checks(problem):
    # Row sum passes the independence instance, so the localized variants
    # built from the same perturbation must pass too.
    rowsum = make_scorer("rowsum")
    for members in find_macrovertices(problem):
        inside = list(members)
        outside = [k for k in range(problem.n) if k not in members]
        if len(inside) < 2 or len(outside) < 2:
            continue
        a, b = inside[0], inside[1]
        changed = with_pair(problem, a, b, 0, problem.matches[a][b] + 1)
        k, l = outside[0], outside[1]
        assert check_iim_instance(rowsum, problem, changed, k, l).verdict != VIOLATED
        assert check_mvi_instance(rowsum, problem, changed, members, k, l).verdict != VIOLATED
        c, d = outside[0], outside[1]
        changed_out = with_pair(problem, c, d, 0, problem.matches[c][d] + 1)
        assert check_iim_instance(rowsum, problem, changed_out, a, b).verdict != VIOLATED
        assert (
            check_mva_instance(rowsum, problem, changed_out, members, a, b).verdict
            != VIOLATED
        )
        break


@given(problems(min_n=2, max_n=5, max_mult=2))
def test_macrovertex_detection_ignores_results(problem):
    inv.check_macrovertex_results_blind(problem)


@settings(max_examples=200)
@given(planted_modules())
def test_macrovertices_match_the_subset_scan(problem):
    assert find_macrovertices(problem) == reference_macrovertices(problem)
