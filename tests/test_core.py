from fractions import Fraction

import pytest

from pairrank.core import (
    InvalidProblemError,
    classify,
    laplacian,
    multigraph,
    permute_problem,
    problem_from_results_matches,
    with_pair,
)

from corpus import macrovertex_corpus, random_problem, round_robin_corpus, sc_corpus
from helpers import canonical_unweighted_decomposition, negate_results, sum_problems, tournament
from invariant_checks import check_laplacian_invariants
from oracles import _changed_pairs, problem_from_tournament


def test_problem_from_tournament_basic():
    t = [
        [0, 1, 1, Fraction(1, 2)],
        [0, 0, Fraction(1, 2), 1],
        [0, Fraction(1, 2), 0, 1],
        [Fraction(1, 2), 0, 0, 0],
    ]
    p = problem_from_tournament(t)
    assert p.results[0][1] == 1
    assert p.results[0][3] == 0
    assert p.matches[0][1] == 1
    assert p.matches[0][3] == 1
    assert tournament(p) == tuple(tuple(Fraction(x) for x in row) for row in t)


def test_problem_from_tournament_zero():
    p = problem_from_tournament([[0] * 4 for _ in range(4)])
    assert all(x == 0 for row in p.results for x in row)
    assert all(x == 0 for row in p.matches for x in row)


def test_tournament_round_trip(instance_31):
    rebuilt = problem_from_tournament(tournament(instance_31))
    assert rebuilt == instance_31


def test_tournament_rejects_bad_input():
    with pytest.raises(InvalidProblemError):
        problem_from_tournament([[0, 1], [1, 0.25]])  # nonzero diagonal
    with pytest.raises(InvalidProblemError):
        problem_from_tournament([[0, -1], [1, 0]])  # negative score
    with pytest.raises(InvalidProblemError):
        problem_from_tournament([[0, Fraction(1, 2)], [Fraction(3, 4), 0]])  # non-integer total
    with pytest.raises(InvalidProblemError):
        problem_from_tournament([[0, 1, 0], [0, 0, 1]])  # not square


def test_results_matches_validation_messages():
    with pytest.raises(InvalidProblemError) as excinfo:
        problem_from_results_matches([[0, 2], [-2, 0]], [[0, 1], [1, 0]])
    assert "|result| <= matches violated at (X1, X2)" in str(excinfo.value)

    with pytest.raises(InvalidProblemError) as excinfo:
        problem_from_results_matches([[0, 1], [0, 0]], [[0, 1], [1, 0]])
    assert "skew-symmetry" in str(excinfo.value)

    with pytest.raises(InvalidProblemError):
        problem_from_results_matches([[0, 0], [0, 0]], [[0, 2], [1, 0]])

    with pytest.raises(InvalidProblemError):
        problem_from_results_matches([[0, 0], [0, 0]], [[0, -1], [-1, 0]])


def test_registry_31_is_valid_and_classified(instance_31):
    flags = classify(instance_31)
    assert flags.balanced and flags.unweighted and flags.extremal and flags.connected
    assert not flags.round_robin


def test_classify_round_robin():
    p = problem_from_results_matches(
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 2, 2], [2, 0, 2], [2, 2, 0]],
    )
    flags = classify(p)
    assert flags.round_robin and flags.balanced


def test_classify_instance_41(instance_41):
    flags = classify(instance_41)
    assert not flags.balanced
    assert flags.connected


def test_multigraph_31(instance_31):
    g = multigraph(instance_31)
    assert g.degrees == (2, 2, 2, 2)
    assert instance_31.max_multiplicity() == 1
    assert g.components == ((0, 1, 2, 3),)


def test_multigraph_empty():
    p = problem_from_results_matches([[0] * 3 for _ in range(3)], [[0] * 3 for _ in range(3)])
    g = multigraph(p)
    assert g.degrees == (0, 0, 0)
    assert g.components == ((0,), (1,), (2,))


def test_multigraph_41(instance_41):
    g = multigraph(instance_41)
    assert g.degrees == (3, 6, 6, 7, 7, 3)
    assert instance_41.max_multiplicity() == 3
    assert len(g.components) == 1


def test_laplacian_cycle(instance_33):
    rows = laplacian(instance_33)
    assert rows == [
        {1: -1, 3: -1, 0: 2},
        {0: -1, 2: -1, 1: 2},
        {1: -1, 3: -1, 2: 2},
        {0: -1, 2: -1, 3: 2},
    ]
    assert [list(row) for row in rows] == [[1, 3, 0], [0, 2, 1], [1, 3, 2], [0, 2, 3]]


def test_laplacian_zero_and_round_robin():
    empty = problem_from_results_matches([[0] * 3 for _ in range(3)], [[0] * 3 for _ in range(3)])
    assert laplacian(empty) == [{0: 0}, {1: 0}, {2: 0}]
    rr = problem_from_results_matches(
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    )
    assert laplacian(rr) == [{1: -1, 2: -1, 0: 2}, {0: -1, 2: -1, 1: 2}, {0: -1, 1: -1, 2: 2}]


def test_laplacian_matches_the_dense_oracle_on_the_seeded_corpus():
    corpus = sc_corpus() + macrovertex_corpus() + round_robin_corpus(20)
    corpus += [random_problem(9500 + seed, 6, edge_probability=0.2) for seed in range(20)]
    assert any(not any(row) for problem in corpus for row in problem.matches)  # isolated objects
    for seed, problem in enumerate(corpus):
        check_laplacian_invariants(problem, seed)


def test_sum_problems_identity_and_doubling(instance_31):
    zero = problem_from_results_matches([[0] * 4 for _ in range(4)], [[0] * 4 for _ in range(4)])
    assert sum_problems(instance_31, zero) == instance_31
    doubled = sum_problems(instance_31, instance_31)
    assert doubled.results[0][1] == 2
    assert doubled.matches[0][1] == 2
    with pytest.raises(InvalidProblemError):
        sum_problems(instance_31, problem_from_results_matches([[0]], [[0]]))


def test_split_and_resum(instance_31):
    # Tear the instance into two layers, each holding two of its matches.
    first = problem_from_results_matches(
        [[0, 1, 1, 0], [-1, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]],
    )
    second = problem_from_results_matches(
        [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, -1, -1, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 1, 1, 0]],
    )
    assert sum_problems(first, second) == instance_31


def test_canonical_decomposition_unweighted_is_identity(instance_31):
    decomposition = canonical_unweighted_decomposition(instance_31)
    assert len(decomposition.layers) == 1
    assert decomposition.layers[0] == instance_31
    assert decomposition.parent_fingerprint == instance_31.fingerprint


def test_canonical_decomposition_forced_and_tie():
    p = problem_from_results_matches([[0, 2], [-2, 0]], [[0, 2], [2, 0]])
    layers = canonical_unweighted_decomposition(p).layers
    assert [layer.results[0][1] for layer in layers] == [1, 1]
    assert [layer.matches[0][1] for layer in layers] == [1, 1]

    tied = problem_from_results_matches([[0, 0], [0, 0]], [[0, 2], [2, 0]])
    layers = canonical_unweighted_decomposition(tied).layers
    assert [layer.results[0][1] for layer in layers] == [0, 0]


def test_canonical_decomposition_rejects_fractional_results():
    p = problem_from_results_matches(
        [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]], [[0, 1], [1, 0]]
    )
    with pytest.raises(InvalidProblemError):
        canonical_unweighted_decomposition(p)


def test_permute_and_negate(instance_33, instance_33_prime):
    assert permute_problem(instance_33, (1, 0, 3, 2)) == instance_33_prime
    flipped = negate_results(instance_33)
    assert flipped.results[2][3] == 1
    assert flipped.matches == instance_33.matches


def test_with_pair_and_differing_pairs(instance_33):
    changed = with_pair(instance_33, 2, 3, 1, 1)
    assert _changed_pairs(instance_33, changed) == [(2, 3)]
    assert changed.results[3][2] == -1
    assert changed.row_sums == tuple(sum(row, Fraction(0)) for row in changed.results)
    with pytest.raises(InvalidProblemError, match=r"diagonal pair \(1, 1\)"):
        with_pair(instance_33, 1, 1, 0, 0)
    for i, j in ((0, 4), (4, 0), (-1, 2)):
        with pytest.raises(InvalidProblemError, match="out of range"):
            with_pair(instance_33, i, j, 0, 1)
    with pytest.raises(InvalidProblemError, match=r"negative match count at \(X1, X2\)"):
        with_pair(instance_33, 0, 1, 0, -1)
    with pytest.raises(InvalidProblemError, match="not an integer"):
        with_pair(instance_33, 0, 1, 0, Fraction(3, 2))
    with pytest.raises(InvalidProblemError, match=r"\|result\| <= matches violated at \(X1, X2\)"):
        with_pair(instance_33, 0, 1, 5, 1)


def test_fingerprint_distinguishes(instance_33, instance_33_prime):
    assert instance_33.fingerprint != instance_33_prime.fingerprint
    assert instance_33.fingerprint == instance_33.fingerprint
