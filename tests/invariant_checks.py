"""Reusable invariant assertions shared by the property and acceptance suites."""

from __future__ import annotations

import random
from fractions import Fraction

from pairrank.axioms import SATISFIED, check_sc, check_wsc, search_iim_violation
from pairrank.core import classify, laplacian, multigraph, permute_problem
from pairrank.macrovertex import is_macrovertex, search_mv_violation
from pairrank.methods import (
    generalized_row_sum,
    induce_ranking,
    least_squares,
    make_scorer,
    row_sum,
)

from helpers import canonical_unweighted_decomposition, negate_results, sum_problems
from oracles import dense_laplacian, matrix_apply

EPSILON_SWEEP = (
    Fraction(1, 10**6),
    Fraction(1, 10**3),
    Fraction(1),
    Fraction(10**3),
    Fraction(10**6),
)


def check_matrix_invariants(problem) -> None:
    n = problem.n
    for i in range(n):
        assert problem.results[i][i] == 0 and problem.matches[i][i] == 0
        for j in range(n):
            assert problem.results[i][j] == -problem.results[j][i]
            assert problem.matches[i][j] == problem.matches[j][i]
            assert abs(problem.results[i][j]) <= problem.matches[i][j] or i == j


def check_class_implications(problem) -> None:
    flags = classify(problem)
    if flags.round_robin:
        assert flags.balanced
    graph = multigraph(problem)
    assert flags.unweighted == (problem.max_multiplicity() == 1)
    assert flags.connected == (len(graph.components) == 1)


def check_laplacian_invariants(problem, seed: int = 0) -> None:
    entries = dense_laplacian(problem)
    # The package's sparse rows hold the dense oracle's entries, always the
    # diagonal, and no stored zero off it.
    rows = laplacian(problem)
    assert [[row.get(b, 0) for b in range(problem.n)] for row in rows] == entries
    for a, row in enumerate(rows):
        assert a in row and all(v for b, v in row.items() if b != a)
    for row in entries:
        assert sum(row) == 0
    rng = random.Random(seed)
    for _ in range(3):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(problem.n)]
        quad = sum(x[i] * v for i, v in enumerate(matrix_apply(entries, tuple(x))))
        assert quad >= 0


def check_sum_algebra(problem) -> None:
    doubled = sum_problems(problem, problem)
    assert sum_problems(problem, doubled) == sum_problems(doubled, problem)
    tripled_left = sum_problems(sum_problems(problem, problem), problem)
    tripled_right = sum_problems(problem, sum_problems(problem, problem))
    assert tripled_left == tripled_right


def check_decomposition_round_trip(problem) -> None:
    if not problem.has_integer_results():
        return
    decomposition = canonical_unweighted_decomposition(problem)
    assert len(decomposition.layers) == problem.max_multiplicity()
    total_r = [[Fraction(0)] * problem.n for _ in range(problem.n)]
    total_m = [[0] * problem.n for _ in range(problem.n)]
    for layer in decomposition.layers:
        assert classify(layer).unweighted
        for i in range(problem.n):
            for j in range(problem.n):
                total_r[i][j] += layer.results[i][j]
                total_m[i][j] += layer.matches[i][j]
    assert tuple(tuple(row) for row in total_r) == problem.results
    assert tuple(tuple(row) for row in total_m) == problem.matches


def check_rating_identities(problem, sweep=EPSILON_SWEEP) -> None:
    s = row_sum(problem)
    assert sum(s.values) == 0

    q = least_squares(problem)
    lap = dense_laplacian(problem)
    assert matrix_apply(lap, q.values) == s.values
    for component in multigraph(problem).components:
        assert sum(q.values[i] for i in component) == 0

    n = problem.n
    depth = problem.max_multiplicity()
    for eps in sweep:
        x = generalized_row_sum(problem, eps)
        lhs = tuple(
            x.values[i] + eps * matrix_apply(lap, x.values)[i] for i in range(n)
        )
        rhs = tuple((1 + eps * depth * n) * v for v in s.values)
        assert lhs == rhs


def check_limit_refinement(problem) -> None:
    """Strict limit-method inequalities survive at the sweep endpoints."""
    if len(multigraph(problem).components) != 1:
        return
    s = row_sum(problem).values
    q = least_squares(problem).values
    low = generalized_row_sum(problem, Fraction(1, 10**6)).values
    high = generalized_row_sum(problem, Fraction(10**6)).values
    for i in range(problem.n):
        for j in range(problem.n):
            if s[i] > s[j]:
                assert low[i] > low[j]
            if q[i] > q[j]:
                assert high[i] > high[j]


def check_round_robin_agreement(problem, sweep=(Fraction(1, 10), Fraction(1), Fraction(10))) -> None:
    assert classify(problem).round_robin
    s = row_sum(problem)
    for eps in sweep:
        assert generalized_row_sum(problem, eps).values == s.values
    q = least_squares(problem)
    assert induce_ranking(q).levels == induce_ranking(s).levels


def check_equivariance(problem, perm) -> None:
    permuted = permute_problem(problem, perm)
    for scorer in (make_scorer("rowsum"), make_scorer("grs", Fraction(1, 3)), make_scorer("ls")):
        original = scorer(problem).values
        relabeled = scorer(permuted).values
        for i in range(problem.n):
            assert relabeled[perm[i]] == original[i]


def check_sign_flip(problem) -> None:
    flipped = negate_results(problem)
    for scorer in (make_scorer("rowsum"), make_scorer("grs", Fraction(2, 7)), make_scorer("ls")):
        assert scorer(flipped).values == tuple(-v for v in scorer(problem).values)


def check_self_consistency_suite(problem, sweep=EPSILON_SWEEP) -> None:
    scorers = [make_scorer("grs", eps) for eps in sweep] + [make_scorer("ls")]
    for scorer in scorers:
        assert check_sc(scorer, problem).verdict == SATISFIED
    assert check_wsc(make_scorer("rowsum"), problem).verdict == SATISFIED


def check_wsc_follows_sc(problem, scorer) -> None:
    if check_sc(scorer, problem).verdict == SATISFIED:
        assert check_wsc(scorer, problem).verdict == SATISFIED


def check_rowsum_independence(problem) -> None:
    if problem.n >= 4:
        assert search_iim_violation(make_scorer("rowsum"), problem).verdict == SATISFIED


def check_macrovertex_results_blind(problem) -> None:
    flipped = negate_results(problem)
    from pairrank.macrovertex import find_macrovertices

    assert find_macrovertices(problem) == find_macrovertices(flipped)
    for members in find_macrovertices(problem):
        assert is_macrovertex(flipped, members)


def check_no_mv_violations(problem, sweep=(Fraction(1, 10), Fraction(1), Fraction(10))) -> None:
    scorers = [make_scorer("rowsum")] + [make_scorer("grs", e) for e in sweep] + [make_scorer("ls")]
    for scorer in scorers:
        for which in ("mva", "mvi"):
            report = search_mv_violation(scorer, problem, which)
            assert report.verdict == SATISFIED
