"""Seeded random problem generators for the test and acceptance corpora.

Everything here is deterministic given the seed, so corpus-based checks
replay identically across runs and machines.
"""

from __future__ import annotations

import random

from pairrank.core import RankingProblem, multigraph, problem_from_results_matches
from pairrank.methods import least_squares, row_sum

__all__ = [
    "limit_corpus",
    "macrovertex_corpus",
    "random_problem",
    "random_round_robin",
    "random_with_macrovertex",
    "random_with_nested_macrovertices",
    "round_robin_corpus",
    "sc_corpus",
]


def random_problem(
    seed: int,
    n: int | None = None,
    *,
    edge_probability: float = 0.55,
    max_multiplicity: int = 3,
    connected: bool = False,
) -> RankingProblem:
    """Random sparse problem; multiplicities lean heavily toward one."""
    rng = random.Random(seed)
    size = n if n is not None else rng.randint(4, 8)
    while True:
        matches = [[0] * size for _ in range(size)]
        results = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() >= edge_probability:
                    continue
                mu = rng.choices(
                    range(1, max_multiplicity + 1),
                    weights=[8, 2, 1][:max_multiplicity],
                )[0]
                rho = rng.randint(-mu, mu)
                matches[i][j] = matches[j][i] = mu
                results[i][j] = rho
                results[j][i] = -rho
        problem = problem_from_results_matches(results, matches)
        if not connected or len(multigraph(problem).components) == 1:
            return problem


def random_round_robin(seed: int, n: int | None = None, max_multiplicity: int = 3) -> RankingProblem:
    """Every pair compared the same number of times, outcomes random."""
    rng = random.Random(seed)
    size = n if n is not None else rng.randint(3, 6)
    mu = rng.randint(1, max_multiplicity)
    matches = [[0 if i == j else mu for j in range(size)] for i in range(size)]
    results = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rho = rng.randint(-mu, mu)
            results[i][j] = rho
            results[j][i] = -rho
    return problem_from_results_matches(results, matches)


def random_with_macrovertex(seed: int, n: int | None = None) -> RankingProblem:
    """Random problem with a planted macrovertex of size two or three."""
    rng = random.Random(seed)
    size = n if n is not None else rng.randint(5, 7)
    base = random_problem(seed + 7_000_000, size, max_multiplicity=2)
    matches = [list(row) for row in base.matches]
    results = [list(row) for row in base.results]
    members = rng.sample(range(size), rng.randint(2, 3))
    for k in range(size):
        if k in members:
            continue
        common = rng.randint(0, 2)
        for i in members:
            matches[i][k] = matches[k][i] = common
            rho = rng.randint(-common, common) if common else 0
            results[i][k] = rho
            results[k][i] = -rho
    return problem_from_results_matches(results, matches)


def random_with_nested_macrovertices(seed: int, n: int | None = None) -> RankingProblem:
    """Random problem with a planted chain of nested macrovertices.

    Each set of the chain is a random proper subset, of two or more
    members, of the one before it (the first of all objects), and its
    members meet every object of the enclosing set outside it equally
    often, so every set of the chain is a macrovertex of the whole problem.
    """
    rng = random.Random(seed)
    size = n if n is not None else rng.randint(6, 14)
    base = random_problem(seed + 8_000_000, size, edge_probability=0.4)
    matches = [list(row) for row in base.matches]
    results = [list(row) for row in base.results]
    enclosing = list(range(size))
    while len(enclosing) > 2:
        members = rng.sample(enclosing, rng.randint(2, len(enclosing) - 1))
        for k in enclosing:
            if k in members:
                continue
            common = rng.randint(0, 3)
            for i in members:
                matches[i][k] = matches[k][i] = common
                rho = rng.randint(-common, common)
                results[i][k] = rho
                results[k][i] = -rho
        enclosing = members
    return problem_from_results_matches(results, matches)


_BASE = 49_201


def sc_corpus() -> list[RankingProblem]:
    """Mixed corpus for the self-consistency sweeps.

    Sparse problems of four to eight objects.  Multiplicities above one are
    kept rare so the per-pair decomposition search stays inside its budget.
    """
    problems = []
    for k in range(8):
        problems.append(random_problem(_BASE + k, 4 + k % 4, max_multiplicity=1, edge_probability=0.6))
    for k in range(5):
        problems.append(random_problem(_BASE + 100 + k, 4 + k % 3, max_multiplicity=2, edge_probability=0.5))
    problems.append(random_problem(_BASE + 205, 5, max_multiplicity=3, edge_probability=0.5))
    problems.append(random_problem(_BASE + 201, 8, max_multiplicity=1, edge_probability=0.4))
    return problems


def macrovertex_corpus() -> list[RankingProblem]:
    """Planted macrovertices plus round robins (where every pair is one)."""
    problems = [random_with_macrovertex(_BASE + 300 + k) for k in range(6)]
    problems.append(random_round_robin(_BASE + 310, 4, max_multiplicity=2))
    problems.append(random_round_robin(_BASE + 311, 5, max_multiplicity=1))
    return problems


def round_robin_corpus(count: int = 100) -> list[RankingProblem]:
    return [random_round_robin(_BASE + 400 + k, max_multiplicity=3) for k in range(count)]


def limit_corpus(count: int = 50) -> list[RankingProblem]:
    """Connected problems whose row-sum and least-squares ratings are tie-free.

    The parametric scores refine any rating tie at every positive coupling
    strength, so endpoint agreement with the inducing method's ranking is
    only meaningful when the limit ratings are themselves tie-free.
    """
    problems = []
    seed = _BASE + 500
    while len(problems) < count:
        candidate = random_problem(
            seed, 4 + seed % 3, max_multiplicity=2, edge_probability=0.7, connected=True
        )
        seed += 1
        s = row_sum(candidate).values
        q = least_squares(candidate).values
        if len(set(s)) == len(s) and len(set(q)) == len(q):
            problems.append(candidate)
    return problems
