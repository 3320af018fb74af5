"""Problem and weak-order operations that only the tests use.

Sums, negation, the tournament view and the canonical unit-match
decomposition of a problem, and constructors and predicates of weak orders
beyond what the package itself needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from pairrank.core import (
    InvalidProblemError,
    RankingProblem,
    RationalMatrix,
    canonical_split,
    problem_from_results_matches,
)
from pairrank.methods import WeakOrder


@dataclass(frozen=True)
class UnweightedDecomposition:
    """A split of a problem into layers whose multiplicities are all 0 or 1.

    Layer results and matches re-sum exactly to the parent matrices.
    """

    layers: tuple[RankingProblem, ...]
    parent_fingerprint: str


def tournament(problem: RankingProblem) -> RationalMatrix:
    """The score matrix T with T + T^t = matches and T - T^t = results."""
    return tuple(
        tuple((problem.results[i][j] + problem.matches[i][j]) / 2 for j in range(problem.n))
        for i in range(problem.n)
    )


def sum_problems(left: RankingProblem, right: RankingProblem) -> RankingProblem:
    """Entrywise sum of two problems over the same object set."""
    if left.n != right.n:
        raise InvalidProblemError(f"cannot sum problems with {left.n} and {right.n} objects")
    n = left.n
    results = [
        [left.results[i][j] + right.results[i][j] for j in range(n)] for i in range(n)
    ]
    matches = [
        [left.matches[i][j] + right.matches[i][j] for j in range(n)] for i in range(n)
    ]
    return problem_from_results_matches(results, matches)


def canonical_unweighted_decomposition(problem: RankingProblem) -> UnweightedDecomposition:
    """Split a problem into ``max_multiplicity`` layers with 0/1 matches.

    Each pair's matches occupy the first ``matches[i][j]`` layers and its
    integer result is spread by :func:`canonical_split`.  Layers re-sum to
    the parent exactly.  Requires integer results.
    """
    if not problem.has_integer_results():
        raise InvalidProblemError("decomposition requires integer results")
    n = problem.n
    depth = problem.max_multiplicity()
    layer_r = [[[Fraction(0)] * n for _ in range(n)] for _ in range(depth)]
    layer_m = [[[0] * n for _ in range(n)] for _ in range(depth)]
    for i in range(n):
        for j in range(i + 1, n):
            mu = problem.matches[i][j]
            if mu == 0:
                continue
            parts = canonical_split(int(problem.results[i][j]), mu)
            for p in range(mu):
                layer_m[p][i][j] = layer_m[p][j][i] = 1
                layer_r[p][i][j] = Fraction(parts[p])
                layer_r[p][j][i] = -Fraction(parts[p])
    layers = tuple(
        problem_from_results_matches(layer_r[p], layer_m[p]) for p in range(depth)
    )
    return UnweightedDecomposition(layers=layers, parent_fingerprint=problem.fingerprint)


def negate_results(problem: RankingProblem) -> RankingProblem:
    """Flip every outcome while keeping the comparison structure."""
    results = tuple(tuple(-x for x in row) for row in problem.results)
    return problem_from_results_matches(results, problem.matches)


def order_from_groups(groups: Sequence[Sequence[int]]) -> WeakOrder:
    """The weak order listing ``groups`` best first, each group one tie."""
    levels: dict[int, int] = {}
    for level, group in enumerate(groups):
        for i in group:
            if i in levels:
                raise ValueError(f"object {i} listed twice")
            levels[i] = level
    return WeakOrder(tuple(levels[i] for i in range(len(levels))))


def tied(order: WeakOrder, i: int, j: int) -> bool:
    return order.levels[i] == order.levels[j]


def ranks_above(order: WeakOrder, i: int, j: int) -> bool:
    """Strict preference of i over j."""
    return order.levels[i] < order.levels[j]


def ranks_at_least(order: WeakOrder, i: int, j: int) -> bool:
    """Weak preference of i over j."""
    return order.levels[i] <= order.levels[j]


def reversed_order(order: WeakOrder) -> WeakOrder:
    top = max(order.levels)
    return WeakOrder(tuple(top - level for level in order.levels))
