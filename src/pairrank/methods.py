"""Scoring procedures and the rating-to-ranking step.

Three scorers are provided: plain row sums of the results matrix, the
parametric correction solving ``(I + eps*L) x = (1 + eps*m*n) s``, and the
least-squares scores solving ``L q = s`` with a zero-sum constraint per
connected component.  Both systems are built in integers straight from the
match counts, one sparse row per object, and every solve is exact, so
induced rankings have true ties rather than tolerance artifacts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Sequence

from .core import (
    RankingProblem,
    laplacian,  # noqa: F401 -- perfbench/tracer.py rebinds this module's copy
    multigraph,
    object_label,
)
from .linalg import solve_linear_system

__all__ = [
    "RatingVector",
    "Scorer",
    "WeakOrder",
    "generalized_row_sum",
    "induce_ranking",
    "iter_weak_orders",
    "least_squares",
    "make_scorer",
    "row_sum",
]


@dataclass(frozen=True)
class RatingVector:
    """One exact rational score per object, tagged with its origin."""

    values: tuple[Fraction, ...]
    method: str
    problem: RankingProblem = field(repr=False)
    note: str = ""

    @property
    def fingerprint(self) -> str:
        """Digest of the rated problem, hashed only when read."""
        return self.problem.fingerprint

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]


@dataclass(frozen=True)
class WeakOrder:
    """A complete transitive order with ties, stored as contiguous levels.

    ``levels[i]`` is object i's level; 0 is best and equal levels mean ties.
    """

    levels: tuple[int, ...]

    def __post_init__(self):
        used = set(self.levels)
        if used != set(range(len(used))):
            raise ValueError(f"levels must be contiguous from 0: {self.levels!r}")

    @classmethod
    def from_ratings(cls, values: Sequence[Fraction]) -> "WeakOrder":
        distinct = sorted(set(values), reverse=True)
        position = {v: k for k, v in enumerate(distinct)}
        return cls(tuple(position[v] for v in values))

    @property
    def n(self) -> int:
        return len(self.levels)

    def groups(self) -> tuple[tuple[int, ...], ...]:
        depth = max(self.levels) + 1
        out: list[list[int]] = [[] for _ in range(depth)]
        for i, level in enumerate(self.levels):
            out[level].append(i)
        return tuple(tuple(g) for g in out)

    def ranks_above(self, i: int, j: int) -> bool:
        """Strict preference of i over j."""
        return self.levels[i] < self.levels[j]

    def ranks_at_least(self, i: int, j: int) -> bool:
        """Weak preference of i over j."""
        return self.levels[i] <= self.levels[j]

    def format(self, labels: Sequence[str] | None = None) -> str:
        names = labels if labels is not None else [object_label(i) for i in range(self.n)]
        parts = []
        for group in self.groups():
            text = " ~ ".join(names[i] for i in group)
            parts.append(f"({text})" if len(group) > 1 else text)
        return " > ".join(parts)


def _set_partitions(n: int) -> Iterator[list[list[int]]]:
    """All set partitions of range(n), blocks ordered by first element."""
    if n == 0:
        yield []
        return
    blocks: list[list[int]] = []

    def place(t: int) -> Iterator[list[list[int]]]:
        if t == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(t)
            yield from place(t + 1)
            b.pop()
        blocks.append([t])
        yield from place(t + 1)
        blocks.pop()

    yield from place(0)


def iter_weak_orders(n: int) -> Iterator[WeakOrder]:
    """Enumerate every weak order on n objects, deterministically.

    Counts follow the Fubini numbers: 1, 3, 13, 75, 541, 4683 for n = 1..6.
    """
    return map(WeakOrder, iter_weak_order_levels(n))


def iter_weak_order_levels(n: int) -> Iterator[tuple[int, ...]]:
    """The ``levels`` of every weak order on n objects, in the order of
    :func:`iter_weak_orders`."""
    for blocks in _set_partitions(n):
        for ordering in itertools.permutations(range(len(blocks))):
            levels = [0] * n
            for level, bi in enumerate(ordering):
                for obj in blocks[bi]:
                    levels[obj] = level
            yield tuple(levels)


def row_sum(problem: RankingProblem) -> RatingVector:
    """Score each object by the sum of its results row."""
    return RatingVector(values=problem.row_sums, method="rowsum", problem=problem)


def generalized_row_sum(problem: RankingProblem, epsilon) -> RatingVector:
    """Row sums corrected by opponent scores at coupling strength ``epsilon > 0``.

    Unique exact solution of ``(I + eps*L) x = (1 + eps*m*n) s`` where m is the
    maximal multiplicity; the matrix is positive definite, so always solvable.
    It is solved in integers, as ``(den*I + num*L) x = (den + num*m*n) s``
    for ``eps = num/den``, with the denominators of s cleared once.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    num, den = eps.numerator, eps.denominator
    factor = den + num * problem.max_multiplicity() * problem.n
    scale, s = _cleared(problem.row_sums)
    values = solve_linear_system(_grs_rows(problem, num, den), [factor * v for v in s])
    if scale != 1:
        values = tuple(v / scale for v in values)
    return RatingVector(values=values, method=f"grs({eps})", problem=problem)


def least_squares(problem: RankingProblem) -> RatingVector:
    """Scores solving ``L q = s`` with zero-sum normalization per component.

    On each connected component C one member is grounded (its rating set to
    0) and the reduced Laplacian, nonsingular on a connected component, is
    solved sparsely; subtracting the mean then gives the unique solution
    with ``sum(q_C) == 0``, which still solves ``L q = s`` because ``s``
    sums to zero over every component.  Ratings of objects in different
    components are comparable only by convention; such outputs carry an
    explanatory note.
    """
    n = problem.n
    s = problem.row_sums
    graph = multigraph(problem)
    values: list[Fraction] = [Fraction(0)] * n
    for component in graph.components:
        scale, rhs = _cleared([s[a] for a in component[1:]])
        grounded = (Fraction(0), *solve_linear_system(_grounded_rows(problem, graph, component), rhs))
        mean = sum(grounded, Fraction(0)) / len(component)
        for a, value in zip(component, grounded):
            values[a] = (value - mean) / scale
    note = "" if len(graph.components) == 1 else "unconnected: cross-component order is conventional"
    return RatingVector(values=tuple(values), method="ls", problem=problem, note=note)


def _grs_rows(problem: RankingProblem, num: int, den: int) -> list[dict[int, int]]:
    """The integer rows ``den*I + num*L`` of the GRS system."""
    rows = []
    for i, matches in enumerate(problem.matches):
        row = {j: -num * mu for j, mu in enumerate(matches) if mu}
        row[i] = den + num * sum(matches)
        rows.append(row)
    return rows


def _grounded_rows(problem: RankingProblem, graph, component: Sequence[int]) -> list[dict[int, int]]:
    """The Laplacian rows of a component with its first member grounded:
    one row and column per other member, in component order."""
    index = {a: k for k, a in enumerate(component[1:])}
    rows = []
    for a in component[1:]:
        row = {index[b]: -mu for b, mu in enumerate(problem.matches[a]) if mu and b in index}
        row[index[a]] = graph.degrees[a]
        rows.append(row)
    return rows


def _cleared(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The common denominator of the values, and the values times it."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def induce_ranking(ratings: RatingVector | Sequence[Fraction]) -> WeakOrder:
    """Weak order by strictly decreasing rating; exact equality means a tie."""
    values = ratings.values if isinstance(ratings, RatingVector) else tuple(ratings)
    return WeakOrder.from_ratings(values)


# The ratings of one single-pair change (result, matches) as integer keys
# on one positive common denominator, or None when there is no closed form.
Variant = Callable[[Fraction, int], list[int] | None]
# A pair update: built once from a base problem and its ratings (None when
# it has no closed form there), then asked for each changed pair (a, b).
PairUpdate = Callable[[RankingProblem, RatingVector], Callable[[int, int], Variant] | None]


@dataclass(frozen=True)
class Scorer:
    """A named, reusable scoring procedure, with its closed-form single-pair
    update when it has one."""

    tag: str
    fn: Callable[[RankingProblem], RatingVector] = field(repr=False)
    pair_update: PairUpdate | None = field(default=None, repr=False)

    def __call__(self, problem: RankingProblem) -> RatingVector:
        return self.fn(problem)


def make_scorer(method: str, epsilon=None) -> Scorer:
    """Build a scorer from a CLI-style name: rowsum, grs (needs epsilon), or ls."""
    if method == "rowsum":
        return Scorer(tag="rowsum", fn=row_sum, pair_update=_row_sum_update)
    if method == "grs":
        if epsilon is None:
            raise ValueError("grs requires an epsilon")
        eps = Fraction(epsilon)
        if eps <= 0:
            raise ValueError(f"epsilon must be positive, got {eps}")
        return Scorer(
            tag=f"grs({eps})",
            fn=lambda p: generalized_row_sum(p, eps),
            pair_update=lambda p, base: _grs_update(p, base, eps),
        )
    if method == "ls":
        return Scorer(tag="ls", fn=least_squares, pair_update=_least_squares_update)
    raise ValueError(f"unknown method {method!r}; expected rowsum, grs, or ls")


# Single-pair updates.  Changing pair (a, b) to (result r2, matches m2) adds
# delta*u*u^T to the system matrix and dr*u to the row sums, u = e_a - e_b.
# By Sherman-Morrison the new solution is x + c*z, z solving A z = u, with
#     c = (f*dr - delta*(x_a - x_b)) / (1 + delta*(z_a - z_b)),
# f the right-hand-side factor.  So each pair needs one solve for z, and each
# of its variants only O(n) integer work.  Row sums are the case A = I.


def _row_sum_update(problem: RankingProblem, base: RatingVector):
    return _pair_update(problem, base, lambda a, b: _unit(problem.n, a, b), num=0)


def _least_squares_update(problem: RankingProblem, base: RatingVector):
    """LS ratings are x + constant for the grounded solution x of L x = s.
    A disconnected base, or a change that disconnects (1 + delta*w == 0, a
    bridge removed), changes the per-component normalisation: no closed
    form there."""
    graph = multigraph(problem)
    if len(graph.components) > 1:
        return None
    rows = _grounded_rows(problem, graph, graph.components[0])
    return _pair_update(
        problem, base, lambda a, b: (0, *solve_linear_system(rows, _unit(problem.n, a, b)[1:]))
    )


def _grs_update(problem: RankingProblem, base: RatingVector, eps: Fraction):
    """The GRS factor f = den + num*m*n moves with the maximal multiplicity
    m; that rescales the solution by a positive factor, which keeps ranks."""
    num, den = eps.numerator, eps.denominator
    rows = _grs_rows(problem, num, den)
    factor = den + num * problem.max_multiplicity() * problem.n
    return _pair_update(
        problem, base, lambda a, b: solve_linear_system(rows, _unit(problem.n, a, b)), factor, num
    )


def _unit(n: int, a: int, b: int) -> list[int]:
    return [(k == a) - (k == b) for k in range(n)]


def _pair_update(problem, base, solve, factor=1, num=1):
    """``pair(a, b)``, giving the variant of each change of (a, b): the
    integer keys of ``base + c*z`` on one positive denominator, z =
    ``solve(a, b)`` and the change's delta ``num * (m2 - m)``; None when the
    change disconnects."""
    xscale, xs = _cleared(base.values)

    def pair(a: int, b: int) -> Variant:
        z = solve(a, b)
        zscale, zs = _cleared(z)
        xz = [x * zscale for x in xs]
        zx = [v * xscale for v in zs]
        w, gap = z[a] - z[b], base[a] - base[b]
        old_result, old_count = problem.results[a][b], problem.matches[a][b]

        def keys(r2, m2):
            delta = num * (m2 - old_count)
            scale = 1 + delta * w
            if scale == 0:
                return None
            c = Fraction(factor * (r2 - old_result) - delta * gap) / scale
            return [x * c.denominator + v * c.numerator for x, v in zip(xz, zx)]

        return keys

    return pair
