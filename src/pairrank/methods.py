"""Scoring procedures and the rating-to-ranking step.

Three scorers are provided: plain row sums of the results matrix, the
parametric correction solving ``(I + eps*L) x = (1 + eps*m*n) s``, and the
least-squares scores solving ``L q = s`` with a zero-sum constraint per
connected component.  Both systems are built in integers from the sparse
Laplacian rows of :func:`pairrank.core.laplacian`, and every solve is exact,
so induced rankings have true ties rather than tolerance artifacts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Callable, Iterator, Sequence

from .core import RankingProblem, laplacian, multigraph, object_label
from .linalg import factor, solve_linear_system

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

    def format(self, labels: Sequence[str] | None = None) -> str:
        names = labels if labels is not None else [object_label(i) for i in range(self.n)]
        groups: list[list[str]] = [[] for _ in range(max(self.levels, default=-1) + 1)]
        for name, level in zip(names, self.levels):
            groups[level].append(name)
        return " > ".join([f"({' ~ '.join(group)})" if len(group) > 1 else group[0] for group in groups])


def iter_weak_orders(n: int) -> Iterator[WeakOrder]:
    """Enumerate every weak order on n objects, deterministically.

    Counts follow the Fubini numbers: 1, 3, 13, 75, 541, 4683 for n = 1..6.
    """
    return map(WeakOrder, iter_weak_order_levels(n))


def iter_weak_order_levels(n: int) -> Iterator[tuple[int, ...]]:
    """The ``levels`` of every weak order on n objects, in the order of
    :func:`iter_weak_orders`: the rows of :func:`weak_order_columns`."""
    return zip(*weak_order_columns(n)) if n else iter([()])


@cache
def weak_order_columns(n: int) -> tuple[bytes, ...]:
    """Every weak order on n objects, one byte string per object: byte x of
    column k is object k's level in the x-th order.

    Set partitions come as restricted-growth strings (object i's block, the
    blocks numbered by first member) in lexicographic order; each partition
    gives one weak order per ordering of its blocks, best block first, in
    ``itertools.permutations`` order.  A partition's stretch of a column is
    therefore the levels its object's block takes across those orderings.
    """
    strings = [()]
    for _ in range(n):
        strings = [(*g, b) for g in strings for b in range(max(g, default=-1) + 2)]
    stretches = [
        [bytes(order.index(block) for order in itertools.permutations(range(count))) for block in range(count)]
        for count in range(n + 1)
    ]
    return tuple(b"".join(stretches[max(g) + 1][g[k]] for g in strings) for k in range(n))


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
    rows, f = _grs_system(problem, eps)
    scale, s = _cleared(problem.row_sums)
    values = solve_linear_system(rows, [f * v for v in s])
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
    lap = laplacian(problem)
    values: list[Fraction] = [Fraction(0)] * n
    for component in graph.components:
        scale, rhs = _cleared([s[a] for a in component[1:]])
        grounded = (Fraction(0), *solve_linear_system(_grounded_rows(lap, component), rhs))
        mean = sum(grounded, Fraction(0)) / len(component)
        for a, value in zip(component, grounded):
            values[a] = (value - mean) / scale
    note = "" if len(graph.components) == 1 else "unconnected: cross-component order is conventional"
    return RatingVector(values=tuple(values), method="ls", problem=problem, note=note)


def _grs_system(problem: RankingProblem, eps: Fraction) -> tuple[list[dict[int, int]], int]:
    """The integer rows ``den*I + num*L`` of the GRS system for ``eps =
    num/den``, and its right-hand-side factor ``f = den + num*m*n``."""
    num, den = eps.numerator, eps.denominator
    lap = laplacian(problem)
    rows = [{j: num * v + den * (i == j) for j, v in row.items()} for i, row in enumerate(lap)]
    return rows, den + num * problem.max_multiplicity() * problem.n


def _grounded_rows(lap: list[dict[int, int]], component: Sequence[int]) -> list[dict[int, int]]:
    """The Laplacian rows of a component with its first member grounded:
    one row and column per other member, in component order."""
    index = {a: k for k, a in enumerate(component[1:])}
    return [{index[b]: v for b, v in lap[a].items() if b in index} for a in component[1:]]


def _cleared(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The common denominator of the values, and the values times it."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def induce_ranking(ratings: RatingVector) -> WeakOrder:
    """Weak order by strictly decreasing rating; exact equality means a tie."""
    return WeakOrder.from_ratings(ratings.values)


# The ratings of the watched objects after one single-pair change (result,
# matches): one integer key per watched object, in the order they were asked
# for, on one positive common denominator; None when there is no closed form.
Variant = Callable[[int, int], list[int] | None]
# A pair update: built once from a base problem and its ratings (None when
# it has no closed form there), then asked for each changed pair (a, b) and
# the objects a sweep watches under it.
PairUpdate = Callable[[RankingProblem, RatingVector], Callable[[int, int, Sequence[int]], Variant] | None]


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
# f the right-hand-side factor.  z is the difference of two columns of
# G = A^-1, G e_a - G e_b, so a sweep factors A once and makes one lifted
# solve per object that a changed pair touches, at most n; each variant is
# then one integer key per watched object.  Row sums are the case A = I,
# with no solve.


def _row_sum_update(problem: RankingProblem, base: RatingVector):
    return _pair_update(problem, base, lambda x: _unit(problem.n, x), num=0)


def _least_squares_update(problem: RankingProblem, base: RatingVector):
    """LS ratings are x + constant for the grounded solution x of L x = s,
    whose column for the grounded object 0 is zero.  A disconnected base,
    or a change that disconnects (1 + delta*w == 0, a bridge removed),
    changes the per-component normalisation: no closed form there."""
    graph = multigraph(problem)
    if len(graph.components) > 1:
        return None
    n = problem.n
    solve = factor(_grounded_rows(laplacian(problem), graph.components[0])).solve
    return _pair_update(problem, base, lambda x: (0, *solve(_unit(n - 1, x - 1))) if x else (0,) * n)


def _grs_update(problem: RankingProblem, base: RatingVector, eps: Fraction):
    """The GRS factor f = den + num*m*n moves with the maximal multiplicity
    m; that rescales the solution by a positive factor, which keeps ranks."""
    rows, f = _grs_system(problem, eps)
    solve = factor(rows).solve
    return _pair_update(problem, base, lambda x: solve(_unit(problem.n, x)), f, eps.numerator)


def _unit(n: int, x: int) -> list[int]:
    return [int(k == x) for k in range(n)]


def _pair_update(problem, base, column, f=1, num=1):
    """``pair(a, b, watched)``, giving the variant of each change of (a, b):
    one integer key per watched object, in ``watched`` order, ranking as
    ``base + c*z`` does, z = ``column(a) - column(b)`` and the change's delta
    ``num * (m2 - m)``; None when the change disconnects.  Only a, b and the
    watched objects are read off z.  Each column is computed on first use
    and kept for the sweep."""
    xscale, xs = _cleared(base.values)
    cleared_column = cache(lambda x: _cleared(column(x)))

    def pair(a: int, b: int, watched: Sequence[int]) -> Variant:
        (ascale, za), (bscale, zb) = cleared_column(a), cleared_column(b)
        zscale = lcm(ascale, bscale)
        fa, fb = zscale // ascale, zscale // bscale
        gx = xs[a] - xs[b]
        gz = (za[a] - za[b]) * fa - (zb[a] - zb[b]) * fb
        xw = [xs[k] for k in watched]
        zw = [za[k] * fa - zb[k] * fb for k in watched]
        old_result, old_count = problem.results[a][b], problem.matches[a][b]
        on, od = old_result.numerator, old_result.denominator

        # With x = xs/xscale, z = zs/zscale for zs = za*fa - zb*fb, and
        # r2 - old_result = dn/dd, the ratings x + c*z times dd * xscale * |d|
        # > 0 are xs*s + zs*t, where d = zscale * (1 + delta*w); xw and zw
        # hold xs and zs at the watched objects.
        def keys(r2, m2):
            delta = num * (m2 - old_count)
            d = zscale + delta * gz
            if d == 0:
                return None
            dn, dd = r2.numerator * od - on * r2.denominator, r2.denominator * od
            s = dd * abs(d)
            t = f * dn * xscale - delta * dd * gx
            if d < 0:
                t = -t
            return [x * s + v * t for x, v in zip(xw, zw)]

        return keys

    return pair
