"""Scoring procedures and the rating-to-ranking step.

Three scorers are provided: plain row sums of the results matrix, the
parametric correction solving ``(I + eps*L) x = (1 + eps*m*n) s``, and the
least-squares scores solving ``L q = s`` with a zero-sum constraint per
connected component.  Both systems are built in integers from the sparse
Laplacian rows of :func:`pairrank.core.laplacian`, and every solve is exact,
so induced rankings have true ties rather than tolerance artifacts.  A
scorer is any function from a problem to a :class:`RatingVector`; each of
the three solves once and returns ratings carrying their closed-form
single-pair update, built from that solve's factorization.
:func:`make_scorer` picks one by its command-line name.

A weak order is a tuple of levels, one per object: 0 is best and equal
levels are ties.  :func:`induce_ranking` and :func:`iter_weak_orders` give
contiguous levels; :func:`order_groups` and :func:`format_order` read any.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import factorial, lcm
from typing import Callable, Iterable, Iterator, Sequence

from .core import RankingProblem, _cleared, _fraction, laplacian, multigraph, object_label

__all__ = [
    "RatingVector",
    "format_order",
    "generalized_row_sum",
    "induce_ranking",
    "iter_weak_orders",
    "least_squares",
    "make_scorer",
    "order_groups",
    "row_sum",
]

_linalg = None  # bound on the first solve


def solve_linear_system(rows, b):
    """`pairrank.linalg.solve_linear_system`, with `linalg` imported on the first solve:
    row sums, SC checks and the Theorem 3.1 trace never compile the solver.  Callers
    look this name up at call time, so a rebinding of it sees every solve."""
    global _linalg
    if _linalg is None:
        from . import linalg as _linalg
    return _linalg.solve_linear_system(rows, b)


@dataclass(frozen=True)
class RatingVector:
    """One exact rational score per object, tagged with its origin.

    ``pair_update``, the closed-form single-pair update (:func:`_pair_update`,
    with its ``level`` query) or None, takes no part in equality, hashing or
    repr.  It keeps the solve's factorization for the columns it solves when
    asked: on a 150-team Swiss table LS ratings hold 36 KB without it and
    425 KB with it, about 200 KB of which are the solver's packed L and U
    columns, 90 KB A's columns packed for the lifting residual and 70 KB
    A's rows; a first column brings them to 452 KB, and 12 to 736 KB.
    The CLI drops its ratings when each command ends.
    """

    values: tuple[Fraction, ...]
    method: str
    problem: RankingProblem = field(repr=False)
    note: str = ""
    pair_update: Callable | None = field(default=None, repr=False, compare=False)

    @property
    def fingerprint(self) -> str:
        """Digest of the rated problem, hashed only when read."""
        return self.problem.fingerprint

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]


def _ranks(values: Sequence[Fraction]) -> list[int]:
    """Dense ascending rank of each value, so exact comparisons become int
    ones; the values are sorted as integers over their common denominator."""
    _, keys = _cleared(values)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = [0] * len(keys)
    for prev, cur in zip(order, order[1:]):
        ranks[cur] = ranks[prev] + (keys[cur] != keys[prev])
    return ranks


def iter_weak_orders(n: int) -> Iterator[tuple[int, ...]]:
    """Every weak order on n objects, deterministically: the keys of
    :func:`weak_order_lines`.

    Counts follow the Fubini numbers: 1, 3, 13, 75, 541, 4683 for n = 1..6.
    Past six objects, the enumeration limit, the levels are built for this call only.
    """
    return iter(weak_order_lines(n)) if n <= 6 else zip(*_level_columns.__wrapped__(n)[1])


def order_groups(levels: Sequence[int]) -> list[list[int]]:
    """The objects on each distinct level, best (lowest) level first, in
    index order within a level."""
    return list(_grouped(levels, range(len(levels))))


def format_order(levels: Sequence[int], labels: Sequence[str] | None = None) -> str:
    """The order as text, best first and ties in parentheses: ``X4 > (X1 ~ X2) > X3``."""
    names = labels if labels is not None else [object_label(i) for i in range(len(levels))]
    return " > ".join(map(_written, _grouped(levels, names)))


def _written(group: Sequence[str]) -> str:
    """One level of an order as text: a tie in parentheses."""
    return f"({' ~ '.join(group)})" if len(group) > 1 else group[0]


def _grouped(levels: Sequence[int], items: Iterable) -> Iterable[list]:
    """The items, one per object, grouped by the objects' levels, in the
    order of the sorted distinct levels (a plain loop: on six objects it is
    faster than a comprehension or a set)."""
    groups: dict[int, list] = {}
    for level in sorted(levels):
        groups[level] = []
    for item, level in zip(items, levels):
        groups[level].append(item)
    return groups.values()


@cache
def weak_order_lines(n: int) -> dict[tuple[int, ...], str]:
    """Every weak order on n objects, its levels mapped to its text as a
    ``str.format`` template over the objects' labels: ``(1, 1, 2, 0)`` maps
    to ``"{3} > ({0} ~ {1}) > {2}"``, as :func:`format_order` writes it.
    A partition's lines order its blocks' texts as :func:`_level_columns`
    orders its levels.  Read only: every caller on n objects shares it."""
    strings, columns = _level_columns(n)
    fields = [f"{{{k}}}" for k in range(n)]
    blocks = (map(_written, _grouped(g, fields)) for g in strings)
    lines = itertools.chain.from_iterable(map(" > ".join, itertools.permutations(b)) for b in blocks)
    return dict(zip(zip(*columns) if n else [()], lines))


@cache
def _level_columns(n: int) -> tuple[list[tuple[int, ...]], list[bytes]]:
    """The set partitions of n objects and each object's levels across every
    weak order on them, one byte per order in :func:`weak_order_lines` order.
    A partition is a restricted-growth string g (object k's block g[k], the
    blocks numbered by first member), in lexicographic order, and gives one
    weak order per ordering of its blocks, best block first, in
    ``itertools.permutations`` order: object k's levels across those
    orderings are the stretch of its block.  Orderings of c blocks run
    through the best block f, each followed by those of the rest: a stretch
    is zeros where f is its block and, one level lower, a stretch of c - 1
    blocks elsewhere.  Read only and shared, as the table is."""
    lower = bytes(range(1, 256)) + b"\0"
    stretches, strings = [[]], [()]
    for c in range(1, n + 1):
        fewer, zeros = stretches[-1], bytes(factorial(c - 1))
        runs = [[zeros if f == b else fewer[b - (b > f)].translate(lower) for f in range(c)] for b in range(c)]
        stretches.append(list(map(b"".join, runs)))
        strings = [(*g, b) for g in strings for b in range(max(g, default=-1) + 2)]
    return strings, list(map(b"".join, zip(*[map(stretches[max(g, default=-1) + 1].__getitem__, g) for g in strings])))


def row_sum(problem: RankingProblem) -> RatingVector:
    """Score each object by the sum of its results row."""
    update = _pair_update(problem, *_cleared(problem.row_sums), lambda x: (1, _unit(problem.n, x)), num=0)
    return RatingVector(values=problem.row_sums, method="rowsum", problem=problem, pair_update=update)


def generalized_row_sum(problem: RankingProblem, epsilon) -> RatingVector:
    """Row sums corrected by opponent scores at coupling strength ``epsilon > 0``.

    Unique exact solution of ``(I + eps*L) x = (1 + eps*m*n) s`` where m is the
    maximal multiplicity; the matrix is positive definite, so always solvable.
    It is solved in integers, as ``(den*I + num*L) x = (den + num*m*n) s``
    for ``eps = num/den``, with the denominators of s cleared once.  A change
    of m rescales the solution by a positive factor, which keeps ranks.
    """
    eps = _epsilon(epsilon)
    rows, f = _grs_system(problem, eps)
    scale, s = _cleared(problem.row_sums)
    factorization, (d, solution) = solve_linear_system(rows, [f * v for v in s])
    column = lambda x: factorization.solve(_unit(problem.n, x))
    update = _pair_update(problem, d * scale, solution, column, f, eps.numerator)
    values = tuple(Fraction(v, d * scale) for v in solution)
    return RatingVector(values=values, method=f"grs({eps})", problem=problem, pair_update=update)


def least_squares(problem: RankingProblem) -> RatingVector:
    """Scores solving ``L q = s`` with zero-sum normalization per component.

    On each connected component C one member is grounded (its rating set to
    0) and the reduced Laplacian, nonsingular on a connected component, is
    solved sparsely; subtracting the mean then gives the unique solution
    with ``sum(q_C) == 0``, which still solves ``L q = s`` because ``s``
    sums to zero over every component: x + constant for the grounded
    solution x, whose column for the grounded object 0 is zero.  Ratings of
    objects in different components are comparable only by convention; such
    outputs carry an explanatory note and no pair update, as a change that
    joins or splits components changes the per-component normalisation.
    """
    graph, lap, s = multigraph(problem), laplacian(problem), problem.row_sums
    values: list[Fraction] = [Fraction(0)] * problem.n
    for component in graph.components:
        scale, rhs = _cleared([s[a] for a in component[1:]])
        factorization, (gscale, grounded) = solve_linear_system(_grounded_rows(lap, component), rhs)
        # rating = (g/gscale - mean) / scale, mean = sum(g) / (k * gscale)
        k, total = len(component), sum(grounded)
        xscale, xs = k * gscale * scale, [k * g - total for g in (0, *grounded)]
        for a, x in zip(component, xs):
            values[a] = Fraction(x, xscale)
    if len(graph.components) != 1:
        note = "unconnected: cross-component order is conventional"
        return RatingVector(values=tuple(values), method="ls", problem=problem, note=note)

    def column(x):
        zscale, z = factorization.solve(_unit(problem.n - 1, x - 1)) if x else (1, [0] * (problem.n - 1))
        return zscale, (0, *z)

    update = _pair_update(problem, xscale, xs, column)
    return RatingVector(values=tuple(values), method="ls", problem=problem, pair_update=update)


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


def induce_ranking(ratings: RatingVector) -> tuple[int, ...]:
    """The weak order by strictly decreasing rating, exact equality a tie:
    the dense ranks, top down."""
    ranks = _ranks(ratings.values)
    top = max(ranks, default=0)
    return tuple(top - rank for rank in ranks)


def _epsilon(epsilon) -> Fraction:
    """The GRS coupling strength as a positive `Fraction`, read as a cell is."""
    try:
        eps = _fraction(epsilon)
    except (ArithmeticError, TypeError, ValueError):
        raise ValueError(f"epsilon must be a rational number, got {epsilon!r}") from None
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return eps


def make_scorer(method: str, epsilon=None) -> Callable[[RankingProblem], RatingVector]:
    """The scorer of a CLI-style name: ``row_sum`` for rowsum, ``least_squares``
    for ls, and for grs ``generalized_row_sum`` at ``epsilon``, which it needs."""
    if method == "rowsum":
        return row_sum
    if method == "grs":
        if epsilon is None:
            raise ValueError("grs requires an epsilon")
        return partial(generalized_row_sum, epsilon=_epsilon(epsilon))
    if method == "ls":
        return least_squares
    raise ValueError(f"unknown method {method!r}; expected rowsum, grs, or ls")


def _unit(n: int, x: int) -> list[int]:
    return [int(k == x) for k in range(n)]


def _pair_update(problem, xscale, xs, column, f=1, num=1):
    """``pair(a, b, watched)`` for the ratings ``xs / xscale`` that solve
    ``A x = f s``, in integers as the solve gives them (any positive scale
    ranks alike).  Changing pair (a, b) to (result r2, matches m2) adds
    delta*u*u^T to A and dr*u to s, u = e_a - e_b, delta = ``num * (m2 - m)``.
    By Sherman-Morrison the new solution is x + c*z, z solving A z = u, with
    ``c = (f*dr - delta*(x_a - x_b)) / (1 + delta*(z_a - z_b))``, and z is
    ``column(a) - column(b)``, ``column(x)`` being G e_x for G = A^-1 as a
    solve gives it: A is factored once, for the ratings and the columns
    alike, each column solved on first use and kept.  Row sums are A = I.

    All changes of a pair lie on one line: ``pair`` gives x and z there as
    integers, one of each per watched object in the order asked for, and
    ``variant(r2, m2)``, the (s, t), s > 0, for which the watched objects'
    new ratings rank as their keys x*s + z*t do, or None where the change
    has no closed form.  ``pair.level(a, b, watched)`` tells, before any of
    that is built, whether no change of the pair can reorder the watched
    objects: z takes one value on them, so every key x*s + z*t ranks them
    as x does, and every match count a change takes has a line.
    """
    column = cache(column)

    def difference(a: int, b: int):
        """z = (za*fa - zb*fb) / zscale, and gz = zscale * (z_a - z_b)."""
        (ascale, za), (bscale, zb) = column(a), column(b)
        zscale = lcm(ascale, bscale)
        fa, fb = zscale // ascale, zscale // bscale
        return zscale, za, fa, zb, fb, (za[a] - za[b]) * fa - (zb[a] - zb[b]) * fb

    def pair(a: int, b: int, watched: Sequence[int]):
        zscale, za, fa, zb, fb, gz = difference(a, b)
        gx = xs[a] - xs[b]
        old_result, old_count = problem.results[a][b], problem.matches[a][b]
        on, od = old_result.numerator, old_result.denominator

        # With x = xs/xscale, z = zs/zscale for zs = za*fa - zb*fb, and
        # r2 - old_result = dn/dd, the ratings x + c*z times dd * xscale * d
        # are xs*s + zs*t, where d = zscale * (1 + delta*w) = zscale * det A'/det A
        # is never negative: A' is positive definite (GRS) or a reduced Laplacian,
        # whose determinant counts spanning trees (LS, Kirchhoff), or num = 0
        # (row sums).  At d == 0 (LS, a bridge removed) there is no line.
        def variant(r2, m2):
            delta = num * (m2 - old_count)
            d = zscale + delta * gz
            if d <= 0:
                return None
            dn, dd = r2.numerator * od - on * r2.denominator, r2.denominator * od
            return dd * d, f * dn * xscale - delta * dd * gx

        return [xs[k] for k in watched], [za[k] * fa - zb[k] * fb for k in watched], variant

    def level(a: int, b: int, watched: Sequence[int]) -> bool:
        # A change takes one match fewer than the base (if it has any) to one
        # more, and d is linear in the count: its two ends decide the lines.
        zscale, za, fa, zb, fb, gz = difference(a, b)
        if zscale + num * gz <= 0 or problem.matches[a][b] and zscale - num * gz <= 0:
            return False
        return len({za[k] * fa - zb[k] * fb for k in watched}) < 2

    pair.level = level
    return pair
