"""Exact data model for paired-comparison ranking problems.

A ranking problem couples a skew-symmetric results matrix with a symmetric
matches matrix over a common object set: ``matches[i][j]`` counts the
comparisons played between objects ``i`` and ``j`` while ``results[i][j]``
is their aggregate outcome, bounded entrywise by the number of matches.
All arithmetic is exact (`fractions.Fraction`); ties in derived quantities
are decided exactly, never by tolerance.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

RationalMatrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]

__all__ = [
    "ClassFlags",
    "ComparisonMultigraph",
    "InvalidProblemError",
    "RankingProblem",
    "classify",
    "differing_pairs",
    "laplacian",
    "multigraph",
    "object_label",
    "permute_problem",
    "problem_from_results_matches",
    "with_pair",
]


def object_label(i: int) -> str:
    """Default display label for object index ``i`` (0-based in, 1-based out)."""
    return f"X{i + 1}"


class InvalidProblemError(ValueError):
    """Raised when a matrix pair violates the ranking-problem invariants.

    ``pair`` holds the offending 0-based index pair when one exists.
    """

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


@dataclass(frozen=True)
class RankingProblem:
    """An immutable ranking problem over objects ``0..n-1``.

    Construct through :func:`problem_from_results_matches`, which validates
    the invariants.
    """

    results: RationalMatrix
    matches: IntMatrix

    @property
    def n(self) -> int:
        return len(self.matches)

    @cached_property
    def row_sums(self) -> tuple[Fraction, ...]:
        """Sum of each results row; :func:`with_pair` seeds it incrementally."""
        return tuple(sum(filter(None, row), Fraction(0)) for row in self.results)

    @cached_property
    def fingerprint(self) -> str:
        """Stable digest of (n, results, matches); used to pair ratings to problems."""
        payload = ";".join(
            [str(self.n)]
            + [",".join(str(x) for x in row) for row in self.results]
            + [",".join(str(x) for x in row) for row in self.matches]
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def has_integer_results(self) -> bool:
        return all(x.denominator == 1 for row in self.results for x in row)

    def max_multiplicity(self) -> int:
        return max((x for row in self.matches for x in row), default=0)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if j != i and self.matches[i][j] > 0)


@dataclass(frozen=True)
class ClassFlags:
    """Membership of a problem in the standard subclasses."""

    balanced: bool
    round_robin: bool
    unweighted: bool
    extremal: bool
    connected: bool


@dataclass(frozen=True)
class ComparisonMultigraph:
    """Undirected multigraph view of the matches matrix."""

    degrees: tuple[int, ...]
    max_multiplicity: int
    components: tuple[tuple[int, ...], ...]


def fraction_memo():
    """A converter to `Fraction` that converts each distinct cell once.

    Conversions are memoised on the cell's value, so cells that compare
    equal (``"1/2"`` twice, or ``"2/4"`` and ``"1/2"``, or ``1`` and ``"1"``)
    come back as one shared object.  Failures raise what ``Fraction(cell)``
    raises.
    """
    memo: dict = {}

    def convert(cell) -> Fraction:
        try:
            value = memo.get(cell)
        except TypeError:  # unhashable: Fraction reports it
            return Fraction(cell)
        if value is None:
            value = Fraction(cell)
            value = memo.setdefault(value, value)
            memo[cell] = value
        return value

    return convert


def _to_fraction_matrix(rows: Sequence[Sequence], what: str) -> RationalMatrix:
    """Square rows of rationals; `Fraction` cells are taken as they are."""
    n = len(rows)
    convert = fraction_memo()
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidProblemError(f"{what} is not square: row {i} has {len(row)} entries, expected {n}")
        try:
            out.append(tuple(x if type(x) is Fraction else convert(x) for x in row))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidProblemError(f"{what} row {i} has a non-rational entry: {exc}") from exc
    return tuple(out)


def _to_int_matrix(rows: Sequence[Sequence], what: str) -> IntMatrix:
    """Square rows of integers; plain `int` cells are taken as they are."""
    n = len(rows)
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidProblemError(f"{what} is not square: row {i} has {len(row)} entries, expected {n}")
        ints = []
        for j, x in enumerate(row):
            if type(x) is not int:
                try:
                    value = Fraction(x)
                except (TypeError, ValueError, ZeroDivisionError) as exc:
                    raise InvalidProblemError(f"{what}[{i}][{j}] is not a number: {exc}") from exc
                if value.denominator != 1:
                    raise InvalidProblemError(f"{what}[{i}][{j}] = {x} is not an integer", pair=(i, j))
                x = int(value)
            ints.append(x)
        out.append(tuple(ints))
    return tuple(out)


def problem_from_results_matches(results: Sequence[Sequence], matches: Sequence[Sequence]) -> RankingProblem:
    """Validate a (results, matches) pair and build the problem.

    Raises :class:`InvalidProblemError` naming the offending entry pair when
    skew-symmetry, symmetry, the zero diagonal, match-count nonnegativity,
    or the bound of results by match counts fails.  Each distinct
    (result, mirrored result, count, mirrored count) state of a pair is
    checked once; later pairs in a state that passed are skipped, and a run
    of pairs in the same state (the unplayed pairs, mostly) skips even the
    lookup.
    """
    r = _to_fraction_matrix(results, "results")
    m = _to_int_matrix(matches, "matches")
    n = len(m)
    if len(r) != n:
        raise InvalidProblemError(f"results is {len(r)}x{len(r)} but matches is {n}x{n}")
    if n == 0:
        raise InvalidProblemError("a ranking problem needs at least one object")
    passed = set()
    last = None
    for i in range(n):
        ri, mi = r[i], m[i]
        if ri[i] != 0:
            raise InvalidProblemError(f"results diagonal must be zero at {object_label(i)}", pair=(i, i))
        if mi[i] != 0:
            raise InvalidProblemError(f"matches diagonal must be zero at {object_label(i)}", pair=(i, i))
        for j in range(i + 1, n):
            state = (ri[j], r[j][i], mi[j], m[j][i])
            if state == last:
                continue
            last = state
            if state in passed:
                continue
            if ri[j] != -r[j][i]:
                raise InvalidProblemError(
                    f"skew-symmetry violated at ({object_label(i)}, {object_label(j)}):"
                    f" {ri[j]} vs {r[j][i]}",
                    pair=(i, j),
                )
            if mi[j] != m[j][i]:
                raise InvalidProblemError(
                    f"matches symmetry violated at ({object_label(i)}, {object_label(j)})", pair=(i, j)
                )
            _check_entry(i, j, ri[j], mi[j])
            passed.add(state)
    return RankingProblem(results=r, matches=m)


def _check_entry(i: int, j: int, result: Fraction, count: int) -> None:
    """The per-pair bound: a nonnegative match count that bounds |result|."""
    if count < 0:
        raise InvalidProblemError(
            f"negative match count at ({object_label(i)}, {object_label(j)})", pair=(i, j)
        )
    if abs(result) > count:
        raise InvalidProblemError(
            f"|result| <= matches violated at ({object_label(i)}, {object_label(j)}):"
            f" |{result}| > {count}",
            pair=(i, j),
        )


def classify(problem: RankingProblem) -> ClassFlags:
    """Evaluate the definitional class predicates for a problem."""
    graph = multigraph(problem)
    degrees = graph.degrees
    off_diagonal = [
        problem.matches[i][j] for i in range(problem.n) for j in range(problem.n) if i != j
    ]
    return ClassFlags(
        balanced=len(set(degrees)) <= 1,
        round_robin=len(set(off_diagonal)) <= 1,
        unweighted=graph.max_multiplicity == 1,
        extremal=all(
            problem.results[i][j] in (0, problem.matches[i][j], -problem.matches[i][j])
            for i in range(problem.n)
            for j in range(problem.n)
        ),
        connected=len(graph.components) == 1,
    )


def multigraph(problem: RankingProblem) -> ComparisonMultigraph:
    """Degrees, maximal multiplicity, and connected components of the matches graph.

    Components are ordered by smallest member and listed in sorted order.
    """
    n = problem.n
    m = problem.matches
    degrees = tuple(sum(m[i]) for i in range(n))
    seen = [False] * n
    components: list[tuple[int, ...]] = []
    for start in range(n):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        members = [start]
        while queue:
            u = queue.popleft()
            for v in range(n):
                if not seen[v] and m[u][v] > 0:
                    seen[v] = True
                    members.append(v)
                    queue.append(v)
        components.append(tuple(sorted(members)))
    return ComparisonMultigraph(
        degrees=degrees,
        max_multiplicity=problem.max_multiplicity(),
        components=tuple(components),
    )


def laplacian(problem: RankingProblem) -> IntMatrix:
    """Laplacian of the comparison multigraph: degrees on the diagonal, negated
    multiplicities off it, so every row sums to zero (``L @ ones == 0``)."""
    n = problem.n
    degrees = [sum(problem.matches[i]) for i in range(n)]
    return tuple(
        tuple(degrees[i] if i == j else -problem.matches[i][j] for j in range(n)) for i in range(n)
    )


def canonical_split(result: int, copies: int) -> tuple[int, ...]:
    """Deterministic split of an integer result across unit-match copies.

    Sign-preserving greedy fill: ``|result|`` leading entries carry the sign,
    the rest are zero.  Requires ``|result| <= copies``.
    """
    sign = 1 if result > 0 else -1
    k = abs(result)
    return tuple([sign] * k + [0] * (copies - k))


def permute_problem(problem: RankingProblem, perm: Sequence[int]) -> RankingProblem:
    """Relabel objects: object ``i`` becomes ``perm[i]`` in the new problem."""
    n = problem.n
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm!r}")
    results = [[Fraction(0)] * n for _ in range(n)]
    matches = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            results[perm[i]][perm[j]] = problem.results[i][j]
            matches[perm[i]][perm[j]] = problem.matches[i][j]
    return problem_from_results_matches(results, matches)


def with_pair(problem: RankingProblem, i: int, j: int, result, match_count: int) -> RankingProblem:
    """Copy of the problem with the (i, j) entry replaced.

    ``result`` is i's net outcome against j.  Only the new entry is checked,
    by the same rule full validation applies to every pair; the copy shares
    all rows but i and j and inherits the row sums, updated at i and j.
    """
    n = problem.n
    if i == j:
        raise InvalidProblemError("cannot set a diagonal pair", pair=(i, j))
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidProblemError(f"pair ({i}, {j}) is out of range for {n} objects", pair=(i, j))
    count = Fraction(match_count)
    if count.denominator != 1:
        raise InvalidProblemError(f"matches[{i}][{j}] = {match_count} is not an integer", pair=(i, j))
    value, count = Fraction(result), int(count)
    _check_entry(i, j, value, count)
    results = list(problem.results)
    matches = list(problem.matches)
    for a, b, r in ((i, j, value), (j, i, -value)):
        results[a] = results[a][:b] + (r,) + results[a][b + 1:]
        matches[a] = matches[a][:b] + (count,) + matches[a][b + 1:]
    child = RankingProblem(results=tuple(results), matches=tuple(matches))
    delta = value - problem.results[i][j]
    sums = list(problem.row_sums)
    sums[i] += delta
    sums[j] -= delta
    child.__dict__["row_sums"] = tuple(sums)  # seed the cached_property
    return child


def differing_pairs(left: RankingProblem, right: RankingProblem) -> list[tuple[int, int]]:
    """Unordered index pairs where two same-size problems disagree in result or matches."""
    if left.n != right.n:
        raise ValueError("problems have different object counts")
    out = []
    for i in range(left.n):
        for j in range(i + 1, left.n):
            if (
                left.results[i][j] != right.results[i][j]
                or left.matches[i][j] != right.matches[i][j]
            ):
                out.append((i, j))
    return out
