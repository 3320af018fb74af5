"""Exact data model for paired-comparison ranking problems.

A ranking problem couples a skew-symmetric results matrix with a symmetric
matches matrix over a common object set: ``matches[i][j]`` counts the
comparisons played between objects ``i`` and ``j`` while ``results[i][j]``
is their aggregate outcome, bounded entrywise by the number of matches.
All arithmetic is exact (`fractions.Fraction`); ties in derived quantities
are decided exactly, never by tolerance.

Cells become `Fraction`s through a memo whose string table converts a row
of known strings in one call.  Every memo starts from copies of one module
table of shared small integers, built at import and never written, so a
row of small integers converts in that one call the first time it is read.
A row whose cells already have the right type is taken as it is; the
intake parsers, which check every cell's type as they read it, mark their
rows so that they are not scanned again.
Validation keys each pair's state on the identities of its two results,
skips a row whose states have all passed, and checks each new state on the
results' integer numerators and denominators, formatting a `Fraction` only
for a diagnostic; row sums and Laplacian rows read only the played entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import lcm
from operator import itemgetter
from typing import Sequence

RationalMatrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]

__all__ = [
    "ClassFlags",
    "ComparisonMultigraph",
    "InvalidProblemError",
    "RankingProblem",
    "classify",
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
    """Raised when a matrix pair violates the ranking-problem invariants."""


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
        """Sum of each results row, computed on first read: only played
        entries can be nonzero, and they are summed as integers over one
        common denominator.  Equal results are mostly one shared object, so
        the distinct ones are scaled once each, keyed by identity."""
        played = [list(compress(row, counts)) for row, counts in zip(self.results, self.matches)]
        distinct = {id(v): v for row in played for v in row}
        scale = lcm(*(v.denominator for v in distinct.values()))
        scaled = {key: v.numerator * (scale // v.denominator) for key, v in distinct.items()}
        return tuple(Fraction(sum(map(scaled.__getitem__, map(id, row))), scale) for row in played)

    @cached_property
    def fingerprint(self) -> str:
        """Stable digest of (n, results, matches); used to pair ratings to problems."""
        import hashlib  # only here: importing the CLI never needs it
        payload = ";".join(
            [str(self.n)]
            + [",".join(str(x) for x in row) for row in self.results]
            + [",".join(str(x) for x in row) for row in self.matches]
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def has_integer_results(self) -> bool:
        return all(x.denominator == 1 for row in self.results for x in row)

    def max_multiplicity(self) -> int:
        return max(map(max, self.matches), default=0)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(compress(range(self.n), self.matches[i]))


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
    components: tuple[tuple[int, ...], ...]


# Python's int-string digit limit, which ``int(str)`` already applies to a
# mantissa; bounding the exponent too keeps every accepted cell printable.
MAX_CELL_DIGITS = 4300


def _fraction(cell) -> Fraction:
    """``Fraction(cell)`` for a number from outside: failures raise what
    ``Fraction`` raises, and a string whose mantissa digits plus exponent
    size pass ``MAX_CELL_DIGITS`` raises ``ValueError`` before ``Fraction``
    spends minutes on ``10**exponent``."""
    if isinstance(cell, str) and ("e" in cell or "E" in cell):  # else int()'s own limit applies
        mantissa, _, exponent = cell.lower().partition("e")
        try:
            digits = abs(int(exponent)) + sum(c.isdigit() for c in mantissa)
        except ValueError:  # a malformed exponent, which Fraction reports
            digits = 0
        if digits > MAX_CELL_DIGITS:
            raise ValueError(f"more than {MAX_CELL_DIGITS} digits with the exponent")
    return Fraction(cell)


# The small integers that most cells hold, as one shared `Fraction` each,
# keyed by their plain spelling and by value.  Built once at import and never
# written: every converter starts from copies.
_SMALL_STRINGS = {str(k): Fraction(k) for k in range(-8, 9)}
_SMALL_VALUES = {value: value for value in _SMALL_STRINGS.values()}


def fraction_memo():
    """A converter to `Fraction` that converts each distinct cell once.

    Conversions are memoised on the cell's value, so cells that compare
    equal (``"1/2"`` twice, or ``"2/4"`` and ``"1/2"``, or ``1`` and ``"1"``)
    come back as one shared object; for the integers -8 to 8 it is the
    module's shared one, whichever converter reads it.  Each new cell is
    read by :func:`_fraction`, so failures raise what it raises.

    The converter's ``strings`` attribute is its string table: each string
    cell converted so far, mapped to its value, starting from a copy of
    the shared spellings ``"-8"`` to ``"8"``, so a row of small integers
    converts in one call the first time it is read,
    ``list(map(convert.strings.__getitem__, row))``, which raises
    ``KeyError`` or ``TypeError`` on any other cell.  The table holds
    ``str`` keys only: ``True``, ``1``, ``1.0`` and ``Fraction(1)`` are
    equal and hash alike, so a number key would let a bool or a float cell
    through a row lookup unchecked.
    """
    strings: dict[str, Fraction] = _SMALL_STRINGS.copy()
    values: dict = _SMALL_VALUES.copy()  # number -> the shared Fraction equal to it

    def convert(cell) -> Fraction:
        if type(cell) is str:
            value = strings.get(cell)
            if value is None:
                value = _fraction(cell)
                value = strings[cell] = values.setdefault(value, value)
            return value
        try:
            value = values.get(cell)
        except TypeError:  # unhashable: Fraction reports it
            return _fraction(cell)
        if value is None:
            value = _fraction(cell)
            value = values.setdefault(value, value)
        return value

    convert.strings = strings
    return convert


class _Typed(tuple):
    """The rows of a matrix as an intake parser built them: n rows of n
    cells, every one a `Fraction` (results) or an `int` (matches)."""


def _to_fraction_matrix(rows: Sequence[Sequence], what: str) -> RationalMatrix:
    """Square rows of rationals; `Fraction` cells are taken as they are."""
    n = len(rows)
    convert = fraction_memo()
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidProblemError(f"{what} is not square: row {i} has {len(row)} entries, expected {n}")
        if set(map(type, row)) != {Fraction}:
            try:
                row = [x if type(x) is Fraction else convert(x) for x in row]
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise InvalidProblemError(f"{what} row {i} has a non-rational entry: {exc}") from exc
        out.append(tuple(row))
    return tuple(out)


def _to_int_matrix(rows: Sequence[Sequence], what: str) -> IntMatrix:
    """Square rows of integers; plain `int` cells are taken as they are."""
    n = len(rows)
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidProblemError(f"{what} is not square: row {i} has {len(row)} entries, expected {n}")
        if set(map(type, row)) == {int}:
            out.append(tuple(row))
            continue
        ints = []
        for j, x in enumerate(row):
            if type(x) is not int:
                try:
                    value = _fraction(x)
                except (TypeError, ValueError, ZeroDivisionError) as exc:
                    raise InvalidProblemError(f"{what}[{i}][{j}] is not a number: {exc}") from exc
                if value.denominator != 1:
                    raise InvalidProblemError(f"{what}[{i}][{j}] = {x} is not an integer")
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
    checked once, keyed on the identities of the two results: the matrix
    keeps every result alive, so equal identities are one object, and
    equal values in distinct objects are only checked again.  A row whose
    states have all passed is skipped in one C-level set test; the others
    are checked pair by pair, on the results' integer ratios, so the first
    failure in row order is raised.
    Rows that an intake parser marks as already typed (`_Typed`) are taken
    as they are; any others are converted first.
    """
    if type(results) is type(matches) is _Typed:
        r, m = tuple(results), tuple(matches)
    else:
        r = _to_fraction_matrix(results, "results")
        m = _to_int_matrix(matches, "matches")
    n = len(m)
    if len(r) != n:
        raise InvalidProblemError(f"results is {len(r)}x{len(r)} but matches is {n}x{n}")
    if n == 0:
        raise InvalidProblemError("a ranking problem needs at least one object")
    passed = set()
    for i in range(n):
        ri, mi = r[i], m[i]
        if ri[i] != 0:
            raise InvalidProblemError(f"results diagonal must be zero at {object_label(i)}")
        if mi[i] != 0:
            raise InvalidProblemError(f"matches diagonal must be zero at {object_label(i)}")
        rest, mirror = slice(i + 1, None), itemgetter(i)  # mirror(row j) is entry (j, i)
        states = list(zip(map(id, ri[rest]), map(id, map(mirror, r[rest])), mi[rest], map(mirror, m[rest])))
        if passed.issuperset(states):
            continue
        for j, state in enumerate(states, i + 1):
            if state in passed:
                continue
            (an, ad), (bn, bd) = ri[j].as_integer_ratio(), r[j][i].as_integer_ratio()
            if an * bd != -bn * ad:
                raise InvalidProblemError(
                    f"skew-symmetry violated at ({object_label(i)}, {object_label(j)}):"
                    f" {ri[j]} vs {r[j][i]}"
                )
            if mi[j] != m[j][i]:
                raise InvalidProblemError(
                    f"matches symmetry violated at ({object_label(i)}, {object_label(j)})"
                )
            if mi[j] < 0 or abs(an) > mi[j] * ad:  # _check_entry's test in integers; it words the failure
                _check_entry(i, j, ri[j], mi[j])
            passed.add(state)
    return RankingProblem(results=r, matches=m)


def _check_entry(i: int, j: int, result: Fraction, count: int) -> None:
    """The per-pair bound: a nonnegative match count that bounds |result|."""
    if count < 0:
        raise InvalidProblemError(f"negative match count at ({object_label(i)}, {object_label(j)})")
    if abs(result) > count:
        raise InvalidProblemError(
            f"|result| <= matches violated at ({object_label(i)}, {object_label(j)}):"
            f" |{result}| > {count}"
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
        unweighted=problem.max_multiplicity() == 1,
        extremal=all(
            problem.results[i][j] in (0, problem.matches[i][j], -problem.matches[i][j])
            for i in range(problem.n)
            for j in range(problem.n)
        ),
        connected=len(graph.components) == 1,
    )


def multigraph(problem: RankingProblem) -> ComparisonMultigraph:
    """Degrees and connected components (``_components`` at colour 0) of the matches graph."""
    m = problem.matches
    components = _components(m, range(problem.n), 0)
    return ComparisonMultigraph(degrees=tuple(map(sum, m)), components=tuple(components))


def _components(matches, node, colour) -> list[tuple[int, ...]]:
    """Components of ``node`` in the graph of pairs whose match count is not
    ``colour``, ordered by smallest member, each an increasing tuple.

    At colour 0 they are the components of the comparison graph; at a count
    c they are the children of a complete node of the modular decomposition
    (``pairrank.macrovertex``), every pair across two of them of count c.
    """
    out = []
    rest = list(node)
    while rest:
        component = [rest.pop(0)]
        for x in component:
            row = matches[x]
            joined = [y for y in rest if row[y] != colour]
            if joined:
                rest = [y for y in rest if row[y] == colour]
                component += joined
        out.append(tuple(sorted(component)))
    return out


def laplacian(problem: RankingProblem) -> list[dict[int, int]]:
    """Laplacian of the comparison multigraph as sparse integer rows
    ``{column: entry}``: ``-m_ij`` at each opponent j, then the degree on the
    diagonal, which is always present (``{i: 0}`` for an isolated object).
    Every row sums to zero.  The GRS and LS systems are built from it."""
    columns = range(problem.n)
    rows = []
    for i, matches in enumerate(problem.matches):
        row = {j: -matches[j] for j in compress(columns, matches)}
        row[i] = sum(matches)
        rows.append(row)
    return rows


def _cleared(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The common denominator of the values, and the values times it."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


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
    all rows but i and j.
    """
    n = problem.n
    if i == j:
        raise InvalidProblemError(f"cannot set a diagonal pair ({i}, {j})")
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidProblemError(f"pair ({i}, {j}) is out of range for {n} objects")
    count = _fraction(match_count)
    if count.denominator != 1:
        raise InvalidProblemError(f"matches[{i}][{j}] = {match_count} is not an integer")
    value, count = _fraction(result), int(count)
    _check_entry(i, j, value, count)
    results = list(problem.results)
    matches = list(problem.matches)
    for a, b, r in ((i, j, value), (j, i, -value)):
        results[a] = results[a][:b] + (r,) + results[a][b + 1:]
        matches[a] = matches[a][:b] + (count,) + matches[a][b + 1:]
    return RankingProblem(results=tuple(results), matches=tuple(matches))

