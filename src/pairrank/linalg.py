"""Exact solution of square integer linear systems, in two regimes.

Rows arrive integer and sparse, each a dict from column to value; callers
clear denominators before they solve.  ``factor`` does the work that
belongs to the matrix, once, and the factorization's ``solve`` then serves
any number of right-hand sides.  Every solution is checked exactly,
``A x == b``, and returned in integers: the least positive common
denominator and the numerators.  No iterative or floating-point method is
used.

A system of fewer than ``_DENSE_ROWS`` rows is eliminated fraction-free
(Bareiss), in integers with row pivoting (:class:`Elimination`): every
entry it forms is a minor of A, so each division is exact and no entry
passes the Hadamard bound, with no prime and no lifting.  ``solve``
replays the eliminations on b, back-substitutes det A times x and divides
out the common factor.  The switch is ``_DENSE_ROWS`` because a smaller
system can never get a packed block: lifted, it would take a few scalar
mod-p solves, one per digit, where the elimination takes one integer
sweep.  From ``_DENSE_ROWS`` rows on, the packed block and word-sized
residues favour lifting, while the minors grow with n.  The axiom sweeps
solve only systems below the switch.

A larger system is solved by p-adic lifting (:class:`Factorization`).  It
is factored modulo a prime p below 2**30, taking at each step the active
row with the fewest entries and its diagonal entry when that is nonzero (a
minimum-degree order on symmetric input).  Once that row covers a third of
the active rows and at least ``_DENSE_ROWS`` of them remain, the active
block counts as dense, and it is finished with each row packed into one
integer of wide lanes (:class:`_Lanes`), one lane per column: a row update
is then a few big-integer operations, not one dict update per entry.  When
p divides det A an active row, or a column of the dense block, vanishes and
the next prime is tried; once the failed primes multiply to more than H,
the Hadamard bound of the columns, det A is zero, so singularity is
decided exactly and raised before any solve.

A solve by lifting finds x modulo p**k one p-adic digit at a time
(Dixon), carrying the exact integer residual, until p**k exceeds
2 * H**2 * |b|; rational reconstruction with one running common
denominator recovers x.  With a dense block, every right-hand side takes
each digit by one forward and one back substitution through the packed
LU, built once per factorization with every pivot's column packed in
lanes, one per pivot; the factors it is built from are not kept.  The
block is not inverted: an inverse pays for its forming only after several
right-hand sides.  Such a system also carries its residual packed in row
lanes (:meth:`Factorization._lane_digits`); one without a block takes each
digit by scalar sweeps over the sparse pivots and updates the residual
row by row.
"""

from __future__ import annotations

import struct
from math import gcd, isqrt, prod
from operator import mul
from typing import Callable, Iterator, Sequence

__all__ = ["Elimination", "Factorization", "SingularMatrixError", "factor", "solve_linear_system"]

# One pivot step: pivot row r, pivot column, inverse of the pivot mod p, the
# columns and values of r's other entries (all in columns pivoted later), and
# the earlier pivot rows that eliminated into r with their multipliers.
Step = tuple[int, int, int, list[int], list[int], list[int], list[int]]

# Primes below 2**30, largest first, as far as any solve has needed them;
# the largest, 2**30 - 35, is seeded.
_PRIMES: list[int] = [(1 << 30) - 35]

# The fewest active rows that are finished packed (on random dense blocks,
# packed beats scalar factor plus one solve from 10 to 12 rows), and so the
# fewest rows that are lifted: a smaller system could only be lifted
# scalar, and is eliminated fraction-free instead.  The switch density, a
# third, was the fastest on Swiss tables of 80 and 150 teams; a half or a
# tenth lost ~7%.
_DENSE_ROWS = 16


class SingularMatrixError(ValueError):
    """The coefficient matrix has no unique solution."""


def solve_linear_system(
    rows: Sequence[dict[int, int]], b: Sequence[int]
) -> tuple[Elimination | Factorization, tuple[int, list[int]]]:
    """Solve ``rows @ x == b`` exactly for a nonsingular square integer matrix.

    Each row maps a column index in ``0..n-1`` to its entry; absent columns
    are zero.  Returns the factorization, kept for further right-hand
    sides, and x as its ``solve`` gives it.
    """
    factorization = factor(rows)
    return factorization, factorization.solve(b)


def factor(rows: Sequence[dict[int, int]]) -> Elimination | Factorization:
    """The factors of a square integer matrix, given as sparse rows; raises
    ``SingularMatrixError`` when it is singular."""
    if len(rows) < _DENSE_ROWS:
        return Elimination(rows)
    column_squares = [0] * len(rows)
    for row in rows:
        for c, v in row.items():
            column_squares[c] += v * v
    h = _ceil_sqrt(prod(column_squares))  # |det A| <= h
    failed = 1
    for p in _primes():
        factors = _factor(rows, p)
        if factors is not None:
            return Factorization(rows, h, p, *factors)
        failed *= p  # every failed prime divides det A
        if failed > h:
            raise SingularMatrixError("the determinant is zero")


class Elimination:
    """A nonsingular matrix eliminated fraction-free, with row pivoting: each
    row as its columns and values, ``det``, the last pivot, and one step per
    column.  Step k keeps the pivot row's place among the rows left, the
    pivot, the previous pivot (1 before the first), the pivot row's entries
    in the later columns, and the multipliers, the entries in column k of
    the rows left after it.  Eliminating row y is ``(pivot * y - f * u) /
    previous``, u the pivot row and f y's multiplier, exact by Sylvester's
    identity; a row with multiplier 0 is still rescaled."""

    def __init__(self, rows: Sequence[dict[int, int]]):
        n = len(rows)
        self.rows = [(list(row), list(row.values())) for row in rows]
        left = [[0] * n for _ in range(n)]
        for dense, row in zip(left, rows):
            for c, v in row.items():
                dense[c] = v
        self.steps: list[tuple[int, int, int, list[int], list[int]]] = []
        previous = 1
        while left:
            k = 0
            while not left[k][0]:
                k += 1
                if k == len(left):
                    raise SingularMatrixError("the determinant is zero")
            pivot, *u = left.pop(k)
            multipliers = [y.pop(0) for y in left]
            left = [
                [(pivot * v - f * w) // previous for v, w in zip(y, u)] if f else [pivot * v // previous for v in y]
                for y, f in zip(left, multipliers)
            ]
            self.steps.append((k, pivot, previous, u, multipliers))
            previous = pivot
        self.det = previous  # det A up to the sign of the row order

    def solve(self, b: Sequence[int]) -> tuple[int, list[int]]:
        """The exact x with ``A x == b``, for an integer right-hand side, as
        ``(d, d * x)``, d the least positive common denominator of x.

        The eliminations turn b into c with U x = c, U the pivot rows, whose
        last pivot is det; det * x is integer (Cramer), and each of its
        entries, from the last, is det * c_k less the pivot row's later
        entries times theirs, divided exactly by the pivot.
        """
        rows, det = self.rows, self.det
        if len(b) != len(rows):
            raise ValueError(f"rhs has {len(b)} entries, expected {len(rows)}")
        left, c = list(b), []
        for k, pivot, previous, _, multipliers in self.steps:
            t = left.pop(k)
            c.append(t)
            if t:
                left = [(pivot * v - f * t) // previous for v, f in zip(left, multipliers)]
            else:
                left = [pivot * v // previous for v in left]
        y: list[int] = []  # det * x, from the last entry back
        for (_, pivot, _, u, _), t in zip(reversed(self.steps), reversed(c)):
            y.append((det * t - sum(map(mul, u, reversed(y)))) // pivot)
        y.reverse()
        g = gcd(det, *y) if det > 0 else -gcd(det, *y)
        return _checked(rows, b, det // g, [v // g for v in y])


class Factorization:
    """A nonsingular matrix factored modulo one prime, with what its solves
    share: each row as its columns and values, the Hadamard bound ``h`` and
    the prime ``p``.  Without a dense block it keeps the sparse pivot
    ``steps``, and ``substitution`` is None.  With one, ``substitution`` is
    the digit solver :func:`_substitution` builds from the factors, which
    are not kept; it also keeps ``norm``, the largest row sum of |A|, and
    from the first solve on A's columns packed in row lanes."""

    def __init__(self, rows: Sequence[dict[int, int]], h: int, p: int, steps: list[Step], block: _Block | None):
        self.rows = [(list(row), list(row.values())) for row in rows]
        self.h, self.p = h, p
        if block is None:
            self.steps, self.substitution = steps, None
        else:
            self.substitution = _substitution(steps, block, p, len(rows))
            self.norm = max(sum(map(abs, values)) for _, values in self.rows)
            self.packed: tuple[_Lanes, list[int]] | None = None  # the residual's lanes, A's columns in them

    def solve(self, b: Sequence[int]) -> tuple[int, list[int]]:
        """The exact x with ``A x == b``, for an integer right-hand side, as
        ``(d, d * x)``, d the least positive common denominator of x.

        With a dense block the residual is carried packed, one lane per row
        (:meth:`_lane_digits`); without one, as one integer per row.
        """
        rows, h, p = self.rows, self.h, self.p
        n = len(rows)
        if len(b) != n:
            raise ValueError(f"rhs has {len(b)} entries, expected {n}")

        # Cramer: x_i = det_i / det A with |det_i| <= h * |b| and |det A| <= h.
        numerator_bound = h * _ceil_sqrt(sum(v * v for v in b))
        digits = self._lane_digits(b) if self.substitution else self._row_digits(b)
        modulus, lifted = 1, [0] * n
        while modulus <= 2 * numerator_bound * h:
            for i, y in enumerate(next(digits)):
                lifted[i] += y * modulus
            modulus *= p

        # x_j = numerators[j] / denominator for every entry so far.  The running
        # denominator divides det A, so each reconstruction stays within the
        # bounds above, and usually finds q == 1.
        denominator, numerators = 1, []
        for value in lifted:
            a, q = _reconstruct(denominator * value % modulus, modulus, numerator_bound)
            if q != 1:
                numerators = [x * q for x in numerators]
                denominator *= q
            numerators.append(a)

        return _checked(rows, b, denominator, numerators)

    # A right digit makes every division below exact; a wrong one surfaces in
    # the exact check of the solution.

    def _row_digits(self, b: Sequence[int]) -> Iterator[list[int]]:
        """The p-adic digits of x, the residual kept as one integer per row."""
        rows, p = self.rows, self.p
        residual = b
        while True:
            digit = _solve_mod(self, residual)
            yield digit
            residual = [
                (r - sum(map(mul, values, map(digit.__getitem__, cols)))) // p
                for r, (cols, values) in zip(residual, rows)
            ]

    def _lane_digits(self, b: Sequence[int]) -> Iterator[list[int]]:
        """The p-adic digits of x, the residual kept as one integer R of row
        lanes, lane i holding residual entry i plus a bias.

        No residual entry exceeds ``bound``, the larger of |b| and ``norm``,
        in size: a right digit y turns r into (r - A y) / p, at most (bound +
        norm * (p - 1)) / p.  So every lane of R - A y lies in [0, 2 * bias]
        for the bias p * bound, a multiple of p: with a right digit each lane
        is divisible by p, one exact division of the whole integer divides
        them all, and the re-bias restores the bias.  A lane mod p is its
        row's residue.  The lanes hold 2 * bias; A's columns are packed in
        them on the first solve, and again for a larger b.  A wrong digit
        may leave lanes out of range, but ``reduce`` reads only the n lanes,
        so its digits still reach the exact check.
        """
        solve_mod, p, n = self.substitution, self.p, len(b)
        bound = max(self.norm, *map(abs, b))
        bias = p * bound
        if self.packed is None or 2 * bias >> self.packed[0].width - 2:
            lanes = _Lanes(p, n, 2 * bias)
            columns = [0] * n
            for i, (cols, values) in enumerate(self.rows):
                for c, v in zip(cols, values):
                    columns[c] += v << i * lanes.width
            self.packed = lanes, columns
        lanes, columns = self.packed
        rebias = (bias - bound) * lanes.pack([1] * n)
        residual = int.from_bytes(b"".join((v + bias).to_bytes(lanes.size, "little") for v in b), "little")
        while True:
            digit = solve_mod(lanes.unpack(lanes.reduce(residual)))
            yield digit
            residual = (residual - sum(map(mul, digit, columns))) // p + rebias


def _checked(
    rows: list[tuple[list[int], list[int]]], b: Sequence[int], denominator: int, numerators: list[int]
) -> tuple[int, list[int]]:
    """The solution ``(denominator, numerators)``, once ``A x == b`` holds
    exactly for it, A given as each row's columns and values."""
    for (cols, values), target in zip(rows, b):
        if sum(map(mul, values, map(numerators.__getitem__, cols))) != denominator * target:
            raise ArithmeticError("the solution failed the exact residual check")
    return denominator, numerators


def _ceil_sqrt(x: int) -> int:
    return isqrt(x - 1) + 1 if x else 0


def _primes() -> Iterator[int]:
    """Primes below 2**30, largest first.  Those past the seeded one, needed
    only when a prime divides det A, are found by trial division by odd
    numbers, once per process."""
    k = 0
    while True:
        if k == len(_PRIMES):
            odd = range(_PRIMES[-1] - 2, 1, -2)
            _PRIMES.append(next(m for m in odd if all(m % q for q in range(3, isqrt(m) + 1, 2))))
        yield _PRIMES[k]
        k += 1


def _factor(rows: list[dict[int, int]], p: int) -> tuple[list[Step], _Block | None] | None:
    """LU factors of the rows modulo p, or None when p divides det A: the
    sparse pivot steps and the dense block.

    Active entries are reduced mod p only when their row becomes the pivot
    row, or the block is packed; until then they may grow to a few machine
    words.
    """
    active = {i: dict(row) for i, row in enumerate(rows)}
    lower: dict[int, tuple[list[int], list[int]]] = {i: ([], []) for i in active}
    steps = []
    while active:
        r = min(active, key=lambda i: len(active[i]))
        if 3 * len(active[r]) >= len(active) >= _DENSE_ROWS:
            columns = sorted(set(range(len(rows))).difference(c for _, c, *_ in steps))
            block = _factor_dense(active, lower, columns, p, len(rows))
            return None if block is None else (steps, block)
        pivot_row = {c: v % p for c, v in active.pop(r).items() if v % p}
        if not pivot_row:
            return None
        c = r if r in pivot_row else next(iter(pivot_row))
        inverse = pow(pivot_row.pop(c), -1, p)
        items = pivot_row.items()
        for t, row in active.items():
            f = row.pop(c, 0) % p * inverse % p
            if f:
                lower[t][0].append(r)
                lower[t][1].append(f)
                get = row.get
                for col, v in items:
                    row[col] = get(col, 0) - f * v
        steps.append((r, c, inverse, list(pivot_row), list(pivot_row.values()), *lower.pop(r)))
    return steps, None


class _Lanes:
    """Nonnegative integers packed into one, m lanes of ``width`` bits, lane
    k in bits ``k*width`` up.  A lane is sized for values up to ``bound``
    with two spare bits above, so the updates that keep within the bound
    never carry from one lane into the next.

    p is 2**bits - c with 3p > 2**(bits+1), as every prime from
    :func:`_primes` is: then 2**bits = c (mod p), so ``reduce`` folds every
    lane's bits above ``bits`` down onto its low ones, times c, until each
    lane, whatever it held, is below 2p, and ends with one borrow-free
    conditional subtract of p in every lane.  The first fold reads only the
    m lanes, so ``reduce`` takes any integer, even a negative one, as its m
    lanes in two's complement.
    """

    def __init__(self, p: int, m: int, bound: int):
        self.p, self.m = p, m
        self.bits = bits = p.bit_length()
        self.size = size = (bound.bit_length() + 2 + 7) // 8  # bytes per lane
        self.width = width = 8 * size
        self.first = (1 << width) - 1
        self.low, self.high, self.top, self.primes = (
            int.from_bytes(v.to_bytes(size, "little") * m, "little")
            for v in ((1 << bits) - 1, (1 << (width - bits)) - 1, 1 << (width - 1), p)
        )
        self.c = c = (1 << bits) - p
        # A residue in the low four bytes of each lane, the rest zero.
        self.layout = struct.Struct("<" + f"I{size - 4}x" * m)
        self.folds, most = 0, self.first
        while most >= 2 * p:
            most = (1 << bits) - 1 + c * (most >> bits)
            self.folds += 1

    def pack(self, residues: Sequence[int]) -> int:
        """The lanes of m residues."""
        return int.from_bytes(self.layout.pack(*residues), "little")

    def reduce(self, x: int) -> int:
        """The m lanes of x, each reduced mod p."""
        low, high, bits, c = self.low, self.high, self.bits, self.c
        for _ in range(self.folds):
            x = (x & low) + c * ((x >> bits) & high)
        return x - ((((x | self.top) - self.primes) & self.top) >> (self.width - 1)) * self.p

    def unpack(self, x: int) -> tuple[int, ...]:
        """The m lanes of an x with every lane below 2**32."""
        return self.layout.unpack(x.to_bytes(self.m * self.size, "little"))


# The dense block factored mod p: its rows, the sparse pivots' multipliers
# into them, its columns in lane order, one step per pivot (row, lanes
# reduced, inverse, the rows left in pivot order, their negated multipliers)
# and its lanes.
_Block = tuple[list[int], dict[int, tuple[list[int], list[int]]], list[int], list[tuple], _Lanes]


def _factor_dense(
    active: dict[int, dict[int, int]], lower: dict[int, tuple[list[int], list[int]]], columns: list[int], p: int, n: int
) -> _Block | None:
    """The LU factors mod p of the active block, beside its rows'
    multipliers in ``lower``; None when p divides the block's determinant.

    Lanes follow ``columns``, so the lowest lane is the next pivot column:
    the pivot is the first row with that lane nonzero, and each other row y
    is eliminated by ``(y + f*u) >> width``, u the pivot row reduced and f
    the negated multiplier, which drops the pivot lane.  A row takes fewer
    than m updates of at most (p-1)**2 a lane, so lanes stay in bound.
    """
    m = len(columns)
    lanes = _Lanes(p, m, n * (p - 1) ** 2 + p - 1)  # a residue plus n products of two
    first, width = lanes.first, lanes.width
    lane = {c: k for k, c in enumerate(columns)}
    rows = left = list(active)
    values = []
    for t in rows:
        residues = [0] * m
        for c, v in active[t].items():
            residues[lane[c]] = v % p
        values.append(lanes.pack(residues))
    pivots = []
    for _ in range(m):
        k = next((k for k, y in enumerate(values) if (y & first) % p), None)
        if k is None:
            return None  # a column of the block vanishes mod p
        pivot, u = left[k], lanes.reduce(values[k])
        left, values = left[:k] + left[k + 1:], values[:k] + values[k + 1:]
        inverse = pow(u & first, -1, p)
        negated = [(y & first) * (p - inverse) % p for y in values]
        values = [(y + f * u) >> width for y, f in zip(values, negated)]
        pivots.append((pivot, u, inverse, left, negated))
    order = [pivot for pivot, *_ in pivots]
    for k, (pivot, u, inverse, left, negated) in enumerate(pivots):
        if left != order[k + 1:]:  # a row was passed over as pivot: the rows left go in pivot order
            pivots[k] = pivot, u, inverse, order[k + 1:], [*map(dict(zip(left, negated)).__getitem__, order[k + 1:])]
    return rows, lower, columns, pivots, lanes


def _substitution(steps: list[Step], block: _Block, p: int, n: int) -> Callable[[Sequence[int]], list[int]]:
    """``_solve_mod`` for a factorization with a dense block, built once from
    its sparse pivot steps and block: a forward sweep through L and a back
    sweep through U over the sparse pivots and then the block's, one lane per
    pivot position.  A step reads the lowest lane, adds its residue times the
    step's packed column (lane j: -L[k + j][k] mod p; U's run from the last
    pivot, lane j p - U[k - j][k] <= p) and drops the lane: no lane passes
    n(p-1)**2 + p - 1 while n < p."""
    _, lower, columns, pivots, lanes = block
    sweep, first, width, m = _Lanes(p, n, n * (p - 1) ** 2 + p - 1), lanes.first, lanes.width, len(pivots)
    order, places = [r for r, *_ in steps + pivots], [c for _, c, *_ in steps] + columns  # by pivot position
    position, place = {r: k for k, r in enumerate(order)}, {c: k for k, c in enumerate(places)}
    negated_rows = [lanes.unpack(lanes.primes - (u << k * width)) for k, (_, u, *_) in enumerate(pivots)]
    lower_columns = [0] * len(steps) + [lanes.pack([0, *negated, *[0] * k]) for k, (*_, negated) in enumerate(pivots)]
    upper_columns = [0] * len(steps) + [
        lanes.pack([0, *column[m - k:], *[0] * (m - 1 - k)]) for k, column in enumerate(zip(*negated_rows[::-1]))
    ]
    for t, (l_rows, l_values) in ({step[0]: step[5:] for step in steps} | lower).items():
        for r, f in zip(l_rows, l_values):
            lower_columns[position[r]] += (p - f) << (position[t] - position[r]) * width
    for i, (_, _, _, u_columns, u_values, _, _) in enumerate(steps):
        for c, v in zip(u_columns, u_values):
            upper_columns[place[c]] += (p - v) << (place[c] - i) * width
    upper = list(zip(places, upper_columns, [inverse for _, _, inverse, *_ in steps + pivots]))[::-1]

    def solve_mod(rhs: Sequence[int]) -> list[int]:
        x, z = sweep.pack([rhs[r] for r in order]), []
        for column in lower_columns:
            z.append(v := (x & first) % p)
            x = (x + v * column) >> width
        x, y = sweep.pack(z[::-1]), [0] * n
        for c, column, inverse in upper:
            y[c] = v = (x & first) * inverse % p
            x = (x + v * column) >> width
        return y

    return solve_mod


def _solve_mod(factorization: Factorization, rhs: Sequence[int]) -> list[int]:
    """The solution modulo p of ``A y == rhs``, from the sparse pivot steps
    of an A without a dense block, for an rhs already reduced mod p."""
    p, n = factorization.p, len(rhs)
    z = [0] * n
    for r, _, _, _, _, l_rows, l_values in factorization.steps:
        z[r] = (rhs[r] - sum(map(mul, l_values, map(z.__getitem__, l_rows)))) % p
    y = [0] * n
    for r, c, inverse, u_columns, u_values, _, _ in reversed(factorization.steps):
        y[c] = (z[r] - sum(map(mul, u_values, map(y.__getitem__, u_columns)))) * inverse % p
    return y


def _reconstruct(u: int, modulus: int, numerator_bound: int) -> tuple[int, int]:
    """The fraction a/q, q > 0, with q*u == a (mod modulus) and |a| <= the
    bound, by the extended Euclidean algorithm (Wang).  It is the unique such
    fraction with q <= modulus / (2 * bound)."""
    r0, r1 = modulus, u
    t0, t1 = 0, 1
    while r1 > numerator_bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        t0, t1 = t1, t0 - k * t1
    return (-r1, -t1) if t1 < 0 else (r1, t1)
