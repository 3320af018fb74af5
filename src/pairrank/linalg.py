"""Exact solution of square integer linear systems by p-adic lifting.

Rows arrive integer and sparse, each a dict from column to value; callers
clear denominators before they solve.  ``factor`` does the work that
belongs to the matrix, once: it factors A modulo a prime p below 2**30,
taking at each step the active row with the fewest entries and its
diagonal entry when that is nonzero (a minimum-degree order on symmetric
input).  When p divides det A an active row vanishes and the next prime is
tried; once the failed primes multiply to more than H, the Hadamard bound
of the columns, det A is zero, so singularity is decided exactly and
raised before any solve.

``Factorization.solve`` then serves any number of right-hand sides, one
lifted solve each: Dixon lifting finds x modulo p**k one p-adic digit at a
time, carrying the exact integer residual, until p**k exceeds
2 * H**2 * |b|; rational reconstruction with one running common
denominator recovers x.  Every solution is checked exactly, ``A x == b``,
before it is returned.  No iterative or floating-point method is used.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod
from operator import mul
from typing import Iterator, Sequence

__all__ = ["Factorization", "SingularMatrixError", "factor", "solve_linear_system"]

# One pivot step: pivot row r, pivot column, inverse of the pivot mod p, the
# columns and values of r's other entries (all in columns pivoted later), and
# the earlier pivot rows that eliminated into r with their multipliers.
Step = tuple[int, int, int, list[int], list[int], list[int], list[int]]

# Primes below 2**30, largest first, as far as any solve has needed them;
# the largest, 2**30 - 35, is seeded.
_PRIMES: list[int] = [(1 << 30) - 35]


class SingularMatrixError(ValueError):
    """The coefficient matrix has no unique solution."""


def solve_linear_system(rows: Sequence[dict[int, int]], b: Sequence[int]) -> tuple[Fraction, ...]:
    """Solve ``rows @ x == b`` exactly for a nonsingular square integer matrix.

    Each row maps a column index in ``0..n-1`` to its entry; absent columns
    are zero.
    """
    return factor(rows).solve(b)


def factor(rows: Sequence[dict[int, int]]) -> Factorization:
    """The factors of a square integer matrix, given as sparse rows; raises
    ``SingularMatrixError`` when it is singular."""
    column_squares = [0] * len(rows)
    for row in rows:
        for c, v in row.items():
            column_squares[c] += v * v
    h = _ceil_sqrt(prod(column_squares))  # |det A| <= h
    failed = 1
    for p in _primes():
        steps = _factor(rows, p)
        if steps is not None:
            return Factorization(rows, h, p, steps)
        failed *= p  # every failed prime divides det A
        if failed > h:
            raise SingularMatrixError("the determinant is zero")


class Factorization:
    """A nonsingular matrix factored modulo one prime, with what its solves
    share: each row as its columns and values, the Hadamard bound ``h`` and
    the prime ``p``."""

    def __init__(self, rows: Sequence[dict[int, int]], h: int, p: int, steps: list[Step]):
        self.rows = [(list(row), list(row.values())) for row in rows]
        self.h, self.p, self.steps = h, p, steps

    def solve(self, b: Sequence[int]) -> tuple[Fraction, ...]:
        """The exact x with ``A x == b``, for an integer right-hand side."""
        rows, h, p, steps = self.rows, self.h, self.p, self.steps
        n = len(rows)
        if len(b) != n:
            raise ValueError(f"rhs has {len(b)} entries, expected {n}")

        # Cramer: x_i = det_i / det A with |det_i| <= h * |b| and |det A| <= h.
        numerator_bound = h * _ceil_sqrt(sum(v * v for v in b))
        modulus, lifted, residual = 1, [0] * n, b
        while modulus <= 2 * numerator_bound * h:
            digit = _solve_mod(steps, residual, p, n)
            for i, y in enumerate(digit):
                lifted[i] += y * modulus
            modulus *= p
            # Exact division for a right digit; a wrong one surfaces in the check below.
            residual = [
                (r - sum(map(mul, values, map(digit.__getitem__, cols)))) // p
                for r, (cols, values) in zip(residual, rows)
            ]

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

        for (cols, values), target in zip(rows, b):
            if sum(map(mul, values, map(numerators.__getitem__, cols))) != denominator * target:
                raise ArithmeticError("lifted solution failed the exact residual check")
        return tuple(Fraction(a, denominator) for a in numerators)


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


def _factor(rows: list[dict[int, int]], p: int) -> list[Step] | None:
    """Sparse LU factors of the rows modulo p, or None when p divides det A.

    Active entries are reduced mod p only when their row becomes the pivot
    row; until then they may grow to a few machine words.
    """
    active = {i: dict(row) for i, row in enumerate(rows)}
    lower: dict[int, tuple[list[int], list[int]]] = {i: ([], []) for i in active}
    steps = []
    while active:
        r = min(active, key=lambda i: len(active[i]))
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
    return steps


def _solve_mod(steps: list[Step], rhs: list[int], p: int, n: int) -> list[int]:
    """The solution modulo p of ``A y == rhs``, from the factors of A."""
    z = [0] * n
    for r, _, _, _, _, l_rows, l_values in steps:
        z[r] = (rhs[r] - sum(map(mul, l_values, map(z.__getitem__, l_rows)))) % p
    y = [0] * n
    for r, c, inverse, u_columns, u_values, _, _ in reversed(steps):
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
