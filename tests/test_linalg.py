import contextlib
import io
import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest

from pairrank import linalg
from pairrank.cli import main
from pairrank.core import laplacian, multigraph, problem_from_results_matches
from pairrank.linalg import SingularMatrixError, factor, solve_linear_system
from pairrank.methods import _grounded_rows, _grs_system, generalized_row_sum, least_squares

from corpus import random_problem
from oracles import (
    bareiss_solve,
    benchmark_generators,
    dense_generalized_row_sum,
    dense_least_squares,
    matrix_apply,
    sparse_integer_system,
)


def fractions(solution):
    """A solution ``(denominator, numerators)`` as the tuple of fractions
    that ``bareiss_solve`` returns; its denominator must be positive and the
    least common one."""
    denominator, numerators = solution
    assert denominator > 0 and gcd(denominator, *numerators) == 1, solution
    return tuple(Fraction(a, denominator) for a in numerators)


def solve(matrix, rhs):
    """``solve_linear_system`` on dense, possibly rational, rows."""
    return fractions(solve_linear_system(*sparse_integer_system(matrix, rhs))[1])


def test_known_system():
    # Hand-solved 3x3 with rational entries.
    matrix = [[2, 1, 0], [1, 3, 1], [0, 1, 2]]
    rhs = [1, 0, 1]
    x = solve(matrix, rhs)
    assert matrix_apply(matrix, x) == tuple(Fraction(v) for v in rhs)
    assert x == (Fraction(3, 4), Fraction(-1, 2), Fraction(3, 4))


def test_rational_entries():
    matrix = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]
    rhs = [Fraction(5, 6), Fraction(6, 5)]
    x = solve(matrix, rhs)
    assert matrix_apply(matrix, x) == tuple(rhs)
    assert x == (Fraction(1), Fraction(1))


def test_pivoting_needed():
    matrix = [[0, 1], [1, 0]]
    assert solve(matrix, [2, 3]) == (Fraction(3), Fraction(2))


def test_sparse_rows():
    matrix = [{0: 2, 1: 1}, {0: 1, 1: 3, 2: 1}, {1: 1, 2: 2}]
    factorization, solution = solve_linear_system(matrix, [1, 0, 1])
    assert solution == (4, [3, -2, 3])
    # The factorization is kept for further right-hand sides.
    assert fractions(factorization.solve([3, 4, 1])) == (Fraction(1), Fraction(1), Fraction(0))


def test_singular_detected():
    with pytest.raises(SingularMatrixError):
        solve([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(SingularMatrixError):
        solve([[0, 0], [0, 0]], [0, 0])


def test_empty_system():
    assert solve([], []) == ()


def test_zero_rhs():
    assert solve([[3, 1], [1, 2]], [0, 0]) == (Fraction(0), Fraction(0))


def test_randomized_against_substitution():
    rng = random.Random(7)
    solved = 0
    while solved < 25:
        n = rng.randint(1, 6)
        matrix = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        x_true = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        rhs = matrix_apply(matrix, x_true)
        try:
            x = solve(matrix, rhs)
        except SingularMatrixError:
            continue
        assert matrix_apply(matrix, x) == rhs
        assert x == tuple(x_true)
        solved += 1


def _outcome(solve, matrix, rhs):
    try:
        return solve(matrix, rhs)
    except SingularMatrixError:
        return "singular"


def test_random_rational_systems_match_bareiss():
    # Small entry ranges make many of these singular; both solvers must agree.
    rng = random.Random(11)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        matrix = [
            [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)
        ]
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        expected = _outcome(bareiss_solve, matrix, rhs)
        assert _outcome(solve, matrix, rhs) == expected
        singular += expected == "singular"
    assert 10 < singular < 290


def test_random_sparse_integer_systems_match_bareiss():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 14)
        matrix = [
            [rng.randint(-30, 30) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)
        ]
        rhs = [rng.randint(-10**6, 10**6) for _ in range(n)]
        assert _outcome(solve, matrix, rhs) == _outcome(bareiss_solve, matrix, rhs)


def _factor_systems():
    """Sparse integer systems of three kinds: grounded LS Laplacians and GRS
    matrices of connected problems, and random nonsymmetric matrices, some
    of them singular."""
    for seed in range(10):
        problem = random_problem(9300 + seed, 4 + seed % 6, connected=True)
        yield "ls", _grounded_rows(laplacian(problem), multigraph(problem).components[0])
        yield "grs", _grs_system(problem, Fraction(2, 7))[0]
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randint(2, 9)
        matrix = [[rng.randint(-20, 20) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)]
        yield "nonsymmetric", [{c: v for c, v in enumerate(row) if v} for row in matrix]


def test_one_factorization_solves_many_right_hand_sides_like_bareiss():
    rng = random.Random(16)
    seen = {"ls": 0, "grs": 0, "nonsymmetric": 0, "singular": 0}
    for kind, rows in _factor_systems():
        n = len(rows)
        dense = [[row.get(c, 0) for c in range(n)] for row in rows]
        if _outcome(bareiss_solve, dense, [0] * n) == "singular":
            with pytest.raises(SingularMatrixError):
                factor(rows)
            seen["singular"] += 1
            continue
        factorization = factor(rows)
        column = rng.randrange(n)
        unit = [int(k == column) for k in range(n)]
        for rhs in (unit, [0] * n, [rng.randint(-10**6, 10**6) for _ in range(n)], [rng.randint(-3, 3) for _ in range(n)]):
            assert fractions(factorization.solve(rhs)) == bareiss_solve(dense, rhs), (kind, rows, rhs)
        seen[kind] += 1
    assert seen["ls"] == seen["grs"] == 10
    assert seen["nonsymmetric"] > 10 and seen["singular"] > 0


def test_factor_rejects_a_singular_matrix_before_any_solve(monkeypatch):
    # Each matrix as it is, eliminated, and padded to be lifted: no digit
    # solver is built, so no digit is solved.
    solvers = []
    monkeypatch.setattr(linalg, "_substitution", lambda *args: solvers.append(args))
    for matrix in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[3, -3], [-3, 3]]):
        for dense in (matrix, _padded(matrix, [0, 0])[0]):
            with pytest.raises(SingularMatrixError, match="the determinant is zero"):
                factor([{c: v for c, v in enumerate(row) if v} for row in dense])
    assert solvers == []


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    factorization = factor([{0: 2, 1: 1}, {0: 1, 1: 3}])
    for rhs in ([], [1], [1, 2, 3]):
        with pytest.raises(ValueError, match="expected 2"):
            factorization.solve(rhs)
    assert fractions(factorization.solve([3, 4])) == (Fraction(1), Fraction(1))


def _lifted(rows):
    """The lifting path at any size, as ``factor`` takes it from
    ``_DENSE_ROWS`` rows on: ``_factor`` over the primes, then a
    ``Factorization``; None when the matrix is singular."""
    h = linalg._ceil_sqrt(prod(sum(row.get(c, 0) ** 2 for row in rows) for c in range(len(rows))))
    failed = 1
    for p in linalg._primes():
        factors = linalg._factor(rows, p)
        if factors is not None:
            return linalg.Factorization(rows, h, p, *factors)
        failed *= p
        if failed > h:
            return None


def _small_systems():
    """Seeded sparse integer systems of 0 to 15 rows, by kind: grounded LS
    Laplacians and GRS matrices at epsilon 1/10**40 of connected problems;
    random nonsymmetric matrices, many of them singular; row-shuffled upper
    triangular ones and ones with a zero diagonal, whose zero leading
    entries force row swaps; and rank-deficient ones with no zero entry."""
    for seed in range(12):
        problem = random_problem(9500 + seed, 3 + seed, connected=True)
        yield "ls", _grounded_rows(laplacian(problem), multigraph(problem).components[0])
        yield "grs", _grs_system(problem, Fraction(1, 10**40))[0]
    rng = random.Random(31)
    for n in range(16):
        for density in (0.2, 0.5, 1.0):
            yield "nonsymmetric", _random_system(rng, n, density)[0]
        triangular = [
            {c: rng.choice([-1, 1]) * rng.randint(1, 9) for c in range(r, n) if c == r or rng.random() < 0.5}
            for r in range(n)
        ]
        rng.shuffle(triangular)
        yield "shuffled triangular", triangular
        rows = _random_system(rng, n, 0.7)[0]
        yield "zero diagonal", [{c: v for c, v in row.items() if c != r} for r, row in enumerate(rows)]
    for n in range(2, 16):
        deficiency = rng.randint(1, min(3, n - 1))
        free = [[rng.choice([-9, -5, -2, -1, 1, 3, 4, 8]) for _ in range(n)] for _ in range(n - deficiency)]
        dependent = [
            [sum(c * row[j] for c, row in zip(coefficients, free)) for j in range(n)]
            for coefficients in ([rng.randint(1, 3) for _ in free] for _ in range(deficiency))
        ]
        matrix = free + dependent
        rng.shuffle(matrix)
        yield "rank-deficient", [{c: v for c, v in enumerate(row) if v} for row in matrix]


def test_elimination_matches_the_lifted_path_and_bareiss():
    # The same (d, numerators) as Dixon lifting, and the same x as the
    # oracle's own fraction-free elimination, for several right-hand sides
    # of one factorization; the same singular matrices.
    rng = random.Random(32)
    seen = Counter()
    for kind, rows in _small_systems():
        n = len(rows)
        dense = [[row.get(c, 0) for c in range(n)] for row in rows]
        lifted = _lifted(rows)
        if lifted is None:
            with pytest.raises(SingularMatrixError):
                bareiss_solve(dense, [0] * n)
            with pytest.raises(SingularMatrixError, match="the determinant is zero"):
                factor(rows)
            seen[kind, "singular"] += 1
            continue
        elimination = factor(rows)
        assert type(elimination) is linalg.Elimination
        unit, large = [int(k == n // 2) for k in range(n)], [rng.randint(-10**6, 10**6) for _ in range(n)]
        for rhs in (unit, [0] * n, large, [rng.randint(-3, 3) for _ in range(n)]):
            solution = elimination.solve(rhs)
            assert solution == lifted.solve(rhs), (kind, rows, rhs)
            assert fractions(solution) == bareiss_solve(dense, rhs), (kind, rows, rhs)
        seen[kind] += 1
        seen[kind, "swapped"] += any(k for k, *_ in elimination.steps)
        seen[kind, "zero multiplier"] += any(0 in multipliers for *_, multipliers in elimination.steps)
    assert seen["ls"] == seen["grs"] == 12
    assert seen["ls", "swapped"] == seen["grs", "swapped"] == 0
    assert seen["nonsymmetric"] > 20 and seen["nonsymmetric", "singular"] > 5
    for kind in ("shuffled triangular", "zero diagonal"):
        assert seen[kind] > 10 and seen[kind, "swapped"] > 10 and seen[kind, "zero multiplier"] > 10
    assert seen["rank-deficient", "singular"] == 14 and seen["rank-deficient"] == 0


def test_corrupted_multiplier_raises_in_the_exact_check():
    rows, rhs = _random_system(random.Random(33), 8, 1.0)
    dense = [[row.get(c, 0) for c in range(8)] for row in rows]
    elimination = factor(rows)
    assert fractions(elimination.solve(rhs)) == bareiss_solve(dense, rhs)
    for k in (0, 3, 6):
        multipliers = elimination.steps[k][4]
        multipliers[-1] += 1
        with pytest.raises(ArithmeticError, match="exact residual check"):
            elimination.solve(rhs)
        multipliers[-1] -= 1
    assert fractions(elimination.solve(rhs)) == bareiss_solve(dense, rhs)


@pytest.mark.parametrize("n", [40, 80])
def test_swiss_tables_match_dense_oracle(n):
    table = benchmark_generators().swiss(random.Random(4100 + n), n)
    problem = problem_from_results_matches(table.R, table.M)
    assert least_squares(problem).values == dense_least_squares(problem)
    assert generalized_row_sum(problem, Fraction(1, 10)).values == dense_generalized_row_sum(problem, Fraction(1, 10))


def test_multi_component_problems_match_dense_oracle():
    components_seen = set()
    for seed in range(40):
        problem = random_problem(9100 + seed, 9, edge_probability=0.22)
        components_seen.add(len(multigraph(problem).components))
        assert least_squares(problem).values == dense_least_squares(problem)
        for eps in (Fraction(1, 10), Fraction(7, 3)):
            assert generalized_row_sum(problem, eps).values == dense_generalized_row_sum(problem, eps)
    assert {1, 2, 3} <= components_seen


def test_rational_results_match_dense_oracle():
    # Half-point results give row sums with denominators, cleared by the callers.
    results = [[0, "1/2", 0, "-3/2"], ["-1/2", 0, "1/3", 0], [0, "-1/3", 0, 1], ["3/2", 0, -1, 0]]
    matches = [[0, 1, 0, 2], [1, 0, 1, 0], [0, 1, 0, 3], [2, 0, 3, 0]]
    problem = problem_from_results_matches(
        [[Fraction(x) for x in row] for row in results], matches
    )
    assert least_squares(problem).values == dense_least_squares(problem)
    assert generalized_row_sum(problem, Fraction(2, 9)).values == dense_generalized_row_sum(problem, Fraction(2, 9))


def _factored_primes(monkeypatch):
    tried = []
    factor = linalg._factor

    def spy(rows, p):
        tried.append(p)
        return factor(rows, p)

    monkeypatch.setattr(linalg, "_factor", spy)
    return tried


def _padded(matrix, rhs, n=linalg._DENSE_ROWS):
    """A system of n rows that is lifted: the matrix and the identity on the
    diagonal, the right-hand side and then ones."""
    k = len(matrix)
    rows = [list(row) + [0] * (n - k) for row in matrix] + [[int(i == j) for j in range(n)] for i in range(k, n)]
    return rows, list(rhs) + [1] * (n - k)


def test_determinant_divisible_by_first_prime_retries(monkeypatch):
    first, second, third = list(zip(range(3), linalg._primes()))
    p0, p1, p2 = first[1], second[1], third[1]
    tried = _factored_primes(monkeypatch)
    blocks = _packed_blocks(monkeypatch)
    ones = (Fraction(1),) * (linalg._DENSE_ROWS - 2)
    # Row 0 is the first sparse pivot, and vanishes mod p0; mod p1 the rest
    # is finished packed.
    assert solve(*_padded([[p0]], [1])) == (Fraction(1, p0), Fraction(1), *ones)
    assert tried == [p0, p1]
    assert [block is None for block in blocks] == [False]
    tried.clear()
    blocks.clear()
    assert solve(*_padded([[p0, 0], [0, 1]], [3, 5])) == (Fraction(3, p0), Fraction(5), *ones)
    assert tried == [p0, p1]
    assert [block is None for block in blocks] == [False]
    tried.clear()
    blocks.clear()
    # Row 1 is the first sparse pivot; row 0's column then vanishes in the
    # packed block mod p0 and mod p1.
    matrix, rhs = _padded([[p0 * p1, 1], [0, 1]], [1, 1])
    assert solve(matrix, rhs) == bareiss_solve(matrix, rhs)
    assert tried == [p0, p1, p2]
    assert [block is None for block in blocks] == [True, True, False]


def _strong_probable_prime(m, bases=(2, 3, 5, 7, 11, 13)):
    """Miller-Rabin to the given bases: every prime passes, and these bases
    reject every odd composite below 3.4e12."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def test_primes_are_the_largest_below_two_to_the_thirty():
    top = 1 << 30
    primes = [p for _, p in zip(range(40), linalg._primes())]
    assert primes[:4] == [top - 35, top - 41, top - 83, top - 101]
    assert not any(_strong_probable_prime(m) for m in range(top - 33, top, 2))
    assert all(_strong_probable_prime(p) for p in primes)
    # Descending with no prime skipped between neighbours.
    for larger, smaller in zip(primes, primes[1:]):
        assert not any(_strong_probable_prime(m) for m in range(smaller + 2, larger, 2))


def test_singular_matrices_without_zero_entries():
    rng = random.Random(13)
    for n in range(2, 9):
        for deficiency in (1, 2):
            if deficiency >= n:
                continue
            while True:
                free = [[rng.choice([-9, -5, -2, -1, 1, 3, 4, 8]) for _ in range(n)] for _ in range(n - deficiency)]
                dependent = [
                    [sum(c * row[j] for c, row in zip(coefficients, free)) for j in range(n)]
                    for coefficients in ([rng.randint(-3, 3) or 1 for _ in free] for _ in range(deficiency))
                ]
                matrix = free + dependent
                if all(all(row) for row in matrix):
                    break
            rng.shuffle(matrix)
            rhs = [rng.randint(-5, 5) for _ in range(n)]
            with pytest.raises(SingularMatrixError):
                bareiss_solve(matrix, rhs)
            with pytest.raises(SingularMatrixError):
                solve(matrix, rhs)
            with pytest.raises(SingularMatrixError):
                solve([[Fraction(v, 3) for v in row] for row in matrix], rhs)


def _random_system(rng, n, density, diagonal=False):
    """A random nonsymmetric integer system: rows with each entry nonzero
    at the given density, or always on the diagonal, and a right-hand side.
    A nonzero diagonal keeps sparse systems nonsingular here, and their
    fill-in makes the active block dense."""
    rows = [
        {c: rng.choice([-1, 1]) * rng.randint(1, 30) for c in range(n) if rng.random() < density or diagonal and c == r}
        for r in range(n)
    ]
    return rows, [rng.randint(-10**6, 10**6) for _ in range(n)]


def _packed_blocks(monkeypatch):
    """What each call of ``_factor_dense`` returns: None for a prime that
    divides the block's determinant, else the block."""
    blocks = []
    factor_dense = linalg._factor_dense

    def spy(*args):
        blocks.append(factor_dense(*args))
        return blocks[-1]

    monkeypatch.setattr(linalg, "_factor_dense", spy)
    return blocks


def test_systems_below_sixteen_rows_are_eliminated_without_a_prime(monkeypatch):
    tried = _factored_primes(monkeypatch)
    blocks = _packed_blocks(monkeypatch)
    rng = random.Random(19)
    for n in range(16):
        assert type(factor(_random_system(rng, n, 1.0)[0])) is linalg.Elimination
    assert tried == blocks == []
    assert type(factor(_random_system(rng, 16, 1.0)[0])) is linalg.Factorization
    (block,) = blocks
    assert len(tried) == 1 and block is not None and block[2] == list(range(16))


def test_residual_is_packed_exactly_when_there_is_a_block(monkeypatch):
    # Every lifted factorization has a block: one whose sparse phase met a
    # dense row, and one that ran until fewer than _DENSE_ROWS rows were
    # active.  Each carries its residual packed.
    lane_digits, packed = linalg.Factorization._lane_digits, []
    monkeypatch.setattr(linalg.Factorization, "_lane_digits", lambda self, b: packed.append(self) or lane_digits(self, b))
    blocks = _packed_blocks(monkeypatch)
    rng = random.Random(25)
    seen = set()
    for n in (16, 17, 24, 40):
        for density in (0.1, 0.3, 1.0):
            rows, rhs = _random_system(rng, n, density, diagonal=True)
            dense = [[row.get(c, 0) for c in range(n)] for row in rows]
            packed.clear()
            blocks.clear()
            factorization, solution = solve_linear_system(rows, rhs)
            assert fractions(solution) == bareiss_solve(dense, rhs)
            assert packed == [factorization] and blocks[-1] is not None
            seen.add(len(blocks[-1][0]) < linalg._DENSE_ROWS)
    assert seen == {False, True}


def _path_and_tree():
    """The grounded LS Laplacian and the GRS 1/10 matrix of a 24-object path
    and of a 30-object random tree, each object meeting its parent once or
    twice: lifted systems that never meet a dense row, so that their sparse
    phase runs until fewer than ``_DENSE_ROWS`` rows are active."""
    rng = random.Random(38)
    for n, parent in ((24, lambda b: b - 1), (30, rng.randrange)):
        results, matches = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
        for b in range(1, n):
            a, count = parent(b), rng.randint(1, 2)
            matches[a][b] = matches[b][a] = count
            results[a][b] = rng.randint(-count, count)
            results[b][a] = -results[a][b]
        problem = problem_from_results_matches(results, matches)
        yield _grounded_rows(laplacian(problem), multigraph(problem).components[0])
        yield _grs_system(problem, Fraction(1, 10))[0]


def _blocked_systems():
    """Lifted systems: grounded LS Laplacians and GRS matrices of Swiss
    tables, one with entries of both signs past 2**64, of a path and of a
    sparse tree, and random nonsymmetric matrices, one of them with such
    entries."""
    yield from _path_and_tree()
    generators = benchmark_generators()
    for n in (20, 40):
        table = generators.swiss(random.Random(4300 + n), n)
        problem = problem_from_results_matches(table.R, table.M)
        yield _grounded_rows(laplacian(problem), multigraph(problem).components[0])
        yield _grs_system(problem, Fraction(1, 10))[0]
        yield _grs_system(problem, Fraction(2**70 + 1, 3**45))[0]  # den*I + num*L
    rng = random.Random(26)
    for n, density in ((16, 1.0), (30, 0.3), (45, 0.1)):
        yield _random_system(rng, n, density, diagonal=True)[0]
    rows = _random_system(rng, 24, 0.4, diagonal=True)[0]
    yield [{c: v << rng.randint(60, 80) for c, v in row.items()} for row in rows]


def test_packed_residual_solves_many_right_hand_sides_like_bareiss():
    # Right-hand sides in an order that packs the columns, then packs them
    # wider for a larger b, then solves a smaller b in the wider lanes.
    rng = random.Random(27)
    for rows in _blocked_systems():
        n = len(rows)
        dense = [[row.get(c, 0) for c in range(n)] for row in rows]
        factorization = factor(rows)
        assert factorization.substitution is not None
        widths = []
        for rhs in (
            [rng.randint(-10**6, 10**6) for _ in range(n)],
            [int(k == n // 3) for k in range(n)],
            [rng.choice([-1, 1]) * rng.randint(2**64, 2**90) for _ in range(n)],
            [0] * n,
            [rng.randint(-3, 3) for _ in range(n)],
        ):
            assert fractions(factorization.solve(rhs)) == bareiss_solve(dense, rhs)
            widths.append(factorization.packed[0].width)
        assert widths[0] == widths[1] < widths[2] == widths[3] == widths[4]


@pytest.mark.parametrize(
    "density, sizes", [(0.1, (45, 60)), (0.3, (23, 31, 40)), (1.0, (16, 17, 24)), (0.6, (20, 33))]
)
def test_packed_phase_matches_bareiss_on_nonsymmetric_systems(monkeypatch, density, sizes):
    rng = random.Random(int(density * 100))
    blocks = _packed_blocks(monkeypatch)
    for n in sizes:
        rows, rhs = _random_system(rng, n, density, diagonal=density < 0.5)
        dense = [[row.get(c, 0) for c in range(n)] for row in rows]
        blocks.clear()
        factorization = factor(rows)
        assert blocks[-1] is not None and factorization.substitution is not None
        assert fractions(factorization.solve(rhs)) == bareiss_solve(dense, rhs)
        unit = [int(k == n // 2) for k in range(n)]
        assert fractions(factorization.solve(unit)) == bareiss_solve(dense, unit)


def test_packed_phase_detects_rank_deficiency(monkeypatch):
    rng = random.Random(20)
    blocks = _packed_blocks(monkeypatch)
    for n, deficiency in ((16, 1), (20, 1), (24, 3), (30, 2)):
        free = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - deficiency)]
        dependent = [
            [sum(c * row[j] for c, row in zip(coefficients, free)) for j in range(n)]
            for coefficients in ([rng.randint(-3, 3) for _ in free] for _ in range(deficiency))
        ]
        matrix = free + dependent
        rng.shuffle(matrix)
        rhs = [rng.randint(-5, 5) for _ in range(n)]
        with pytest.raises(SingularMatrixError):
            bareiss_solve(matrix, rhs)
        blocks.clear()
        with pytest.raises(SingularMatrixError):
            solve(matrix, rhs)
        assert blocks and all(block is None for block in blocks)


def test_determinant_divisible_by_first_prime_retries_in_the_packed_block(monkeypatch):
    # Row 0 is p0 * e_0 plus a combination of the other rows, so det A is p0
    # times the cofactor of entry (0, 0): divisible by p0 and, here, nonzero.
    p0, p1 = (p for _, p in zip(range(2), linalg._primes()))
    rng = random.Random(21)
    n = 20
    others = [[rng.randint(-9, 9) or 1 for _ in range(n)] for _ in range(n - 1)]
    coefficients = [rng.randint(1, 3) for _ in others]
    first = [sum(c * row[j] for c, row in zip(coefficients, others)) + p0 * (j == 0) for j in range(n)]
    matrix = [first] + others
    rhs = [rng.randint(-50, 50) for _ in range(n)]
    tried = _factored_primes(monkeypatch)
    blocks = _packed_blocks(monkeypatch)
    assert solve(matrix, rhs) == bareiss_solve(matrix, rhs)
    assert tried == [p0, p1]
    assert len(blocks) == 2 and blocks[0] is None and blocks[1] is not None


def _lane_values(x, width, count):
    return [(x >> (k * width)) & ((1 << width) - 1) for k in range(count)]


def test_lane_fold_reduces_like_per_lane_mod_and_updates_never_carry():
    rng = random.Random(22)
    for p in [p for _, p in zip(range(40), linalg._primes())]:
        for m, n in ((16, 16), (16, 150), (150, 150)):
            bound = n * (p - 1) ** 2 + p - 1
            lanes = linalg._Lanes(p, m, bound)
            width = lanes.width
            assert bound < 1 << (width - 2)
            values = [bound, bound - 1, 0, p - 1, p, 2 * p - 1, 2 * p, bound - bound % p]
            values += [rng.randint(0, bound) for _ in range(m - len(values))]
            packed = sum(v << (k * width) for k, v in enumerate(values))
            reduced = lanes.reduce(packed)
            assert _lane_values(reduced, width, m + 1) == [v % p for v in values] + [0]
            assert lanes.unpack(reduced) == tuple(v % p for v in values)
            # n updates of the largest residue times the largest residue, on
            # top of the largest residue, meet the bound and carry nowhere.
            top = lanes.pack([p - 1] * m)
            y = top
            for _ in range(n):
                y += (p - 1) * top
            assert _lane_values(y, width, m + 1) == [bound] * m + [0]
            assert lanes.reduce(y) == lanes.pack([bound % p] * m)
            # Any integer reduces as its m lanes in two's complement: lanes past
            # the bound, a borrow past the top lane, bits above it.
            full = [rng.randrange(1 << width) for _ in range(m)]
            x = sum(v << (k * width) for k, v in enumerate(full))
            for y in (x, x - (1 << m * width), x + (rng.randrange(1, 1 << 64) << m * width)):
                assert lanes.unpack(lanes.reduce(y)) == tuple(v % p for v in full)


def _tap_digits(monkeypatch, edit):
    """Pass every lifted digit through ``edit(digit, p)``, from the solvers
    that ``_substitution`` builds."""
    substitution = linalg._substitution

    def tapped_substitution(steps, block, p, n):
        solve = substitution(steps, block, p, n)
        return lambda rhs: edit(solve(rhs), p)

    monkeypatch.setattr(linalg, "_substitution", tapped_substitution)


# A wrong top digit can be absorbed by the reconstruction (a fraction p*a/(p*q)
# still reduces to the true x), so only the lower digits must make it raise.
def _corrupted_digit_raises(monkeypatch, rows, rhs, which, entry, earlier=()):
    """Solve the right-hand sides ``earlier`` and then rhs on one
    factorization, counting rhs's digits through a tap on every digit; then
    again on a new factorization, with one entry of rhs's first or middle
    digit moved by one: that must raise."""
    calls, target = [], None

    def edit(digit, p):
        calls.append(p)
        if len(calls) - 1 == target:
            digit[entry] = (digit[entry] + 1) % p
        return digit

    dense = [[row.get(c, 0) for c in range(len(rows))] for row in rows]
    with monkeypatch.context() as m:
        _tap_digits(m, edit)
        factorization = factor(rows)
        for b in earlier:
            factorization.solve(b)
        calls.clear()
        assert fractions(factorization.solve(rhs)) == bareiss_solve(dense, rhs)
        digits = len(calls)
        assert digits >= 3
        factorization = factor(rows)
        for b in earlier:
            factorization.solve(b)
        calls.clear()
        target = {"first": 0, "middle": digits // 2}[which]
        with pytest.raises(ArithmeticError):
            factorization.solve(rhs)
        assert len(calls) == digits


@pytest.mark.parametrize("which", ["first", "middle"])
def test_corrupted_lifted_digit_raises(monkeypatch, which):
    # A tridiagonal matrix, a path and a tree never meet a dense row: one
    # sparse pivot's entry of a digit and one of the block's, each through
    # the packed LU that finishes the last 15 rows.
    rng = random.Random(14)
    n = linalg._DENSE_ROWS
    matrix = [
        [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 9)) if abs(i - j) <= 1 else 0 for j in range(n)]
        for i in range(n)
    ]
    rhs = [rng.randint(-10**6, 10**6) for _ in range(n)]
    systems = [sparse_integer_system(matrix, rhs)]
    systems += [(rows, [rng.randint(-10**6, 10**6) for _ in rows]) for rows in list(_path_and_tree())[::3]]
    blocks = _packed_blocks(monkeypatch)
    for rows, rhs in systems:
        blocks.clear()
        factor(rows)
        ((_, _, columns, _, _),) = blocks
        assert len(columns) == n - 1
        sparse = min(set(range(len(rows))).difference(columns))
        for entry in (sparse, columns[len(columns) // 2]):
            _corrupted_digit_raises(monkeypatch, rows, rhs, which, entry)


@pytest.mark.parametrize("which", ["first", "middle"])
def test_corrupted_packed_lane_of_a_digit_raises(monkeypatch, which):
    # A block column's entry of a digit, on a first solve and on a third:
    # both substitute through the packed LU.
    rows, rhs = _random_system(random.Random(17), 24, 0.5)
    blocks = _packed_blocks(monkeypatch)
    factor(rows)
    ((_, _, columns, _, _),) = blocks
    entry = columns[len(columns) // 2]
    unit = [int(k == 5) for k in range(24)]
    _corrupted_digit_raises(monkeypatch, rows, rhs, which, entry)
    _corrupted_digit_raises(monkeypatch, rows, rhs, which, entry, earlier=[rhs, unit])


def _free_variables(function):
    """The values a closure reads from its enclosing function, by name."""
    return {name: cell.cell_contents for name, cell in zip(function.__code__.co_freevars, function.__closure__)}


@pytest.mark.parametrize("kind", ["block row", "sparse pivot"])
def test_corrupted_lane_of_a_packed_column_raises(monkeypatch, kind):
    # One lane moved by one in a packed L or U column of a factorization's
    # solver, before its first solve and after one: the solve raises.  On a
    # sparse random system, a path and a tree.
    rng = random.Random(18)
    systems = [_random_system(rng, 45, 0.1, diagonal=True)]
    systems += [(rows, [rng.randint(-10**6, 10**6) for _ in rows]) for rows in list(_path_and_tree())[::3]]
    blocks = _packed_blocks(monkeypatch)
    for rows, rhs in systems:
        dense = [[row.get(c, 0) for c in range(len(rows))] for row in rows]
        blocks.clear()
        factor(rows)
        block_rows = blocks[-1][0]
        steps = len(rows) - len(block_rows)
        assert steps >= 2
        position = {"block row": steps + len(block_rows) // 2, "sparse pivot": steps // 2}[kind]
        for side in ("lower_columns", "upper"):
            for earlier in ([], [rhs]):
                factorization = factor(rows)
                for b in earlier:
                    assert fractions(factorization.solve(b)) == bareiss_solve(dense, b)
                width, columns = (_free_variables(factorization.substitution)[name] for name in ("width", side))
                if side == "lower_columns":  # lane 1: the next pivot's row
                    columns[position] += 1 << width
                else:  # from the last pivot back; lane 1: the previous pivot's row
                    c, column, inverse = columns[-1 - position]
                    columns[-1 - position] = c, column + (1 << width), inverse
                with pytest.raises(ArithmeticError):
                    factorization.solve(rhs)


def _once_and_again_systems():
    """Systems with a dense block, by name: grounded LS Laplacians and GRS
    matrices of Swiss tables, the GRS matrix of a 40-team table with a
    100-object path, whose sparse steps make a long tail before the block,
    random nonsymmetric matrices from 16 to 60 rows at densities from 0.1
    to 1, and dense ones whose leading diagonal entries are zero, so that
    rows are passed over as pivots."""
    generators = benchmark_generators()
    for n in (20, 40, 80):
        table = generators.swiss(random.Random(4700 + n), n)
        problem = problem_from_results_matches(table.R, table.M)
        yield f"ls{n}", _grounded_rows(laplacian(problem), multigraph(problem).components[0])
        yield f"grs{n}", _grs_system(problem, Fraction(1, 10))[0]
    table, path = generators.swiss(random.Random(4740), 40), generators.Problem(140, prefix="T")
    for a, b, score in table.matches:
        path.play(a, b, int(2 * score - 1))
    rng = random.Random(37)
    for a in range(39, 139):  # the path: each object meets the next once, the first the table's last
        path.play(a, a + 1, rng.choice([-1, 0, 1]))
    yield "grs40-path100", _grs_system(problem_from_results_matches(path.R, path.M), Fraction(1, 10))[0]
    rng = random.Random(35)
    for n, density in ((16, 1.0), (24, 0.6), (33, 0.3), (45, 0.1), (60, 0.2), (40, 0.5)):
        yield f"random{n}-{density}", _random_system(rng, n, density, diagonal=density < 0.5)[0]
    for n, zeros in ((16, 3), (30, 8)):
        rows = _random_system(rng, n, 1.0)[0]
        yield f"passed-over{n}", [{c: v for c, v in row.items() if c != r or r >= zeros} for r, row in enumerate(rows)]


def test_first_and_later_solves_match_bareiss_and_each_other(monkeypatch):
    # The solver is built once, with the factorization; every right-hand
    # side takes its digits from it: b, b again, and two more.
    built = []
    substitution = linalg._substitution
    monkeypatch.setattr(linalg, "_substitution", lambda *args: built.append(args) or substitution(*args))
    blocks = _packed_blocks(monkeypatch)
    rng = random.Random(36)
    passed_over, tails = set(), {}
    for name, rows in _once_and_again_systems():
        n = len(rows)
        dense = [[row.get(c, 0) for c in range(n)] for row in rows]
        rhs = [rng.randint(-10**6, 10**6) for _ in range(n)]
        built.clear()
        factorization = factor(rows)
        block_rows, _, _, pivots, _ = blocks[-1]
        if [pivot for pivot, *_ in pivots] != block_rows:
            passed_over.add(name)
        tails[name] = n - len(block_rows)
        assert len(built) == 1, name
        first = factorization.solve(rhs)
        assert fractions(first) == bareiss_solve(dense, rhs), name
        assert factorization.solve(rhs) == first, name
        unit = [int(k == n // 3) for k in range(n)]
        other = [rng.randint(-3, 3) for _ in range(n)]
        for b in (unit, other):
            assert fractions(factorization.solve(b)) == bareiss_solve(dense, b), name
        assert len(built) == 1, name
    assert {"passed-over16", "passed-over30"} <= passed_over
    assert tails["grs40-path100"] >= 100 > max(tails[name] for name in tails if name != "grs40-path100")


def test_rank_and_a_sweep_build_one_solver_per_factorization(monkeypatch):
    # Each lifted factorization, solved once by a ranking or more often by
    # the sweep's columns, builds one solver.
    built, solves = [], Counter()
    substitution, solve = linalg._substitution, linalg.Factorization.solve
    monkeypatch.setattr(linalg, "_substitution", lambda *args: built.append(args) or substitution(*args))
    monkeypatch.setattr(linalg.Factorization, "solve", lambda self, b: solves.update([self]) or solve(self, b))
    swiss40 = str(Path(__file__).parent / "golden" / "inputs" / "swiss40.json")
    with contextlib.redirect_stdout(io.StringIO()):
        for method in (["ls"], ["grs", "--epsilon", "1/10"]):
            assert main(["rank", "--method", *method, "--input", swiss40]) == 0
        assert len(built) == 2 and list(solves.values()) == [1, 1]
        built.clear()
        solves.clear()
        assert main(["check", "--axiom", "iim", "--method", "ls", "--input", swiss40]) == 2
    assert len(built) == len(solves) and max(solves.values()) > 1


def test_wrong_reconstruction_raises(monkeypatch):
    reconstruct = linalg._reconstruct

    def off_by_one(u, modulus, bound):
        a, q = reconstruct(u, modulus, bound)
        return a + 1, q

    monkeypatch.setattr(linalg, "_reconstruct", off_by_one)
    with pytest.raises(ArithmeticError):
        solve(*_padded([[2, 1], [1, 3]], [1, 2]))
