"""Independent reference implementations used only to cross-check the library.

These deliberately share no code with the production search: full layer
matrices are enumerated for every pair (not just the two relevant rows) and
pairings are enumerated as raw permutations instead of matchings.
Exponential, so callers keep inputs tiny.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

from pairrank.core import RankingProblem, laplacian, multigraph, problem_from_results_matches
from pairrank.linalg import SingularMatrixError
from pairrank.methods import WeakOrder


def fubini(n: int) -> int:
    """Ordered Bell numbers via the binomial recurrence."""
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(comb(m, k) * values[m - k] for k in range(1, m + 1)))
    return values[n]


def matrix_apply(matrix, vector):
    return tuple(
        sum((Fraction(matrix[i][j]) * vector[j] for j in range(len(vector))), Fraction(0))
        for i in range(len(matrix))
    )


def benchmark_generators():
    """The benchmark's seeded input generators (``perfbench/gen.py``), which
    share no code with the package; the Swiss-system tables live there."""
    folder = str(Path(__file__).parent.parent / "perfbench")
    sys.path.insert(0, folder)
    try:
        import gen
    finally:
        sys.path.remove(folder)
    return gen


def bareiss_solve(matrix, rhs) -> tuple[Fraction, ...]:
    """Dense fraction-free elimination (Bareiss) with rational back-substitution.

    Rows are scaled to integers; every division in the elimination is exact.
    """
    n = len(matrix)
    aug: list[list[int]] = []
    for i in range(n):
        row = [Fraction(x) for x in matrix[i]]
        b = Fraction(rhs[i])
        scale = lcm(*(x.denominator for x in row), b.denominator)
        aug.append([int(x * scale) for x in row] + [int(b * scale)])
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col]
            row_r, row_p = aug[r], aug[col]
            for c in range(col, n + 1):
                row_r[c] = (pivot * row_r[c] - factor * row_p[c]) // prev
        prev = pivot
    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for c in range(i + 1, n):
            acc -= aug[i][c] * solution[c]
        solution[i] = acc / aug[i][i]
    return tuple(solution)


def dense_generalized_row_sum(problem: RankingProblem, epsilon) -> tuple[Fraction, ...]:
    """GRS ratings from the dense rational system ``(I + eps*L) x = (1 + eps*m*n) s``."""
    eps = Fraction(epsilon)
    n = problem.n
    lap = laplacian(problem)
    factor = 1 + eps * problem.max_multiplicity() * n
    matrix = [[eps * lap[i][j] + (i == j) for j in range(n)] for i in range(n)]
    return bareiss_solve(matrix, [factor * v for v in problem.row_sums])


def dense_least_squares(problem: RankingProblem) -> tuple[Fraction, ...]:
    """LS ratings from the shifted system ``(L_C + J) q = s_C`` on each component."""
    lap = laplacian(problem)
    values = [Fraction(0)] * problem.n
    for component in multigraph(problem).components:
        matrix = [[lap[a][b] + 1 for b in component] for a in component]
        solved = bareiss_solve(matrix, [problem.row_sums[a] for a in component])
        for a, value in zip(component, solved):
            values[a] = value
    return tuple(values)


def naive_sc_dominance(
    problem: RankingProblem,
    order: WeakOrder,
    i: int,
    j: int,
    *,
    strict_from_results_only: bool = False,
) -> str:
    """Exhaustive dominance verdict over full decompositions and permutations."""
    n = problem.n
    if sum(problem.matches[i]) != sum(problem.matches[j]):
        return "none"
    depth = problem.max_multiplicity()
    if depth == 0:
        return "weak"

    pairs = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if problem.matches[a][b] > 0
    ]
    per_pair_options = []
    for a, b in pairs:
        mu = problem.matches[a][b]
        rho = int(problem.results[a][b])
        options = [
            (subset, split)
            for subset in itertools.combinations(range(depth), mu)
            for split in itertools.product((-1, 0, 1), repeat=mu)
            if sum(split) == rho
        ]
        per_pair_options.append(options)

    best = "none"
    for combo in itertools.product(*per_pair_options):
        layers_m = [[[0] * n for _ in range(n)] for _ in range(depth)]
        layers_r = [[[0] * n for _ in range(n)] for _ in range(depth)]
        for (a, b), (subset, split) in zip(pairs, combo):
            for p, r in zip(subset, split):
                layers_m[p][a][b] = layers_m[p][b][a] = 1
                layers_r[p][a][b] = r
                layers_r[p][b][a] = -r
        opponents_i = [
            sorted(k for k in range(n) if k != i and layers_m[p][i][k]) for p in range(depth)
        ]
        opponents_j = [
            sorted(l for l in range(n) if l != j and layers_m[p][j][l]) for p in range(depth)
        ]
        if any(len(a) != len(b) for a, b in zip(opponents_i, opponents_j)):
            continue
        for family in itertools.product(
            *[itertools.permutations(opponents_j[p]) for p in range(depth)]
        ):
            valid = True
            strict = False
            for p in range(depth):
                for k, l in zip(opponents_i[p], family[p]):
                    if layers_r[p][i][k] < layers_r[p][j][l] or not order.ranks_at_least(k, l):
                        valid = False
                        break
                    if layers_r[p][i][k] > layers_r[p][j][l]:
                        strict = True
                    elif not strict_from_results_only and order.ranks_above(k, l):
                        strict = True
                if not valid:
                    break
            if valid:
                if strict:
                    return "strict"
                best = "weak"
    return best


# --- single-pair sweeps: the full-rebuild path --------------------------------


def rebuild_with_pair(problem: RankingProblem, i: int, j: int, result, match_count: int) -> RankingProblem:
    """Copy the whole problem, change one pair and re-validate every entry."""
    results = [list(row) for row in problem.results]
    matches = [list(row) for row in problem.matches]
    results[i][j] = Fraction(result)
    results[j][i] = -Fraction(result)
    matches[i][j] = matches[j][i] = match_count
    return problem_from_results_matches(results, matches)


def _variants(problem: RankingProblem, a: int, b: int):
    old = (problem.results[a][b], problem.matches[a][b])
    for m in (old[1] - 1, old[1], old[1] + 1):
        if m < 0:
            continue
        for r in range(-m, m + 1):
            if (r, m) != old:
                yield Fraction(r), m


def _is_macrovertex(problem: RankingProblem, members) -> bool:
    return all(
        len({problem.matches[i][k] for i in members}) == 1
        for k in range(problem.n)
        if k not in members
    )


def _sweep_steps(problem: RankingProblem, axiom: str):
    """(changed pair, watched objects, context builder) in sweep order."""
    n = problem.n
    if axiom == "iim":
        for a, b in itertools.combinations(range(n), 2):
            entry = {"result": str(problem.results[a][b]), "matches": problem.matches[a][b]}
            rest = [x for x in range(n) if x not in (a, b)]
            yield a, b, rest, lambda r, m, a=a, b=b, entry=entry: {
                "perturbed_pair": [a, b],
                "base_entry": entry,
                "perturbed_entry": {"result": str(r), "matches": m},
            }
        return
    for size in range(2, n):
        for members in itertools.combinations(range(n), size):
            if not _is_macrovertex(problem, members):
                continue
            outside = [k for k in range(n) if k not in members]
            change, watch = (members, outside) if axiom == "mvi" else (outside, members)
            if len(change) < 2 or len(watch) < 2:
                continue
            for a, b in itertools.combinations(change, 2):
                yield a, b, list(watch), lambda r, m, a=a, b=b, members=members: {
                    "macrovertex": sorted(members),
                    "perturbed_pair": [a, b],
                }


def sweep_outcomes(scorer, problem: RankingProblem, axiom: str) -> list:
    """Every instance of the sweep in order, up to and including the first
    violation: None for a pass, else (witness, detail).  Each instance gets a
    full rebuild and a fresh scorer call."""
    base = scorer(problem)
    out = []
    for a, b, watch, context in _sweep_steps(problem, axiom):
        for r, m in _variants(problem, a, b):
            for i, j in itertools.combinations(watch, 2):
                perturbed = rebuild_with_pair(problem, a, b, r, m)
                after = scorer(perturbed)
                if base[i] >= base[j] and after[i] < after[j]:
                    flipped = (i, j)
                elif base[j] >= base[i] and after[j] < after[i]:
                    flipped = (j, i)
                else:
                    out.append(None)
                    continue
                witness = context(r, m)
                witness.update(
                    {
                        "target_pair": [i, j],
                        "flipped": list(flipped),
                        "base_ratings": [str(v) for v in base.values],
                        "perturbed_ratings": [str(v) for v in after.values],
                        "perturbed_results": [[str(x) for x in row] for row in perturbed.results],
                        "perturbed_matches": [list(row) for row in perturbed.matches],
                    }
                )
                detail = f"X{flipped[0] + 1} >= X{flipped[1] + 1} before the change but < after it"
                out.append((witness, detail))
                return out
    return out


def sweep_report(method: str, axiom: str, outcomes: list, budget: int | None = None) -> dict:
    """The report dict a sweep over ``outcomes`` gives under ``budget``."""
    count = 0
    for outcome in outcomes:
        if budget is not None and count >= budget:
            return _report(axiom, method, "satisfied-on-instances-checked", None, count, "instance budget exhausted")
        count += 1
        if outcome is not None:
            witness, detail = outcome
            return _report(axiom, method, "violated", witness, count, detail)
    return _report(axiom, method, "satisfied-on-instances-checked", None, count, "")


def _report(axiom, method, verdict, witness, count, detail) -> dict:
    return {
        "axiom": axiom,
        "method": method,
        "verdict": verdict,
        "witness": witness,
        "instances_checked": count,
        "detail": detail,
    }
