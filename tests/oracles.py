"""Independent reference implementations used only to cross-check the library.

These deliberately share no code with the production search: full layer
matrices are enumerated for every pair (not just the two relevant rows) and
pairings are enumerated as raw permutations instead of matchings.
Exponential, so callers keep inputs tiny.

The replay checks at the end take one witness each: ``evaluate_witness``
re-derives an SC/WSC dominance from its layers and pairings, and the IIM,
MVA and MVI instance checks validate a single-pair change, re-score both
problems and judge the watched pair with this module's own witness and
report builder, the one ``sweep_outcomes`` uses.

From the package the oracles import only problem construction and the
result, scorer and exception types; the Laplacian, connected components,
macrovertex test, changed-pair diff, CSV match checks and the list of all
weak orders are written out here again, so a fault in the package's copy
cannot hide from them.
"""

from __future__ import annotations

import csv
import itertools
import json
import sys
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

from pairrank.axioms import AxiomReport
from pairrank.core import InvalidProblemError, RankingProblem, problem_from_results_matches
from pairrank.linalg import SingularMatrixError
from pairrank.methods import RatingVector, Scorer, WeakOrder
from pairrank.serialize import IngestError, LabeledProblem, SchemaError

from helpers import ranks_above, ranks_at_least


def fubini(n: int) -> int:
    """Ordered Bell numbers via the binomial recurrence."""
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(comb(m, k) * values[m - k] for k in range(1, m + 1)))
    return values[n]


def reference_weak_order_levels(n: int) -> list[tuple[int, ...]]:
    """Every weak order on n objects as its contiguous level tuple, picked
    from all of ``range(n) ** n`` and sorted by the set partition's
    restricted-growth string (blocks numbered by first member), then by
    the block at each level."""

    def key(levels):
        block: dict[int, int] = {}
        growth = tuple(block.setdefault(level, len(block)) for level in levels)
        return growth, tuple(block[level] for level in range(len(block)))

    contiguous = [t for t in itertools.product(range(n), repeat=n) if set(t) == set(range(len(set(t))))]
    return sorted(contiguous, key=key)


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


def sparse_integer_system(matrix, rhs) -> tuple[list[dict[int, int]], list[int]]:
    """Dense rational rows and right-hand side as the solver takes them:
    each equation scaled by the lcm of its denominators, each row a dict
    of its nonzero entries."""
    rows, b = [], []
    for row, target in zip(matrix, rhs):
        row = [Fraction(x) for x in row]
        target = Fraction(target)
        scale = lcm(target.denominator, *(x.denominator for x in row))
        rows.append({c: int(x * scale) for c, x in enumerate(row) if x})
        b.append(int(target * scale))
    return rows, b


def dense_laplacian(problem: RankingProblem) -> list[list[int]]:
    """``L = D - M``: each object's match total on the diagonal, minus the
    match counts off it."""
    m = problem.matches
    return [[sum(m[a]) if a == b else -m[a][b] for b in range(problem.n)] for a in range(problem.n)]


def connected_components(problem: RankingProblem) -> list[list[int]]:
    """Connected components of the match graph, by repeated flood fill."""
    left = set(range(problem.n))
    out = []
    while left:
        component = {min(left)}
        grown = True
        while grown:
            reached = {b for a in component for b in left if problem.matches[a][b] > 0}
            grown = not reached <= component
            component |= reached
        left -= component
        out.append(sorted(component))
    return out


def dense_generalized_row_sum(problem: RankingProblem, epsilon) -> tuple[Fraction, ...]:
    """GRS ratings from the dense rational system ``(I + eps*L) x = (1 + eps*m*n) s``."""
    eps = Fraction(epsilon)
    n = problem.n
    lap = dense_laplacian(problem)
    factor = 1 + eps * problem.max_multiplicity() * n
    matrix = [[eps * lap[i][j] + (i == j) for j in range(n)] for i in range(n)]
    return bareiss_solve(matrix, [factor * v for v in problem.row_sums])


def dense_least_squares(problem: RankingProblem) -> tuple[Fraction, ...]:
    """LS ratings from the shifted system ``(L_C + J) q = s_C`` on each component."""
    lap = dense_laplacian(problem)
    values = [Fraction(0)] * problem.n
    for component in connected_components(problem):
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
                    if layers_r[p][i][k] < layers_r[p][j][l] or not ranks_at_least(order, k, l):
                        valid = False
                        break
                    if layers_r[p][i][k] > layers_r[p][j][l]:
                        strict = True
                    elif not strict_from_results_only and ranks_above(order, k, l):
                        strict = True
                if not valid:
                    break
            if valid:
                if strict:
                    return "strict"
                best = "weak"
    return best


# --- single-pair sweeps: the full-rebuild path --------------------------------


def _parity(problem: RankingProblem) -> RatingVector:
    # Not independent of anything: every change of a match count can flip
    # all tied pairs, so IIM, MVA and MVI break at varied sweep positions.
    sign = 1 if sum(map(sum, problem.matches)) % 4 == 0 else -1
    values = tuple(s + sign * Fraction(i, 100) for i, s in enumerate(problem.row_sums))
    return RatingVector(values=values, method="parity", problem=problem)


# A test scorer with no closed-form pair update, so sweeps re-score it.
PARITY = Scorer(tag="parity", fn=_parity)


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
    """All members play each outsider equally often."""
    return all(
        len({problem.matches[i][k] for i in members}) == 1
        for k in range(problem.n)
        if k not in members
    )


def reference_macrovertices(problem: RankingProblem) -> list[tuple[int, ...]]:
    """Every member set of size 2..n-1 that is a macrovertex, by testing
    every subset: smaller sets first, sets of one size in lexicographic order."""
    n = problem.n
    return [
        members
        for size in range(2, n)
        for members in itertools.combinations(range(n), size)
        if _is_macrovertex(problem, members)
    ]


def _mv_context(members, changed) -> dict:
    return {"macrovertex": sorted(members), "perturbed_pair": list(changed)}


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
    for members in reference_macrovertices(problem):
        outside = [k for k in range(n) if k not in members]
        change, watch = (members, outside) if axiom == "mvi" else (outside, members)
        if len(change) < 2 or len(watch) < 2:
            continue
        for a, b in itertools.combinations(change, 2):
            yield a, b, list(watch), lambda r, m, a=a, b=b, members=members: _mv_context(members, (a, b))


def _judge(base, after, i, j, context: dict, perturbed: RankingProblem):
    """(witness, detail) when the ratings ``base`` and ``after`` flip the
    order of i and j, else None: one of them rated at least as high as the
    other before the change and strictly lower after it."""
    if base[i] >= base[j] and after[i] < after[j]:
        flipped = (i, j)
    elif base[j] >= base[i] and after[j] < after[i]:
        flipped = (j, i)
    else:
        return None
    witness = dict(context)
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
    return witness, f"X{flipped[0] + 1} >= X{flipped[1] + 1} before the change but < after it"


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
                out.append(_judge(base, scorer(perturbed), i, j, context(r, m), perturbed))
                if out[-1] is not None:
                    return out
    return out


def sweep_report(method: str, axiom: str, outcomes: list, budget: int | None = None) -> dict:
    """The report dict a sweep over ``outcomes`` gives under ``budget``."""
    count = 0
    for outcome in outcomes:
        if budget is not None and count >= budget:
            return _report(axiom, method, "budget-exceeded", None, count, "instance budget exhausted")
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


# --- ingestion: the three-pass reference --------------------------------------


def reference_problem(results, matches) -> RankingProblem:
    """Validation with no memo: every cell through ``Fraction``, every pair
    checked with ``Fraction`` arithmetic, in the library's order and with
    its diagnostics."""
    r = _reference_rationals(results, "results")
    m = _reference_integers(matches, "matches")
    n = len(m)
    if len(r) != n:
        raise InvalidProblemError(f"results is {len(r)}x{len(r)} but matches is {n}x{n}")
    if n == 0:
        raise InvalidProblemError("a ranking problem needs at least one object")
    for i in range(n):
        if r[i][i] != 0:
            raise InvalidProblemError(f"results diagonal must be zero at X{i + 1}")
        if m[i][i] != 0:
            raise InvalidProblemError(f"matches diagonal must be zero at X{i + 1}")
        for j in range(i + 1, n):
            where = f"(X{i + 1}, X{j + 1})"
            if r[i][j] != -r[j][i]:
                raise InvalidProblemError(f"skew-symmetry violated at {where}: {r[i][j]} vs {r[j][i]}")
            if m[i][j] != m[j][i]:
                raise InvalidProblemError(f"matches symmetry violated at {where}")
            if m[i][j] < 0:
                raise InvalidProblemError(f"negative match count at {where}")
            if abs(r[i][j]) > m[i][j]:
                raise InvalidProblemError(
                    f"|result| <= matches violated at {where}: |{r[i][j]}| > {m[i][j]}"
                )
    return RankingProblem(results=r, matches=m)


def _reference_rationals(rows, what):
    n = len(rows)
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidProblemError(f"{what} is not square: row {i} has {len(row)} entries, expected {n}")
        try:
            out.append(tuple(Fraction(x) for x in row))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidProblemError(f"{what} row {i} has a non-rational entry: {exc}") from exc
    return tuple(out)


def _reference_integers(rows, what):
    n = len(rows)
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidProblemError(f"{what} is not square: row {i} has {len(row)} entries, expected {n}")
        ints = []
        for j, x in enumerate(row):
            try:
                value = Fraction(x)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise InvalidProblemError(f"{what}[{i}][{j}] is not a number: {exc}") from exc
            if value.denominator != 1:
                raise InvalidProblemError(f"{what}[{i}][{j}] = {x} is not an integer")
            ints.append(int(value))
        out.append(tuple(ints))
    return tuple(out)


def reference_parse_problem_json(text: str) -> LabeledProblem:
    """A problem document read cell by cell, with the library's diagnostics."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: not valid JSON ({exc})") from exc

    def require(condition, path, message):
        if not condition:
            raise SchemaError(f"{path}: {message}")

    require(isinstance(document, dict), "$", "document must be an object")
    require(document.get("version") == 1, "$.version", "must be 1")
    labels = document.get("labels")
    require(isinstance(labels, list) and labels, "$.labels", "must be a nonempty array")
    for idx, label in enumerate(labels):
        require(isinstance(label, str) and label != "", f"$.labels[{idx}]", "must be a nonempty string")
    require(len(set(labels)) == len(labels), "$.labels", "labels must be unique")
    n = len(labels)
    rows = {}
    for name in ("R", "M"):
        raw = document.get(name)
        require(isinstance(raw, list) and len(raw) == n, f"$.{name}", f"must be a {n}x{n} array")
        rows[name] = []
        for i, row in enumerate(raw):
            require(isinstance(row, list) and len(row) == n, f"$.{name}[{i}]", f"must have {n} entries")
            for j, cell in enumerate(row):
                path = f"$.{name}[{i}][{j}]"
                if name == "M":
                    require(isinstance(cell, int) and not isinstance(cell, bool), path, "must be an integer")
                    continue
                require(
                    isinstance(cell, (str, int)) and not isinstance(cell, bool),
                    path,
                    "must be a rational string or integer (floats are not exact)",
                )
                try:
                    Fraction(cell)
                except (ValueError, ZeroDivisionError) as exc:
                    raise SchemaError(f"{path}: not a rational: {cell!r}") from exc
            rows[name].append(row)
    note = document.get("note", "")
    require(isinstance(note, str), "$.note", "must be a string")
    try:
        problem = reference_problem(rows["R"], rows["M"])
    except InvalidProblemError as exc:
        raise SchemaError(f"$: {exc}") from exc
    return LabeledProblem(labels=tuple(labels), problem=problem, note=note)


def reference_ingest_matches(stream) -> LabeledProblem:
    """A CSV match list summed into a full score matrix T, which
    :func:`problem_from_tournament` turns into a problem."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty input: expected a header row") from None
    if tuple(h.strip().lower() for h in header) != ("object_a", "object_b", "score_a", "score_b"):
        raise IngestError(f"line 1: expected header object_a,object_b,score_a,score_b, got {','.join(header)}")
    labels: list[str] = []
    scores: dict[tuple[int, int], Fraction] = {}
    for line, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise IngestError(f"line {line}: expected 4 fields, got {len(row)}")
        label_a, label_b = row[0].strip(), row[1].strip()
        parsed = []
        for text in row[2:]:
            try:
                parsed.append(Fraction(text.strip()))
            except (ValueError, ZeroDivisionError):
                raise IngestError(f"line {line}: not a rational number: {text!r}") from None
        score_a, score_b = parsed
        if not label_a or not label_b:
            raise IngestError(f"line {line}: empty object label")
        if label_a == label_b:
            raise IngestError(f"line {line}: self-match for {label_a!r}")
        if score_a < 0 or score_b < 0:
            raise IngestError(f"line {line}: scores must be nonnegative")
        if score_a + score_b != 1:
            raise IngestError(f"line {line}: scores must sum to 1, got {score_a} + {score_b}")
        for label in (label_a, label_b):
            if label not in labels:
                labels.append(label)
        a, b = labels.index(label_a), labels.index(label_b)
        scores[a, b] = scores.get((a, b), Fraction(0)) + score_a
        scores[b, a] = scores.get((b, a), Fraction(0)) + score_b
    n = len(labels)
    if n == 0:
        raise IngestError("no matches found")
    return LabeledProblem(
        labels=tuple(labels),
        problem=problem_from_tournament([[scores.get((i, j), Fraction(0)) for j in range(n)] for i in range(n)]),
    )


def problem_from_tournament(tournament) -> RankingProblem:
    """Build a problem from a score matrix T: R = T - Tᵗ and M = T + Tᵗ.

    Requires a zero diagonal, nonnegative entries, and integer totals
    ``t[i][j] + t[j][i]``.  Round-trips: ``(results + matches) / 2 == T``.
    """
    t = _reference_rationals(tournament, "tournament")
    n = len(t)
    if n == 0:
        raise InvalidProblemError("a ranking problem needs at least one object")
    for i in range(n):
        if t[i][i] != 0:
            raise InvalidProblemError(f"tournament diagonal must be zero at X{i + 1}")
        for j in range(n):
            if t[i][j] < 0:
                raise InvalidProblemError(f"negative score at (X{i + 1}, X{j + 1})")
            total = t[i][j] + t[j][i]
            if total.denominator != 1:
                raise InvalidProblemError(
                    f"score total at (X{i + 1}, X{j + 1}) is {total}, not an integer"
                )
    results = [[t[i][j] - t[j][i] for j in range(n)] for i in range(n)]
    matches = [[int(t[i][j] + t[j][i]) for j in range(n)] for i in range(n)]
    return reference_problem(results, matches)


# ------------------------------------------------------------ replay checks


def evaluate_witness(
    problem: RankingProblem,
    order: WeakOrder,
    witness: dict,
    *,
    strict_from_results_only: bool = False,
) -> str:
    """Independently replay a witness; returns the kind it actually establishes.

    ``witness`` is the dict a report carries (results as strings).  Verifies
    that the layers are unit-match problems summing to the parent, that each
    layer's pairing is a bijection of the two opponent sets, and that every
    premise holds; returns "none" on any failure.
    """
    i, j = witness["pair"]
    n = problem.n
    layer_results = [[[Fraction(x) for x in row] for row in layer] for layer in witness["layer_results"]]
    layer_matches = witness["layer_matches"]
    total_r = [[Fraction(0)] * n for _ in range(n)]
    total_m = [[0] * n for _ in range(n)]
    for layer_r, layer_m in zip(layer_results, layer_matches):
        for a in range(n):
            for b in range(n):
                if a != b and layer_m[a][b] not in (0, 1):
                    return "none"
                if abs(layer_r[a][b]) > layer_m[a][b]:
                    return "none"
                total_r[a][b] += layer_r[a][b]
                total_m[a][b] += layer_m[a][b]
    if tuple(tuple(row) for row in total_r) != problem.results:
        return "none"
    if tuple(tuple(row) for row in total_m) != problem.matches:
        return "none"
    if len(witness["bijections"]) != len(layer_results):
        return "none"
    strict = False
    for layer_r, layer_m, pairing in zip(layer_results, layer_matches, witness["bijections"]):
        opponents_i = sorted(k for k in range(n) if k != i and layer_m[i][k] == 1)
        opponents_j = sorted(l for l in range(n) if l != j and layer_m[j][l] == 1)
        if sorted(k for k, _ in pairing) != opponents_i:
            return "none"
        if sorted(l for _, l in pairing) != opponents_j:
            return "none"
        for k, l in pairing:
            if layer_r[i][k] < layer_r[j][l]:
                return "none"
            if not ranks_at_least(order, k, l):
                return "none"
            if layer_r[i][k] > layer_r[j][l]:
                strict = True
            elif not strict_from_results_only and ranks_above(order, k, l):
                strict = True
    return "strict" if strict else "weak"


def _changed_pairs(problem: RankingProblem, perturbed: RankingProblem) -> list[tuple[int, int]]:
    """Pairs (a, b), a < b, whose result or match count differs."""
    return [
        (a, b)
        for a, b in itertools.combinations(range(problem.n), 2)
        if (problem.results[a][b], problem.matches[a][b]) != (perturbed.results[a][b], perturbed.matches[a][b])
    ]


def _instance_report(axiom, scorer, problem, perturbed, i, j, context) -> AxiomReport:
    """Re-score both problems and judge the watched pair (i, j)."""
    base = scorer(problem)
    outcome = _judge(base, scorer(perturbed), i, j, context, perturbed)
    if outcome is None:
        return AxiomReport(**_report(axiom, base.method, "satisfied-on-instances-checked", None, 1, ""))
    witness, detail = outcome
    return AxiomReport(**_report(axiom, base.method, "violated", witness, 1, detail))


def check_iim_instance(scorer, problem, perturbed, i: int, j: int) -> AxiomReport:
    """One independence instance: the two problems differ in exactly one pair
    disjoint from {i, j}; the relative order of i and j must not flip."""
    if problem.n != perturbed.n:
        raise ValueError("problems have different object counts")
    if problem.n < 4:
        raise ValueError("independence checks need at least four objects")
    if i == j:
        raise ValueError("target objects must differ")
    diffs = _changed_pairs(problem, perturbed)
    if len(diffs) != 1:
        raise ValueError(f"problems must differ in exactly one pair, found {len(diffs)}")
    (k, l) = diffs[0]
    if {k, l} & {i, j}:
        raise ValueError("the changed pair must not involve the target objects")
    return _instance_report("iim", scorer, problem, perturbed, i, j, {"perturbed_pair": [k, l]})


def _validate_instance(problem, perturbed, members, changed_inside: bool):
    if problem.n != perturbed.n:
        raise ValueError("problems have different object counts")
    inside = sorted(set(members))
    if not all(0 <= x < problem.n for x in inside):
        raise ValueError(f"members out of range: {members!r}")
    if not _is_macrovertex(problem, inside) or not _is_macrovertex(perturbed, inside):
        raise ValueError("the given set is not a macrovertex in both problems")
    diffs = _changed_pairs(problem, perturbed)
    if len(diffs) != 1:
        raise ValueError(f"problems must differ in exactly one pair, found {len(diffs)}")
    (a, b) = diffs[0]
    inside_set = set(inside)
    if changed_inside and not {a, b} <= inside_set:
        raise ValueError("the changed pair must lie inside the macrovertex")
    if not changed_inside and {a, b} & inside_set:
        raise ValueError("the changed pair must lie outside the macrovertex")
    return inside_set, (a, b)


def check_mvi_instance(scorer, problem, perturbed, members, k: int, l: int) -> AxiomReport:
    """Inside change, outside watch: order of (k, l) outside V must survive a
    single-pair change within V."""
    inside, changed = _validate_instance(problem, perturbed, members, changed_inside=True)
    if k == l or k in inside or l in inside:
        raise ValueError("watched objects must be distinct and outside the macrovertex")
    return _instance_report("mvi", scorer, problem, perturbed, k, l, _mv_context(members, changed))


def check_mva_instance(scorer, problem, perturbed, members, i: int, j: int) -> AxiomReport:
    """Outside change, inside watch: order of (i, j) inside V must survive a
    single-pair change outside V."""
    inside, changed = _validate_instance(problem, perturbed, members, changed_inside=False)
    if i == j or i not in inside or j not in inside:
        raise ValueError("watched objects must be distinct members of the macrovertex")
    return _instance_report("mva", scorer, problem, perturbed, i, j, _mv_context(members, changed))
