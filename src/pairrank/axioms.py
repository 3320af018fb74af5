"""Bounded mechanical verification of ordering axioms.

Checks three properties of a scoring procedure (or of a candidate weak
order) on a concrete problem:

* independence of irrelevant matches (IIM): the relative order of two
  objects may not react to changes in a comparison that involves neither;
* self-consistency (SC): an object with results at least as good, against
  opponents at least as strong, may not rank lower -- and must rank higher
  when something is strictly better;
* weak self-consistency (WSC): as SC, but only strictly better *results*
  (never merely stronger opponents) force a strict conclusion.

SC premises quantify over splits of the problem into unit-match layers and
over one-to-one pairings of the two objects' per-layer opponents.  The
search enumerates layer splits of the two relevant rows (all other entries
are irrelevant to the premises and are filled canonically in reported
witnesses) and decides pairing existence by bipartite matching, which
suits checking one order.  Enumerating orders instead tables each pair's
result-feasible pairings once, from the same splits, and reads the table
against every order.  Layer results are restricted to {-1, 0, 1}, so "none"
verdicts are relative to integer splits; every "violated" verdict carries a
replayable witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import le
from typing import Sequence

from .core import (
    IntMatrix,
    RankingProblem,
    RationalMatrix,
    canonical_split,
    differing_pairs,
    multigraph,
    object_label,
    permute_problem,
    with_pair,
)
from .methods import WeakOrder, induce_ranking, iter_weak_order_levels, iter_weak_orders

__all__ = [
    "AxiomReport",
    "BUDGET_EXCEEDED",
    "BudgetExceededError",
    "Dominance",
    "DominanceWitness",
    "ImpossibilityTrace",
    "SATISFIED",
    "TraceStep",
    "VIOLATED",
    "check_sc",
    "check_wsc",
    "enumerate_sc_rankings",
    "impossibility_trace",
    "pair_variants",
    "sc_dominance",
    "search_iim_violation",
]

SATISFIED = "satisfied-on-instances-checked"
VIOLATED = "violated"
BUDGET_EXCEEDED = "budget-exceeded"

_EXIT_CODES = {SATISFIED: 0, VIOLATED: 2, BUDGET_EXCEEDED: 3}


# Caps on the dominance search; exceeding any cap is reported, never silent.
# A caller's ``budget`` replaces the per-pair cap on layer splits.
MAX_OBJECTS = 8
MAX_MULTIPLICITY = 3
MAX_LAYER_SPLITS = 1_000_000


class BudgetExceededError(RuntimeError):
    """The search space outgrew the budget before a definite answer."""


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check: verdict plus a replayable witness if violated."""

    axiom: str
    method: str
    verdict: str
    witness: dict | None
    instances_checked: int
    detail: str = ""

    def exit_code(self) -> int:
        return _EXIT_CODES[self.verdict]


@dataclass(frozen=True)
class DominanceWitness:
    """A decomposition plus per-layer opponent pairings establishing dominance."""

    pair: tuple[int, int]
    layer_results: tuple[RationalMatrix, ...]
    layer_matches: tuple[IntMatrix, ...]
    bijections: tuple[tuple[tuple[int, int], ...], ...]
    strict: bool

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "strict": self.strict,
            "layer_results": [
                [[str(x) for x in row] for row in layer] for layer in self.layer_results
            ],
            "layer_matches": [[list(row) for row in layer] for layer in self.layer_matches],
            "bijections": [[list(edge) for edge in layer] for layer in self.bijections],
        }


@dataclass(frozen=True)
class Dominance:
    """Verdict of the dominance search for one ordered pair."""

    kind: str  # "none" | "weak" | "strict"
    witness: DominanceWitness | None


def _perfect_matching(adjacency: Sequence[Sequence[int]], right_count: int) -> list[int] | None:
    """Left-perfect matching via augmenting paths; returns left->right or None."""
    if len(adjacency) != right_count:
        return None
    match_right = [-1] * right_count
    match_left = [-1] * len(adjacency)

    def augment(u: int, visited: list[bool]) -> bool:
        for v in adjacency[u]:
            if visited[v]:
                continue
            visited[v] = True
            if match_right[v] == -1 or augment(match_right[v], visited):
                match_right[v] = u
                match_left[u] = v
                return True
        return False

    for u in range(len(adjacency)):
        if not augment(u, [False] * right_count):
            return None
    return match_left


def _edge_options(mu: int, rho: int, depth: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Ways to spread mu unit matches with integer outcome rho over depth layers.

    The canonical option (first mu layers, sign-greedy results) comes first;
    the remainder follow in lexicographic order.
    """
    canonical = (tuple(range(mu)), canonical_split(rho, mu))
    options = [canonical]
    for subset in itertools.combinations(range(depth), mu):
        for split in itertools.product((-1, 0, 1), repeat=mu):
            if sum(split) != rho:
                continue
            candidate = (subset, split)
            if candidate != canonical:
                options.append(candidate)
    return options


def _assignment_verdict(rows_i, rows_j, levels, strict_results_only, strict_possible, want):
    """Judge one joint layer assignment.

    Returns None when no pairing family exists, else a (kind, family) pair
    where family lists the matched (opponent-of-i, opponent-of-j) pairs per
    layer.  ``want`` controls how much gets resolved: "any" returns the first
    family found, "strict" only a strict family, "full" distinguishes all.
    """
    layers = []
    for left, right in zip(rows_i, rows_j):
        adjacency = [
            [b for b, (l, rjl) in enumerate(right) if rik >= rjl and levels[k] <= levels[l]]
            for (k, rik) in left
        ]
        matching = _perfect_matching(adjacency, len(right))
        if matching is None:
            return None
        layers.append((left, right, adjacency, matching))

    def edge_is_strict(left_entry, right_entry) -> bool:
        (k, rik), (l, rjl) = left_entry, right_entry
        if rik > rjl:
            return True
        return not strict_results_only and levels[k] < levels[l]

    def family_pairs(chosen: list[list[int]]) -> tuple[tuple[tuple[int, int], ...], ...]:
        out = []
        for p, (left, right, _, _) in enumerate(layers):
            pairs = sorted((left[a][0], right[chosen[p][a]][0]) for a in range(len(left)))
            out.append(tuple(pairs))
        return tuple(out)

    base_family = [layer[3] for layer in layers]

    def base_verdict():
        strict = any(
            edge_is_strict(left[a], right[m[a]])
            for (left, right, _, m) in layers
            for a in range(len(left))
        )
        return ("strict" if strict else "weak", family_pairs(base_family))

    if want == "any":
        return base_verdict()

    if strict_possible:
        for p, (left, right, adjacency, _) in enumerate(layers):
            for a in range(len(left)):
                for b in adjacency[a]:
                    if not edge_is_strict(left[a], right[b]):
                        continue
                    forced = list(adjacency)
                    forced[a] = [b]
                    matching = _perfect_matching(forced, len(right))
                    if matching is not None:
                        chosen = list(base_family)
                        chosen[p] = matching
                        return ("strict", family_pairs(chosen))

    if want == "strict":
        return None

    weak_family = []
    for left, right, adjacency, _ in layers:
        weak_adjacency = [
            [b for b in adjacency[a] if not edge_is_strict(left[a], right[b])]
            for a in range(len(left))
        ]
        matching = _perfect_matching(weak_adjacency, len(right))
        if matching is None:
            # Any family must then contain a strict edge; report it as such.
            return base_verdict()
        weak_family.append(matching)
    return ("weak", family_pairs(weak_family))


class _LayerSplits:
    """Joint layer splits of rows i and j whose layers pair up by size.

    Only the two rows enter the premises, so a split spreads each of their
    entries over the layers (``_edge_options``); an entry i-j shared by both
    rows lands in the same layer of each.  The object and multiplicity caps
    are checked on construction.  Iterating yields ``(rows_i, rows_j)``, the
    ``(opponent, result)`` lists of every layer, and counts every split
    examined, raising once that passes ``budget`` (by default
    ``MAX_LAYER_SPLITS``).
    """

    def __init__(self, problem, i, j, budget):
        depth = problem.max_multiplicity()
        if problem.n > MAX_OBJECTS:
            raise BudgetExceededError(f"{problem.n} objects exceed the search cap of {MAX_OBJECTS}")
        if depth > MAX_MULTIPLICITY:
            raise BudgetExceededError(f"multiplicity {depth} exceeds the search cap of {MAX_MULTIPLICITY}")
        self.problem, self.i, self.j, self.depth = problem, i, j, depth
        self.max_splits = MAX_LAYER_SPLITS if budget is None else budget

    def __iter__(self):
        problem, i, j, depth = self.problem, self.i, self.j, self.depth
        n = problem.n
        matches = problem.matches
        results = problem.results
        edges_i = [(k, matches[i][k], int(results[i][k])) for k in problem.neighbors(i)]
        edges_j = [(l, matches[j][l], int(results[j][l])) for l in problem.neighbors(j) if l != i]
        options_i = [_edge_options(mu, rho, depth) for (_, mu, rho) in edges_i]
        options_j = [_edge_options(mu, rho, depth) for (_, mu, rho) in edges_j]
        # Layer sizes as base-n digits (a layer holds fewer than n opponents),
        # so one integer sum tells whether a choice for j fits i's layers.
        codes_j = [[sum(n**p for p in subset) for subset, _ in options] for options in options_j]
        candidates = 0
        for choice_i in itertools.product(*options_i):
            rows_i: list[list[tuple[int, int]]] = [[] for _ in range(depth)]
            shared_rows: list[list[tuple[int, int]]] = [[] for _ in range(depth)]
            for (k, _, _), (subset, split) in zip(edges_i, choice_i):
                for p, r in zip(subset, split):
                    rows_i[p].append((k, r))
                    if k == j:
                        shared_rows[p].append((i, -r))
            need = sum(n**p * (len(rows_i[p]) - len(shared_rows[p])) for p in range(depth))
            for choice_j, code_j in zip(itertools.product(*options_j), itertools.product(*codes_j)):
                candidates += 1
                if candidates > self.max_splits:
                    raise BudgetExceededError(
                        f"more than {self.max_splits} layer splits examined for"
                        f" pair ({object_label(i)}, {object_label(j)})"
                    )
                if sum(code_j) == need:
                    rows_j = [list(row) for row in shared_rows]
                    for (l, _, _), (subset, split) in zip(edges_j, choice_j):
                        for p, r in zip(subset, split):
                            rows_j[p].append((l, r))
                    yield rows_i, rows_j


def _build_witness(problem, i, j, rows_i, rows_j, family, strict):
    """Materialize a found witness as full layer matrices plus pairings.

    Entries not in rows i or j never enter the premises; they are spread
    canonically so the layers still re-sum to the parent problem.
    """
    n = problem.n
    depth = problem.max_multiplicity()
    layer_r = [[[Fraction(0)] * n for _ in range(n)] for _ in range(depth)]
    layer_m = [[[0] * n for _ in range(n)] for _ in range(depth)]

    def place(p: int, a: int, b: int, r: int) -> None:
        layer_m[p][a][b] = layer_m[p][b][a] = 1
        layer_r[p][a][b] = Fraction(r)
        layer_r[p][b][a] = Fraction(-r)

    for p in range(depth):
        for k, r in rows_i[p]:
            place(p, i, k, r)
        for l, r in rows_j[p]:
            place(p, j, l, r)
    for a in range(n):
        for b in range(a + 1, n):
            if a in (i, j) or b in (i, j):
                continue
            mu = problem.matches[a][b]
            for p, r in enumerate(canonical_split(int(problem.results[a][b]), mu)):
                place(p, a, b, r)

    return DominanceWitness(
        pair=(i, j),
        layer_results=tuple(tuple(tuple(row) for row in layer) for layer in layer_r),
        layer_matches=tuple(tuple(tuple(row) for row in layer) for layer in layer_m),
        bijections=family,
        strict=strict,
    )


def _dominance_search(problem, order, i, j, budget, strict_results_only, want):
    """Core search shared by the SC/WSC checkers and the public dominance op.

    Returns (kind, witness).  Two sound shortcuts: any pairing family sums
    its premises to ``s_i >= s_j``, so ``s_i < s_j`` settles "none"
    instantly; a strict family needs either ``s_i > s_j`` or a pair of
    opponents strictly separated by the reference order.
    """
    splits = _LayerSplits(problem, i, j, budget)
    if sum(problem.matches[i]) != sum(problem.matches[j]):
        return ("none", None)
    s_i, s_j = problem.row_sums[i], problem.row_sums[j]
    if s_i < s_j:
        return ("none", None)
    levels = order.levels
    strict_possible = s_i > s_j or (
        not strict_results_only
        and any(
            levels[k] < levels[l]
            for k in problem.neighbors(i)
            for l in problem.neighbors(j)
        )
    )
    if want == "strict" and not strict_possible:
        return ("none", None)

    weak_found: DominanceWitness | None = None
    for rows_i, rows_j in splits:
        outcome = _assignment_verdict(
            rows_i, rows_j, levels, strict_results_only, strict_possible, want
        )
        if outcome is None:
            continue
        kind, family = outcome
        if kind == "strict" or want == "any":
            witness = _build_witness(problem, i, j, rows_i, rows_j, family, kind == "strict")
            return (kind, witness)
        if want == "full" and weak_found is None:
            weak_found = _build_witness(problem, i, j, rows_i, rows_j, family, False)
    if weak_found is not None:
        return ("weak", weak_found)
    return ("none", None)


def sc_dominance(
    problem: RankingProblem,
    order: WeakOrder,
    i: int,
    j: int,
    budget: int | None = None,
    *,
    strict_from_results_only: bool = False,
) -> Dominance:
    """Decide whether i dominates j under the given reference order.

    "strict" means some decomposition and pairing family satisfies every
    premise with at least one strict comparison (results only, when
    ``strict_from_results_only``); "weak" means families exist but all are
    entirely non-strict; "none" means no family exists.  Pairs with unequal
    comparison counts are never constrained and yield "none".
    """
    if not problem.has_integer_results():
        raise ValueError("dominance search requires integer results")
    if order.n != problem.n:
        raise ValueError("order and problem sizes differ")
    if i == j or not (0 <= i < problem.n and 0 <= j < problem.n):
        raise ValueError(f"need two distinct object indices, got ({i}, {j})")
    kind, witness = _dominance_search(problem, order, i, j, budget, strict_from_results_only, "full")
    return Dominance(kind=kind, witness=witness)


def _self_consistency_check(scorer, problem, budget, strict_results_only, axiom):
    if not problem.has_integer_results():
        raise ValueError("self-consistency checks require integer results")
    ratings = scorer(problem)
    if ratings.fingerprint != problem.fingerprint:
        raise ValueError("ratings were computed for a different problem")
    order = induce_ranking(ratings)
    degrees = multigraph(problem).degrees
    blocked: tuple[int, int, str] | None = None
    pairs_checked = 0
    for i in range(problem.n):
        for j in range(problem.n):
            if i == j or degrees[i] != degrees[j]:
                continue
            if ratings[i] > ratings[j]:
                continue  # both conclusions already hold for this pair
            pairs_checked += 1
            want = "strict" if ratings[i] == ratings[j] else "any"
            try:
                kind, witness = _dominance_search(
                    problem, order, i, j, budget, strict_results_only, want
                )
            except BudgetExceededError as exc:
                if blocked is None:
                    blocked = (i, j, str(exc))
                continue
            if kind == "none":
                continue
            required = "rank strictly above" if kind == "strict" else "rank at least as high as"
            witness_dict = witness.to_dict()
            witness_dict["ratings"] = [str(v) for v in ratings.values]
            witness_dict["dominance"] = kind
            return AxiomReport(
                axiom=axiom,
                method=ratings.method,
                verdict=VIOLATED,
                witness=witness_dict,
                instances_checked=pairs_checked,
                detail=(
                    f"{object_label(i)} must {required} {object_label(j)}"
                    f" but rates {ratings[i]} vs {ratings[j]}"
                ),
            )
    if blocked is not None:
        i, j, reason = blocked
        return AxiomReport(
            axiom=axiom,
            method=ratings.method,
            verdict=BUDGET_EXCEEDED,
            witness=None,
            instances_checked=pairs_checked,
            detail=f"pair ({object_label(i)}, {object_label(j)}): {reason}",
        )
    return AxiomReport(
        axiom=axiom,
        method=ratings.method,
        verdict=SATISFIED,
        witness=None,
        instances_checked=pairs_checked,
    )


def check_sc(scorer, problem: RankingProblem, budget: int | None = None) -> AxiomReport:
    """Self-consistency audit of a scorer on one problem.

    For every pair with equal comparison counts: weak dominance may not be
    answered with a lower rating, strict dominance demands a strictly higher
    one.  The first broken requirement is reported with its witness.
    """
    return _self_consistency_check(scorer, problem, budget, False, "sc")


def check_wsc(scorer, problem: RankingProblem, budget: int | None = None) -> AxiomReport:
    """Weak self-consistency audit: strictness may come from results only."""
    return _self_consistency_check(scorer, problem, budget, True, "wsc")


def enumerate_sc_rankings(problem: RankingProblem, budget: int | None = None) -> list[WeakOrder]:
    """All weak orders on which no self-consistency implication breaks.

    Exhaustive over the 75 (n=4) up to 4683 (n=6) candidate orders; each is
    kept iff every dominance implication, read against the candidate itself,
    is satisfied.  Only the order premises read the candidate, so each
    eligible pair's premise table is built once and every order just checks
    which tabled families its levels establish; only admitted orders become
    ``WeakOrder`` objects.  Raises ``BudgetExceededError`` for more than six
    objects and when a pair's layer splits outgrow ``budget``.
    """
    n = problem.n
    if n > 6:
        raise BudgetExceededError(f"ranking enumeration is limited to six objects, got {n}")
    if not problem.has_integer_results():
        raise ValueError("ranking enumeration requires integer results")
    degrees = multigraph(problem).degrees
    row_sums = problem.row_sums
    tables = []
    for i, j in itertools.permutations(range(n), 2):
        if degrees[i] == degrees[j] and row_sums[i] >= row_sums[j]:
            table = _premise_table(problem, i, j, budget)
            if table:  # with no family, i never dominates j
                tables.append((i, j, table))
    return [WeakOrder(levels) for levels in iter_weak_order_levels(n) if _admits(levels, tables)]


def _admits(levels, tables) -> bool:
    """Whether the order ``levels`` meets every conclusion the premise tables force."""
    for i, j, table in tables:
        if levels[i] < levels[j]:
            continue  # i sits above j: both conclusions hold
        tied = levels[i] == levels[j]
        for pairs, result_strict in table.items():
            if not all(levels[k] <= levels[l] for k, l in pairs):
                continue
            if not tied:
                return False  # i sits below j yet dominates it
            if result_strict or any(levels[k] < levels[l] for k, l in pairs):
                return False  # tie where a strict conclusion is forced
    return True


def _premise_table(problem, i, j, budget) -> dict[tuple[tuple[int, int], ...], bool]:
    """The pairing families of i over j whose result premises all hold.

    Maps a family's sorted distinct opponent pairs (k, l), the order premises
    it needs, to whether some such family has a strictly better result.  Each
    layer split folds in its layers' bijections one layer at a time,
    deduplicating as it goes, so the full product never materialises.
    """
    bijections = {}  # one layer (left, right) -> its feasible (pairs, result_strict)
    table: dict[tuple[tuple[int, int], ...], bool] = {}
    for rows_i, rows_j in _LayerSplits(problem, i, j, budget):
        families = {(): False}
        for layer in zip(map(tuple, rows_i), map(tuple, rows_j)):
            if layer not in bijections:
                bijections[layer] = _layer_bijections(*layer)
            folded: dict[tuple[tuple[int, int], ...], bool] = {}
            for pairs, strict in families.items():
                for layer_pairs, layer_strict in bijections[layer]:
                    merged = tuple(sorted(set(pairs + layer_pairs)))
                    folded[merged] = folded.get(merged, False) or strict or layer_strict
            families = folded
            if not families:
                break
        for pairs, strict in families.items():
            table[pairs] = table.get(pairs, False) or strict
    return table


def _layer_bijections(left, right) -> list[tuple[tuple[tuple[int, int], ...], bool]]:
    """Pairings of one layer's opponents whose result premises r_ik >= r_jl
    all hold, each with whether one of them is strict."""
    out = []
    for image in itertools.permutations(right):
        edges = list(zip(left, image))
        if all(rk >= rl for (_, rk), (_, rl) in edges):
            pairs = tuple((k, l) for (k, _), (l, _) in edges)
            out.append((pairs, any(rk > rl for (_, rk), (_, rl) in edges)))
    return out


def pair_variants(problem: RankingProblem, k: int, l: int) -> list[tuple[Fraction, int]]:
    """Admissible single-pair replacements for searches: the match count moves
    by at most one and the integer result stays within the new count."""
    base = (problem.results[k][l], problem.matches[k][l])
    out = []
    for m2 in sorted({base[1] - 1, base[1], base[1] + 1}):
        if m2 < 0:
            continue
        for r2 in range(-m2, m2 + 1):
            candidate = (Fraction(r2), m2)
            if candidate != base:
                out.append(candidate)
    return out


def _order_preservation_report(axiom, base, after, i, j, context, perturbed_problem):
    broken = None
    if base[i] >= base[j] and after[i] < after[j]:
        broken = (i, j)
    elif base[j] >= base[i] and after[j] < after[i]:
        broken = (j, i)
    if broken is None:
        return _satisfied(axiom, base, 1)
    a, b = broken
    witness = dict(context)
    witness.update(
        {
            "target_pair": [i, j],
            "flipped": [a, b],
            "base_ratings": [str(v) for v in base.values],
            "perturbed_ratings": [str(v) for v in after.values],
            "perturbed_results": [[str(x) for x in row] for row in perturbed_problem.results],
            "perturbed_matches": [list(row) for row in perturbed_problem.matches],
        }
    )
    return AxiomReport(
        axiom=axiom,
        method=base.method,
        verdict=VIOLATED,
        witness=witness,
        instances_checked=1,
        detail=(
            f"{object_label(a)} >= {object_label(b)} before the change"
            f" but < after it"
        ),
    )


def search_iim_violation(scorer, problem: RankingProblem, budget: int | None = None) -> AxiomReport:
    """Sweep single-pair changes and watch every disjoint target pair.

    ``budget`` caps the number of instances examined; running out before
    the whole sweep is covered is a ``budget-exceeded`` verdict.
    """
    n = problem.n
    if n < 4:
        raise ValueError("independence checks need at least four objects")

    def changes():
        for k, l in itertools.combinations(range(n), 2):
            rest = [x for x in range(n) if x not in (k, l)]
            context = lambda r2, m2, k=k, l=l: {
                "perturbed_pair": [k, l],
                "base_entry": {"result": str(problem.results[k][l]), "matches": problem.matches[k][l]},
                "perturbed_entry": {"result": str(r2), "matches": m2},
            }
            yield k, l, pair_variants(problem, k, l), rest, context

    return _sweep("iim", scorer, problem, changes(), budget)


def _ranks(values: Sequence[Fraction]) -> list[int]:
    """Dense ascending rank of each value, so exact comparisons become int ones."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for prev, cur in zip(order, order[1:]):
        ranks[cur] = ranks[prev] + (values[cur] != values[prev])
    return ranks


def _sweep(axiom, scorer, problem, changes, budget):
    """The single-pair sweep behind IIM, MVA and MVI.

    ``changes`` lazily yields ``(a, b, variants, watched, context)``: the
    pair to change, its replacement ``(result, matches)`` entries, the
    watched objects in index order, and ``context(result, matches)`` for a
    witness.  Every pair of watched objects, in ``itertools.combinations``
    order, of every variant is one instance; the first order flip wins and
    ``budget`` caps the instance count, a sweep it cuts short ending
    ``budget-exceeded``.  Each distinct ``(a, b, result, matches)`` is
    ranked once, in closed form where the scorer has a pair update and by a
    full re-score where not, and its instances are scanned one by one only
    when some watched pair flips.
    """
    base = scorer(problem)
    before = _ranks(base.values)
    update = scorer.pair_update and scorer.pair_update(problem, base)
    by_rank = sorted(range(problem.n), key=before.__getitem__)
    known = {}
    instances = 0
    for a, b, variants, watched, context in changes:
        size = len(watched) * (len(watched) - 1) // 2
        members = set(watched)
        chain = [x for x in by_rank if x in members]
        ties = [t for t in range(len(chain) - 1) if before[chain[t]] == before[chain[t + 1]]]
        line = None
        for r2, m2 in variants:
            take = size if budget is None else min(size, budget - instances)
            if take:
                key = (a, b, r2, m2)
                now = known.get(key)
                if now is None:
                    if update and line is None:
                        line = update(a, b)
                    now = line and line(r2, m2)
                    if now is None:
                        now = _ranks(scorer(with_pair(problem, a, b, r2, m2)).values)
                    known[key] = now
                if not _keeps_order(chain, ties, now):
                    pairs = itertools.islice(itertools.combinations(watched, 2), take)
                    for t, (i, j) in enumerate(pairs):
                        if (before[i] >= before[j] and now[i] < now[j]) or (
                            before[j] >= before[i] and now[j] < now[i]
                        ):
                            perturbed = with_pair(problem, a, b, r2, m2)
                            report = _order_preservation_report(
                                axiom, base, scorer(perturbed), i, j, context(r2, m2), perturbed
                            )
                            if report.verdict != VIOLATED:
                                raise ArithmeticError("closed-form ranks disagree with a full re-score")
                            return replace(report, instances_checked=instances + t + 1)
                instances += take
            if take < size:
                return AxiomReport(
                    axiom=axiom,
                    method=base.method,
                    verdict=BUDGET_EXCEEDED,
                    witness=None,
                    instances_checked=instances,
                    detail="instance budget exhausted",
                )
    return _satisfied(axiom, base, instances)


def _keeps_order(chain, ties, now) -> bool:
    """True iff no watched pair flips: along the watched objects sorted by
    base rank (``chain``) the new ranks never fall, and they stay equal
    across each base tie (``chain[t]``, ``chain[t + 1]`` for t in ``ties``)."""
    values = [now[x] for x in chain]
    return all(map(le, values, values[1:])) and all(values[t] == values[t + 1] for t in ties)


def _satisfied(axiom, base, instances):
    return AxiomReport(
        axiom=axiom,
        method=base.method,
        verdict=SATISFIED,
        witness=None,
        instances_checked=instances,
    )


@dataclass(frozen=True)
class TraceStep:
    name: str
    claim: str
    holds: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ImpossibilityTrace:
    """Machine-checked derivation that no scorer passes both IIM and SC."""

    steps: tuple[TraceStep, ...]
    verdict: str


def impossibility_trace() -> ImpossibilityTrace:
    """Replay the joint impossibility of IIM and SC on built-in instance 3.3.

    The base problem forces X1 above X3, X4 above X2, and finally X1 above
    X2 under every order a self-consistent scorer could induce; its mirror
    (a relabeling that only flips one remote result) symmetrically forces
    X2 above X1.  Order preservation across that single-pair change is then
    unsatisfiable.
    """
    from .registry import get_instance

    base = get_instance("3.3").problem
    mirrored = get_instance("3.3-prime").problem
    all_orders = list(iter_weak_orders(4))

    def forces_everywhere(target: tuple[int, int]) -> bool:
        i, j = target
        return all(
            _dominance_search(base, order, i, j, None, False, "strict")[0] == "strict"
            for order in all_orders
        )

    step_a = TraceStep(
        name="same-opponents-1-over-3",
        claim="every candidate order makes X1 strictly dominate X3",
        holds=forces_everywhere((0, 2)),
        details={"orders_checked": len(all_orders)},
    )
    step_b = TraceStep(
        name="same-opponents-4-over-2",
        claim="every candidate order makes X4 strictly dominate X2",
        holds=forces_everywhere((3, 1)),
        details={"orders_checked": len(all_orders)},
    )

    conditional = [
        order
        for order in all_orders
        if order.ranks_at_least(1, 0) and order.ranks_above(0, 2) and order.ranks_above(3, 1)
    ]
    step_c_conditional = all(
        _dominance_search(base, order, 0, 1, None, False, "strict")[0] == "strict"
        for order in conditional
    )
    admissible = enumerate_sc_rankings(base)
    step_c = TraceStep(
        name="cross-opponents-1-over-2",
        claim="assuming X2 at least X1 forces the opposite, so X1 must rank above X2",
        holds=(
            step_c_conditional
            and bool(admissible)
            and all(order.ranks_above(0, 1) for order in admissible)
        ),
        details={
            "conditional_orders_checked": len(conditional),
            "admissible_orders": [order.levels for order in admissible],
        },
    )

    relabeling = (1, 0, 3, 2)
    mirrored_admissible = enumerate_sc_rankings(mirrored)
    step_mirror = TraceStep(
        name="mirror-instance",
        claim="swapping X1<->X2 and X3<->X4 maps the instance onto its variant,"
        " which therefore forces X2 above X1",
        holds=(
            permute_problem(base, relabeling) == mirrored
            and bool(mirrored_admissible)
            and all(order.ranks_above(1, 0) for order in mirrored_admissible)
        ),
        details={"relabeling": list(relabeling)},
    )

    diffs = differing_pairs(base, mirrored)
    step_clash = TraceStep(
        name="independence-contradiction",
        claim="the two instances differ only in a pair disjoint from {X1, X2},"
        " so order preservation for (X1, X2) is unsatisfiable",
        holds=(
            diffs == [(2, 3)]
            and not ({2, 3} & {0, 1})
            and step_c.holds
            and step_mirror.holds
        ),
        details={"differing_pairs": [list(d) for d in diffs]},
    )

    steps = (step_a, step_b, step_c, step_mirror, step_clash)
    verdict = (
        "contradiction established" if all(s.holds for s in steps) else "trace incomplete"
    )
    return ImpossibilityTrace(steps=steps, verdict=verdict)
