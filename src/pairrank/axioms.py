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
witnesses).  A layer's pairings do not depend on the rest of its split, so
each distinct layer is judged once per search and the verdicts combine
split by split: by bipartite matching when checking one order, and when
enumerating orders or replaying the impossibility proof by reading the
layer's result-feasible pairings against all orders at once, one byte lane
per order, in one table both share.  Layer results are restricted to
{-1, 0, 1}, so "none" verdicts are relative to integer splits; every
"violated" verdict carries a replayable witness.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import and_, le, or_
from typing import Iterator, Sequence

from .core import (
    RankingProblem,
    canonical_split,
    multigraph,
    object_label,
    permute_problem,
    with_pair,
)
from .methods import WeakOrder, induce_ranking, iter_weak_order_levels, weak_order_columns
from .methods import iter_weak_orders  # noqa: F401 -- perfbench/tracer.py rebinds this module's copy

__all__ = [
    "AxiomReport",
    "BUDGET_EXCEEDED",
    "BudgetExceededError",
    "ImpossibilityTrace",
    "SATISFIED",
    "TraceStep",
    "VIOLATED",
    "check_sc",
    "check_wsc",
    "enumerate_sc_rankings",
    "impossibility_trace",
    "pair_variants",
    "search_iim_violation",
]

SATISFIED = "satisfied-on-instances-checked"
VIOLATED = "violated"
BUDGET_EXCEEDED = "budget-exceeded"

_EXIT_CODES = {SATISFIED: 0, VIOLATED: 2, BUDGET_EXCEEDED: 3}


# Layer splits one dominance check may examine, shared by all its pairs;
# a caller's ``budget`` replaces it.  Running out is reported, never silent.
MAX_LAYER_SPLITS = 1_000_000


class BudgetExceededError(RuntimeError):
    """The search space outgrew the budget before a definite answer."""


class _SplitBudget:
    """The layer splits one check may examine (``cap``) and has examined
    (``spent``), with the problem's layer count, found once per check."""

    def __init__(self, problem, cap: int | None = None):
        self.depth = problem.max_multiplicity()
        self.cap = MAX_LAYER_SPLITS if cap is None else cap
        self.spent = 0


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


def _perfect_matching(adjacency: Sequence[Sequence[int]]) -> list[int] | None:
    """Perfect matching via augmenting paths between equally many left and
    right vertices (layers of equal size); returns left->right or None."""
    n = len(adjacency)
    match_right = [-1] * n
    match_left = [-1] * n

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

    for u in range(n):
        if not augment(u, [False] * n):
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


def _layer_pairing(left, right, levels, strict_results_only, strict):
    """One layer's verdict: i's opponents ``left`` against j's ``right``.

    None when no pairing meets every premise; else the first perfect
    matching (left -> right positions) and what the mode reads: without
    ``strict`` whether it has a strict pair, with ``strict`` the first
    matching forced through a strict pair (tried in (a, b) adjacency
    order), or None.
    """
    adjacency = [
        [b for b, (l, rjl) in enumerate(right) if rik >= rjl and levels[k] <= levels[l]]
        for (k, rik) in left
    ]
    matching = _perfect_matching(adjacency)
    if matching is None:
        return None

    def is_strict(a: int, b: int) -> bool:
        (k, rik), (l, rjl) = left[a], right[b]
        return rik > rjl or not strict_results_only and levels[k] < levels[l]

    if not strict:
        return matching, any(is_strict(a, b) for a, b in enumerate(matching))
    for a, options in enumerate(adjacency):
        for b in options:
            if is_strict(a, b):
                forced = _perfect_matching([*adjacency[:a], [b], *adjacency[a + 1 :]])
                if forced is not None:
                    return matching, forced
    return matching, None


def _layer_splits(problem, i, j, budget):
    """Joint layer splits of rows i and j whose layers pair up by size.

    Only the two rows enter the premises, so a split spreads each of their
    entries over the layers (``_edge_options``); an entry i-j shared by both
    rows lands in the same layer of each.  Yields each split as its list of
    layers ``(left, right)``, the ``(opponent, result)`` tuples of i and of
    j in that layer, so a layer can key its verdict; charges every split to
    the check's shared ``_SplitBudget``, raising once it is spent; an edge
    or split that would cost more than the whole budget is refused unlisted.
    Rows of different degrees yield nothing.
    """
    n, depth, cap = problem.n, budget.depth, budget.cap
    matches = problem.matches
    results = problem.results
    edges_i = [(k, matches[i][k], int(results[i][k])) for k in problem.neighbors(i)]
    edges_j = [(l, matches[j][l], int(results[j][l])) for l in problem.neighbors(j) if l != i]
    exceeded = f"more than {cap} layer splits examined for pair ({object_label(i)}, {object_label(j)})"
    # Refused unlisted: a split of more layers than the budget, or an edge
    # whose comb(depth, mu) * 3**mu candidates, each coded over depth layers,
    # cost more (mu >= cap.bit_length() means 2**mu > cap, before any power).
    if depth > cap or any(
        mu >= cap.bit_length() or comb(depth, mu) * 3**mu * depth > cap for _, mu, _ in edges_i + edges_j
    ):
        raise BudgetExceededError(exceeded)
    options_i = [_edge_options(mu, rho, depth) for (_, mu, rho) in edges_i]
    options_j = [_edge_options(mu, rho, depth) for (_, mu, rho) in edges_j]
    # Layer sizes as base-n digits (a layer holds fewer than n opponents),
    # so one integer sum tells whether a choice for j fits i's layers.
    codes_j = [[sum(n**p for p in subset) for subset, _ in options] for options in options_j]
    for choice_i in itertools.product(*options_i):
        rows_i: list[list[tuple[int, int]]] = [[] for _ in range(depth)]
        shared_rows: list[list[tuple[int, int]]] = [[] for _ in range(depth)]
        for (k, _, _), (subset, split) in zip(edges_i, choice_i):
            for p, r in zip(subset, split):
                rows_i[p].append((k, r))
                if k == j:
                    shared_rows[p].append((i, -r))
        need = sum(n**p * (len(rows_i[p]) - len(shared_rows[p])) for p in range(depth))
        lefts = [tuple(row) for row in rows_i]
        for choice_j, code_j in zip(itertools.product(*options_j), itertools.product(*codes_j)):
            budget.spent += 1
            if budget.spent > cap:
                raise BudgetExceededError(exceeded)
            if sum(code_j) == need:
                rows_j = [list(row) for row in shared_rows]
                for (l, _, _), (subset, split) in zip(edges_j, choice_j):
                    for p, r in zip(subset, split):
                        rows_j[p].append((l, r))
                yield list(zip(lefts, map(tuple, rows_j)))


def _build_witness(problem, i, j, layers, family, strict) -> dict:
    """A found witness as printed: full layer matrices plus pairings.

    ``family`` holds the matching of each of the split's ``layers``.
    Entries not in rows i or j never enter the premises; they are spread
    canonically so the layers still re-sum to the parent problem.
    """
    n, depth = problem.n, len(layers)
    layer_r = [[["0"] * n for _ in range(n)] for _ in range(depth)]
    layer_m = [[[0] * n for _ in range(n)] for _ in range(depth)]

    def place(p: int, a: int, b: int, r: int) -> None:
        layer_m[p][a][b] = layer_m[p][b][a] = 1
        layer_r[p][a][b] = str(r)
        layer_r[p][b][a] = str(-r)

    for p, (left, right) in enumerate(layers):
        for k, r in left:
            place(p, i, k, r)
        for l, r in right:
            place(p, j, l, r)
    for a in range(n):
        for b in range(a + 1, n):
            if a in (i, j) or b in (i, j):
                continue
            mu = problem.matches[a][b]
            for p, r in enumerate(canonical_split(int(problem.results[a][b]), mu)):
                place(p, a, b, r)

    return {
        "pair": [i, j],
        "strict": strict,
        "layer_results": layer_r,
        "layer_matches": layer_m,
        "bijections": [
            sorted([left[a][0], right[b][0]] for a, b in enumerate(matching))
            for (left, right), matching in zip(layers, family)
        ],
    }


def _dominance_search(problem, order, i, j, budget, strict_results_only, strict):
    """Does i dominate j under ``order``?  Returns (kind, witness).

    A split's family is its layers' first pairings (``_layer_pairing``,
    judged once per distinct layer).  Without ``strict`` it is "strict" if
    one has a strict pair, else "weak"; with ``strict`` the first layer with
    a pairing forced through a strict pair takes that one, and a split with
    none has no family.  No family gives "none", and two certificates give it
    before any split.  A family pairs each unit match of i with one of j
    (the shared i-j units on both sides), so its result premises sum to
    ``s_i >= s_j``, and its order premises pair i's opponent levels, one
    per unit match, with j's, each at most its partner.  That is a
    threshold, so by Hall's theorem such a pairing exists iff the sorted
    lists satisfy ``levels_i[t] <= levels_j[t]`` for every t.  A strict
    family also needs a strict pair, which it lacks when ``s_i == s_j``
    (every paired result is then equal) and either only results count or
    the two lists are equal (the pairing then pairs equal levels only).
    """
    s_i, s_j = problem.row_sums[i], problem.row_sums[j]
    if s_i < s_j:
        return ("none", None)
    levels, matches = order.levels, problem.matches
    levels_i, levels_j = (sorted(levels[k] for k, m in enumerate(matches[x]) for _ in range(m)) for x in (i, j))
    if not all(map(le, levels_i, levels_j)) or strict and s_i == s_j and (strict_results_only or levels_i == levels_j):
        return ("none", None)

    verdicts = {}
    for layers in _layer_splits(problem, i, j, budget):
        judged = []
        for layer in layers:
            if layer not in verdicts:
                verdicts[layer] = _layer_pairing(*layer, levels, strict_results_only, strict)
            if (verdict := verdicts[layer]) is None:
                break
            judged.append(verdict)
        else:
            family = [matching for matching, _ in judged]
            if not strict:
                kind = "strict" if any(extra for _, extra in judged) else "weak"
                return (kind, _build_witness(problem, i, j, layers, family, kind == "strict"))
            for p, (_, forced) in enumerate(judged):
                if forced is not None:
                    family[p] = forced
                    return ("strict", _build_witness(problem, i, j, layers, family, True))
    return ("none", None)


def _self_consistency_check(scorer, problem, budget, strict_results_only, axiom):
    if not problem.has_integer_results():
        raise ValueError("self-consistency checks require integer results")
    ratings = scorer(problem)
    if ratings.problem != problem:
        raise ValueError("ratings were computed for a different problem")
    order = induce_ranking(ratings)
    degrees = multigraph(problem).degrees
    # Both conclusions already hold for a pair with ratings[i] > ratings[j].
    pairs = [
        (i, j)
        for i in range(problem.n)
        for j in range(problem.n)
        if i != j and degrees[i] == degrees[j] and ratings[i] <= ratings[j]
    ]
    splits = _SplitBudget(problem, budget)
    for pairs_checked, (i, j) in enumerate(pairs, 1):
        try:
            kind, witness = _dominance_search(
                problem, order, i, j, splits, strict_results_only, ratings[i] == ratings[j]
            )
        except BudgetExceededError as exc:  # it names the pair; later pairs could only overspend
            return AxiomReport(axiom, ratings.method, BUDGET_EXCEEDED, None, pairs_checked - 1, str(exc))
        if kind == "none":
            continue
        required = "rank strictly above" if kind == "strict" else "rank at least as high as"
        witness["ratings"] = [str(v) for v in ratings.values]
        witness["dominance"] = kind
        return AxiomReport(
            axiom=axiom,
            method=ratings.method,
            verdict=VIOLATED,
            witness=witness,
            instances_checked=pairs_checked,
            detail=(
                f"{object_label(i)} must {required} {object_label(j)}"
                f" but rates {ratings[i]} vs {ratings[j]}"
            ),
        )
    return AxiomReport(axiom, ratings.method, SATISFIED, None, len(pairs))


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


def enumerate_sc_rankings(problem: RankingProblem) -> list[WeakOrder]:
    """All weak orders on which no self-consistency implication breaks.

    Exhaustive over the 75 (n=4) up to 4683 (n=6) candidate orders; each is
    kept iff every dominance implication, read against the candidate itself,
    is satisfied.  Only the order premises read the candidate, so each
    eligible pair's layer splits are walked once, and each split's pairings
    are decided against all candidate orders at once, one byte lane per
    order (:class:`_OrderLanes`, which :func:`impossibility_trace` reads
    too); only admitted orders become ``WeakOrder`` objects, in
    :func:`pairrank.methods.iter_weak_order_levels` order.  Raises
    ``BudgetExceededError`` for more than six objects and when the eligible
    pairs together need more than ``MAX_LAYER_SPLITS`` layer splits (with no
    eligible pair, none is examined and every order is admitted).
    """
    n = problem.n
    if n > 6:
        raise BudgetExceededError(f"ranking enumeration is limited to six objects, got {n}")
    if not problem.has_integer_results():
        raise ValueError("ranking enumeration requires integer results")
    lanes = _OrderLanes(n)
    return [WeakOrder(levels) for levels in lanes.levels(lanes.admitted(problem))]


class _OrderLanes:
    """Every weak order on n objects at once, one byte lane per order, in
    :func:`iter_weak_order_levels` order: a set of orders is an integer
    with some lanes' high bits set (``everywhere`` sets them all).

    Object k's column of levels becomes one integer L_k.  Levels stay below
    n, so each lane holds at most 127 for any n < 128 (far above the
    six-object limit) and lane-wise subtraction never borrows across lanes:
    ``((L_l | H) - L_k) & H``, with H = ``everywhere``, marks the orders
    with L_k <= L_l (``weak[k, l]``), and subtracting one more per lane
    those with L_k < L_l (``strict[k, l]``).  A layer's lanes depend only
    on its ``(opponent, result)`` tuples, so one table, with its cache of
    layer verdicts, serves every problem on n objects.
    """

    def __init__(self, n: int):
        columns = weak_order_columns(n)
        self.n, self.count = n, len(columns[0]) if n else 1
        self.everywhere = high = int.from_bytes(b"\x80" * self.count, "little")
        ones = high >> 7
        levels = [int.from_bytes(column, "little") for column in columns]
        self.weak, self.strict = {}, {}
        for k, l in itertools.product(range(n), repeat=2):
            self.weak[k, l] = ((levels[l] | high) - levels[k]) & high
            self.strict[k, l] = ((levels[l] | high) - levels[k] - ones) & high
        self.verdicts = {}  # a plain dict: a cache bound to self would be a reference cycle

    def levels(self, lanes: int) -> Iterator[tuple[int, ...]]:
        """The levels of the orders in ``lanes``, in lane order."""
        return itertools.compress(iter_weak_order_levels(self.n), lanes.to_bytes(self.count, "little"))

    def admitted(self, problem) -> int:
        """The orders that meet every dominance conclusion on ``problem``.

        An eligible pair i, j is broken where j sits above i while i
        dominates it, or tied with i while i dominates it strictly.
        """
        degrees = multigraph(problem).degrees
        row_sums = problem.row_sums
        splits = _SplitBudget(problem)
        broken = 0
        for i, j in itertools.permutations(range(problem.n), 2):
            if degrees[i] == degrees[j] and row_sums[i] >= row_sums[j]:
                dominates, strictly = self.dominance(problem, i, j, splits)
                broken |= self.weak[j, i] & (self.strict[j, i] & dominates | strictly)
        return self.everywhere ^ broken

    def dominance(self, problem, i, j, budget) -> tuple[int, int]:
        """The orders where i dominates j, and where it does so strictly.

        A split's pairing families hold where every layer has a pairing that
        holds, and hold strictly where, besides, one layer's pairing is
        strict (``_layer`` gives both per layer; its strict lanes lie within
        its holding ones).  So each split costs a few big-integer operations
        per layer, and the split budget bounds the whole walk.
        """
        verdicts = self.verdicts
        dominates = strictly = 0
        for layers in _layer_splits(problem, i, j, budget):
            holds, strict = self.everywhere, 0
            for layer in layers:
                if layer not in verdicts:
                    verdicts[layer] = self._layer(*layer)
                layer_holds, layer_strict = verdicts[layer]
                holds &= layer_holds
                if not holds:
                    break
                strict |= layer_strict
            dominates |= holds
            strictly |= holds & strict
        return dominates, strictly

    def _layer(self, left, right) -> tuple[int, int]:
        """The orders where some result-feasible pairing of one layer meets
        all its order premises, and those where such a pairing is also
        strict, by a result or by an order premise."""
        holds = strictly = 0
        for pairs, result_strict in _layer_bijections(left, right):
            lanes = functools.reduce(and_, (self.weak[pair] for pair in pairs), self.everywhere)
            holds |= lanes
            if not result_strict:
                lanes &= functools.reduce(or_, (self.strict[pair] for pair in pairs), 0)
            strictly |= lanes
        return holds, strictly


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


def pair_variants(problem: RankingProblem, k: int, l: int) -> list[tuple[int, int]]:
    """Admissible single-pair replacements ``(result, matches)`` for searches:
    the match count moves by at most one and the integer result stays within
    the new count."""
    m = problem.matches[k][l]
    base = (problem.results[k][l], m)
    return [(r2, m2) for m2 in range(max(m - 1, 0), m + 2) for r2 in range(-m2, m2 + 1) if (r2, m2) != base]


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
    ``budget-exceeded``.  Each variant rates only the watched objects, along
    their chain by base rank, in closed form where the scorer has a pair
    update and else by a full re-score, made once per distinct ``(a, b,
    result, matches)``; its instances are scanned one by one only when some
    watched pair flips.  ``_flipped`` decides a flip, in the scan and again
    on the exact ratings of a full re-score, which must agree before the
    violation is reported.
    """
    base = scorer(problem)
    before = _ranks(base.values)
    update = scorer.pair_update and scorer.pair_update(problem, base)
    rescore = functools.cache(lambda a, b, r2, m2: _ranks(scorer(with_pair(problem, a, b, r2, m2)).values))
    instances = 0

    def report(verdict, witness=None, detail=""):
        return AxiomReport(axiom, base.method, verdict, witness, instances, detail)

    for a, b, variants, watched, context in changes:
        size = len(watched) * (len(watched) - 1) // 2
        chain = sorted(watched, key=before.__getitem__)
        ties = [t for t in range(len(chain) - 1) if before[chain[t]] == before[chain[t + 1]]]
        line = None
        for r2, m2 in variants:
            take = size if budget is None else min(size, budget - instances)
            if take:
                if update and line is None:
                    line = update(a, b, chain)
                now = line and line(r2, m2)
                if now is None:
                    now = [rescore(a, b, r2, m2)[x] for x in chain]
                if not _keeps_order(ties, now):
                    now = dict(zip(chain, now))
                    pairs = itertools.islice(itertools.combinations(watched, 2), take)
                    for t, (i, j) in enumerate(pairs):
                        flip = _flipped(before, now, i, j)
                        if flip is None:
                            continue
                        perturbed = with_pair(problem, a, b, r2, m2)
                        after = scorer(perturbed)
                        if _flipped(base, after, i, j) != flip:
                            raise ArithmeticError("closed-form ranks disagree with a full re-score")
                        witness = context(r2, m2)
                        witness.update(
                            {
                                "target_pair": [i, j],
                                "flipped": list(flip),
                                "base_ratings": [str(v) for v in base.values],
                                "perturbed_ratings": [str(v) for v in after.values],
                                "perturbed_results": [[str(x) for x in row] for row in perturbed.results],
                                "perturbed_matches": [list(row) for row in perturbed.matches],
                            }
                        )
                        instances += t + 1
                        x, y = map(object_label, flip)
                        return report(VIOLATED, witness, f"{x} >= {y} before the change but < after it")
                instances += take
            if take < size:
                return report(BUDGET_EXCEEDED, detail="instance budget exhausted")
    return report(SATISFIED)


def _flipped(before, after, i, j) -> tuple[int, int] | None:
    """The flipped pair ``(a, b)`` of i and j: ``a`` rated at least as high
    as ``b`` in ``before`` and strictly lower in ``after``; else None."""
    if before[i] >= before[j] and after[i] < after[j]:
        return (i, j)
    if before[j] >= before[i] and after[j] < after[i]:
        return (j, i)
    return None


def _keeps_order(ties, now) -> bool:
    """True iff no watched pair flips: ``now`` holds the new ratings of the
    watched objects sorted by base rank, which never fall along it and stay
    equal across each base tie (positions t, t + 1 for t in ``ties``)."""
    return all(map(le, now, now[1:])) and all(now[t] == now[t + 1] for t in ties)


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
    unsatisfiable.  Every step reads one lane table of the 75 weak orders of
    four objects (:class:`_OrderLanes`), which serves both instances: "under
    every order" compares a lane set with all lanes, and the conditional
    step is an AND of relation lanes, so no order is searched on its own.
    """
    from .registry import get_instance

    base = get_instance("3.3").problem
    mirrored = get_instance("3.3-prime").problem
    lanes = _OrderLanes(base.n)
    everywhere, weak, strict = lanes.everywhere, lanes.weak, lanes.strict
    splits = _SplitBudget(base)

    def strictly(i: int, j: int) -> int:
        """The orders under which i strictly dominates j on the base problem."""
        return lanes.dominance(base, i, j, splits)[1]

    def inside(orders: int, within: int) -> bool:
        return orders & within == orders

    step_a = TraceStep(
        name="same-opponents-1-over-3",
        claim="every candidate order makes X1 strictly dominate X3",
        holds=strictly(0, 2) == everywhere,
        details={"orders_checked": lanes.count},
    )
    step_b = TraceStep(
        name="same-opponents-4-over-2",
        claim="every candidate order makes X4 strictly dominate X2",
        holds=strictly(3, 1) == everywhere,
        details={"orders_checked": lanes.count},
    )

    conditional = weak[1, 0] & strict[0, 2] & strict[3, 1]
    admitted = lanes.admitted(base)
    step_c = TraceStep(
        name="cross-opponents-1-over-2",
        claim="assuming X2 at least X1 forces the opposite, so X1 must rank above X2",
        holds=inside(conditional, strictly(0, 1)) and admitted > 0 and inside(admitted, strict[0, 1]),
        details={
            "conditional_orders_checked": conditional.bit_count(),
            "admissible_orders": list(lanes.levels(admitted)),
        },
    )

    relabeling = (1, 0, 3, 2)
    mirrored_admitted = lanes.admitted(mirrored)
    step_mirror = TraceStep(
        name="mirror-instance",
        claim="swapping X1<->X2 and X3<->X4 maps the instance onto its variant,"
        " which therefore forces X2 above X1",
        holds=(
            permute_problem(base, relabeling) == mirrored
            and mirrored_admitted > 0
            and inside(mirrored_admitted, strict[1, 0])
        ),
        details={"relabeling": list(relabeling)},
    )

    diffs = [
        (i, j)
        for i, j in itertools.combinations(range(base.n), 2)
        if base.results[i][j] != mirrored.results[i][j] or base.matches[i][j] != mirrored.matches[i][j]
    ]
    step_clash = TraceStep(
        name="independence-contradiction",
        claim="the two instances differ only in a pair disjoint from {X1, X2},"
        " so order preservation for (X1, X2) is unsatisfiable",
        holds=diffs == [(2, 3)] and step_c.holds and step_mirror.holds,
        details={"differing_pairs": [list(d) for d in diffs]},
    )

    steps = (step_a, step_b, step_c, step_mirror, step_clash)
    verdict = (
        "contradiction established" if all(s.holds for s in steps) else "trace incomplete"
    )
    return ImpossibilityTrace(steps=steps, verdict=verdict)
