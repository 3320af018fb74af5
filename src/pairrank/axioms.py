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
enumerating orders or replaying the impossibility proof by a subset DP over
the layer's pairings against all orders at once, one bit per order, in one
table both share.  Layer results are restricted to
{-1, 0, 1}, so "none" verdicts are relative to integer splits; every
"violated" verdict carries a replayable witness.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import le, sub
from typing import Iterator, Sequence

from .core import (
    RankingProblem,
    canonical_split,
    multigraph,
    object_label,
    permute_problem,
    with_pair,
)
from .methods import _level_columns, _ranks, induce_ranking, weak_order_lines
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
    (``spent``), with what every pair of the check would otherwise derive
    again, each built once per check: the problem's layer count, each
    object's split row (:meth:`row`, whose entries are the one layer when
    no pair meets twice, else :meth:`tables` too) and the table of
    ``_edge_options`` over those layers, whose entries the rows share."""

    def __init__(self, problem, cap: int | None = None):
        self.problem, self.depth = problem, problem.max_multiplicity()
        self.cap = MAX_LAYER_SPLITS if cap is None else cap
        self.spent = 0
        self.options, self.rows, self.tabled = {}, {}, {}

    def row(self, x: int) -> tuple[list[tuple[int, int, int]], bool, tuple[tuple[int, int], ...]]:
        """Object x's edges ``(opponent, matches, result)``, in opponent
        order, whether one of them is refused at this cap, and its entries
        ``(opponent, result)``: its one layer when no pair meets twice."""
        if x not in self.rows:
            problem, depth, cap = self.problem, self.depth, self.cap
            edges = [(k, problem.matches[x][k], int(problem.results[x][k])) for k in problem.neighbors(x)]
            # Refused: a split of more layers than the budget, or an edge
            # whose comb(depth, mu) * 3**mu candidates, each coded over depth
            # layers, cost more (mu >= cap.bit_length() means 2**mu > cap,
            # before any power).
            refused = depth > cap or any(
                mu >= cap.bit_length() or comb(depth, mu) * 3**mu * depth > cap for _, mu, _ in edges
            )
            self.rows[x] = edges, refused, tuple((k, r) for k, _, r in edges)
        return self.rows[x]

    def tables(self, x: int) -> tuple[list, list]:
        """The option tables of x's edges and their size codes, for a row
        that :meth:`row` did not refuse."""
        if x not in self.tabled:
            entries = [self.edge_options(mu, rho) for _, mu, rho in self.rows[x][0]]
            self.tabled[x] = [options for options, _ in entries], [codes for _, codes in entries]
        return self.tabled[x]

    def edge_options(self, mu: int, rho: int):
        """``_edge_options`` and each option's size code: its layers as
        base-n digits (a layer holds fewer than n opponents), so one integer
        sum tells whether a choice for j fits i's layers."""
        if (mu, rho) not in self.options:
            options, n = _edge_options(mu, rho, self.depth), self.problem.n
            self.options[mu, rho] = options, [sum(n**p for p in subset) for subset, _ in options]
        return self.options[mu, rho]


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
    for u in range(n):
        if not _augment(adjacency, u, [False] * n, match_left, match_right):
            return None
    return match_left


def _augment(adjacency, u, visited, match_left, match_right) -> bool:
    """Match left vertex u along an augmenting path, found depth first; a
    helper, not a closure, so no matching is a reference cycle."""
    for v in adjacency[u]:
        if visited[v]:
            continue
        visited[v] = True
        if match_right[v] == -1 or _augment(adjacency, match_right[v], visited, match_left, match_right):
            match_right[v] = u
            match_left[u] = v
            return True
    return False


def _edge_options(mu: int, rho: int, depth: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Ways to spread mu unit matches with integer outcome rho over depth layers.

    The canonical option (first mu layers, sign-greedy results) comes first;
    the remainder follow in lexicographic order.  Built once per check
    (``_SplitBudget.edge_options``); no entry outgrows the split cap, because
    ``_SplitBudget.row`` refuses an edge before options that cost more are built.
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
    return tuple(options)


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
    the check's shared ``_SplitBudget``, raising once it is spent.  Reads
    the budget's rows, built once per check: i's whole, and j's without its
    entry for i, which i's entry for j puts first on j's side of its layer.
    A pair with a refused row (an edge or split that would cost more than
    the whole budget) is refused unlisted, before either row's option
    tables are built.  Where no pair meets twice, the pair's one split is
    the two rows' entries as one layer, and no table is built.  Rows of
    different degrees yield nothing.
    """
    depth, cap = budget.depth, budget.cap
    edges_i, refused_i, layer_i = budget.row(i)
    edges_j, refused_j, layer_j = budget.row(j)
    if refused_i or refused_j:
        raise _splits_exceeded(cap, i, j)
    if depth == 1:  # every entry has one option (``_edge_options``): one split
        budget.spent += 1
        if budget.spent > cap:
            raise _splits_exceeded(cap, i, j)
        if len(edges_i) == len(edges_j):
            t = bisect_left(layer_j, (i,)) if problem.matches[i][j] else len(layer_j)
            yield [(layer_i, layer_j[t : t + 1] + layer_j[:t] + layer_j[t + 1 :])]
        return
    options_i, codes_i = budget.tables(i)
    options_j, codes_j = budget.tables(j)
    shared = None
    if problem.matches[i][j]:  # the entry i-j: i's at ``shared``, j's dropped
        shared = bisect_left(edges_i, (j,))
        t = bisect_left(edges_j, (i,))
        edges_j, options_j, codes_j = (row[:t] + row[t + 1 :] for row in (edges_j, options_j, codes_j))
    for choice_i, code_i in zip(itertools.product(*options_i), itertools.product(*codes_i)):
        rows_i: list[list[tuple[int, int]]] = [[] for _ in range(depth)]
        for (k, _, _), (subset, split) in zip(edges_i, choice_i):
            for p, r in zip(subset, split):
                rows_i[p].append((k, r))
        # j's own entries must fill what i's layers hold beyond the shared entry.
        need = sum(code_i)
        shared_rows: list[list[tuple[int, int]]] = [[] for _ in range(depth)]
        if shared is not None:
            need -= code_i[shared]
            for p, r in zip(*choice_i[shared]):
                shared_rows[p].append((i, -r))
        lefts = [tuple(row) for row in rows_i]
        for choice_j, code_j in zip(itertools.product(*options_j), itertools.product(*codes_j)):
            budget.spent += 1
            if budget.spent > cap:
                raise _splits_exceeded(cap, i, j)
            if sum(code_j) == need:
                rows_j = [list(row) for row in shared_rows]
                for (l, _, _), (subset, split) in zip(edges_j, choice_j):
                    for p, r in zip(subset, split):
                        rows_j[p].append((l, r))
                yield list(zip(lefts, map(tuple, rows_j)))


def _splits_exceeded(cap: int, i: int, j: int) -> BudgetExceededError:
    return BudgetExceededError(f"more than {cap} layer splits examined for pair ({object_label(i)}, {object_label(j)})")


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


def _dominance_search(problem, levels, i, j, budget, strict_results_only, strict):
    """Does i dominate j under the weak order ``levels``?  Returns (kind, witness).

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
    matches = problem.matches
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
    levels = induce_ranking(ratings)
    degrees = multigraph(problem).degrees
    # Both conclusions already hold for a pair with i on a better level than j.
    pairs = [
        (i, j)
        for i in range(problem.n)
        for j in range(problem.n)
        if i != j and degrees[i] == degrees[j] and levels[i] >= levels[j]
    ]
    splits = _SplitBudget(problem, budget)
    for pairs_checked, (i, j) in enumerate(pairs, 1):
        try:
            kind, witness = _dominance_search(
                problem, levels, i, j, splits, strict_results_only, levels[i] == levels[j]
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


def enumerate_sc_rankings(problem: RankingProblem) -> list[tuple[int, ...]]:
    """All weak orders on which no self-consistency implication breaks.

    Exhaustive over the 75 (n=4) up to 4683 (n=6) candidate orders; each is
    kept iff every dominance implication, read against the candidate itself,
    is satisfied.  Only the order premises read the candidate, so each
    eligible pair's layer splits are walked once (where no pair meets twice,
    its one split, straight from the two rows), and each layer's pairings
    are decided against all candidate orders at once, one bit per order, by
    a subset DP (:class:`_OrderLanes`, which :func:`impossibility_trace`
    reads too); the admitted orders' levels are the rows of its set bits in
    :func:`pairrank.methods.weak_order_lines`, in lane order.  Raises
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
    return list(lanes.levels(lanes.admitted(problem)))


@functools.cache
def _order_relations(n: int) -> tuple[tuple, int, int, dict, dict]:
    """The rows of :class:`_OrderLanes` on n objects, their count, the set
    of all orders and the ``weak`` and ``strict`` relation sets, shared read
    only.  Object k's levels, one byte per order as
    :func:`pairrank.methods._level_columns` joins them, become one integer
    L_k, a byte lane per order.  Levels stay below n, so each lane holds at
    most 127 for any n < 128 (far above the six-object limit) and lane-wise
    subtraction never borrows across lanes: ``((L_l | H) - L_k) & H``, H the
    lanes' high bits, marks the orders with L_k <= L_l (``weak[k, l]``,
    every order when k = l).  Each high bit then packs down to one bit, lane
    x to bit x: the big-endian bytes, last lane first, read as binary
    digits.  L_k < L_l where L_l <= L_k fails, so ``strict[k, l]`` is the
    complement of ``weak[l, k]``."""
    rows = tuple(weak_order_lines(n))
    count, everywhere = len(rows), (1 << len(rows)) - 1
    high = int.from_bytes(b"\x80" * count, "little")
    levels = [int.from_bytes(column, "little") for column in _level_columns(n)[1]]
    as_digit = bytes.maketrans(b"\0\x80", b"01")  # a lane's high bit as a binary digit
    weak = {(k, k): everywhere for k in range(n)}
    for k, l in itertools.permutations(range(n), 2):
        lanes = ((levels[l] | high) - levels[k]) & high
        weak[k, l] = int(lanes.to_bytes(count, "big").translate(as_digit), 2)
    return rows, count, everywhere, weak, {(k, l): everywhere ^ weak[l, k] for k, l in weak}


class _OrderLanes:
    """Every weak order on n >= 1 objects at once, one bit (lane) per order,
    in :func:`pairrank.methods.iter_weak_orders` order: a set of orders is
    an integer, bit x for order x (``everywhere`` sets them all).  ``rows``
    holds each lane's levels, the keys of :func:`pairrank.methods.weak_order_lines`;
    ``weak[k, l]`` and ``strict[k, l]`` hold the orders with k at or strictly
    above l (:func:`_order_relations`).  A layer's verdict depends only on
    its ``(opponent, result)`` tuples, so one table, with its cache of layer
    verdicts, serves every problem on n objects; each keeps its own verdicts,
    which a cache per n would keep growing."""

    truths = bytes.maketrans(b"0", b"\0")  # a binary digit as a truth byte for compress

    def __init__(self, n: int):
        self.rows, self.count, self.everywhere, self.weak, self.strict = _order_relations(n)
        self.verdicts = {}  # a plain dict: a cache bound to self would be a reference cycle

    def levels(self, lanes: int) -> Iterator[tuple[int, ...]]:
        """The levels of the orders in ``lanes``, in lane order: the shared
        rows of its set bits, the same tuples for every table on n objects."""
        return itertools.compress(self.rows, bin(lanes)[:1:-1].encode().translate(self.truths))

    def admitted(self, problem) -> int:
        """The orders that meet every dominance conclusion on ``problem``.

        An eligible pair i, j is broken where j sits above i while i
        dominates it, or tied with i while i dominates it strictly.
        """
        degrees = multigraph(problem).degrees
        sums = _ranks(problem.row_sums)  # compared as ints
        splits = _SplitBudget(problem)
        broken = 0
        for i, j in itertools.permutations(range(problem.n), 2):
            if degrees[i] == degrees[j] and sums[i] >= sums[j]:
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
        strict, by a result or by an order premise.

        A subset DP (Held and Karp; Ryser), 2**m * m steps for m opponents
        instead of m! pairings: i's first |S| opponents pair with the set S
        of j's where the last of them, k, pairs with some b in S (r_k >= r_b,
        k at or above l_b) and the rest with S - b, strictly where that pair
        or the rest is strict.  Every pair has r_k >= r_b, so where the two
        sides' results sum unequal, every feasible pairing is strict by a
        result, and the strict orders are the holding ones.
        """
        weak, strict = self.weak, self.strict
        differ = sum(r for _, r in left) != sum(r for _, r in right)
        cells = [(1 << b, l, rl) for b, (l, rl) in enumerate(right)]
        holds, strictly = [self.everywhere], [0]
        for subset in range(1, 1 << len(right)):
            k, rk = left[subset.bit_count() - 1]
            h = t = 0
            for bit, l, rl in cells:
                if subset & bit and rk >= rl:
                    rest, lanes = subset ^ bit, weak[k, l]
                    h |= holds[rest] & lanes
                    if not differ:
                        t |= strictly[rest] & lanes | holds[rest] & (lanes if rk > rl else strict[k, l])
            holds.append(h)
            strictly.append(t)
        return holds[-1], holds[-1] if differ else strictly[-1]


def pair_variants(problem: RankingProblem, k: int, l: int) -> _Variants:
    """Admissible single-pair replacements ``(result, matches)`` for searches:
    the match count moves by at most one and the integer result stays within
    the new count."""
    return _Variants(problem.results[k][l], problem.matches[k][l])


@dataclass(frozen=True)
class _Variants:
    """The replacements of a pair with base ``(result, count)``, made one by
    one as they are iterated, count by count and result by result, the base
    left out; ``len`` counts them without making any."""

    result: Fraction
    count: int

    def __iter__(self) -> Iterator[tuple[int, int]]:
        m, base = self.count, (self.result, self.count)
        return ((r2, m2) for m2 in range(max(m - 1, 0), m + 2) for r2 in range(-m2, m2 + 1) if (r2, m2) != base)

    def __len__(self) -> int:
        # The counts low..count + 1 hold (count + 2)**2 - low**2 results; an
        # integer base result is one of them.
        low = max(self.count - 1, 0)
        return (self.count + 2) ** 2 - low**2 - (self.result.denominator == 1)


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


def _sweep(axiom, scorer, problem, changes, budget):
    """The single-pair sweep behind IIM, MVA and MVI.

    ``changes`` lazily yields ``(a, b, variants, watched, context)``: the
    pair to change, its replacement ``(result, matches)`` entries, the
    watched objects in index order, and ``context(result, matches)`` for a
    witness.  Every pair of watched objects, in ``itertools.combinations``
    order, of every variant is one instance; the first order flip wins and
    ``budget`` caps the instance count, a sweep it cuts short ending
    ``budget-exceeded``.  Where the base ratings carry a pair update, a
    change's variants lie on one line x + c*z.  A change whose z takes one
    value on the watched objects, and whose every match count has a line,
    is counted at once (``pair_update.level``): its keys x*s + z*t, s > 0,
    rank the watched objects as x does, ties included, so no variant flips.
    It is taken only where the budget covers all its instances, so every
    cut point is as a variant-by-variant sweep would give it.  Any other
    change is read along the chain of its watched objects by base rank,
    whose order the line keeps on one interval (``_order_interval``);
    a variant off the line (LS, a bridge removed), and every variant of
    ratings without one, is re-scored in full, once per distinct ``(a, b,
    result, matches)``.  Only a variant where some watched pair flips gets
    its keys and has its instances scanned.
    ``_flipped`` decides a flip, in the scan and again on the exact ratings
    of a full re-score, which must agree before the violation is reported.
    """
    base = scorer(problem)
    update = base.pair_update
    before = _ranks(base.values)
    rescore = functools.cache(lambda a, b, r2, m2: _ranks(scorer(with_pair(problem, a, b, r2, m2)).values))
    instances = 0

    def report(verdict, witness=None, detail=""):
        return AxiomReport(axiom, base.method, verdict, witness, instances, detail)

    for a, b, variants, watched, context in changes:
        size = len(watched) * (len(watched) - 1) // 2
        whole = len(variants) * size
        if update and (budget is None or whole <= budget - instances) and update.level(a, b, watched):
            instances += whole
            continue
        chain = sorted(watched, key=before.__getitem__)
        ties = [t for t in range(len(chain) - 1) if before[chain[t]] == before[chain[t + 1]]]
        variant = None
        for r2, m2 in variants:
            take = size if budget is None else min(size, budget - instances)
            if take:
                if update and variant is None:
                    xs, zs, variant = update(a, b, chain)
                    keeps = _order_interval(ties, xs, zs)
                step = variant and variant(r2, m2)
                if step is None:
                    now = [rescore(a, b, r2, m2)[x] for x in chain]
                    flips = not _keeps_order(ties, now)
                else:
                    flips = not keeps(*step)
                if flips:
                    if step is not None:
                        now = [x * step[0] + z * step[1] for x, z in zip(xs, zs)]
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


def _order_interval(ties, xs, zs):
    """``keeps(s, t)``: whether the keys ``xs*s + zs*t``, s > 0, of a
    variant keep the chain's order, exactly as ``_keeps_order(ties, keys)``.

    ``xs`` never falls along the chain and is flat exactly across its ties,
    so a step (dx, dz) holds iff dx*s + dz*t >= 0: t/s >= -dx/dz where
    dz > 0, t/s <= dx/-dz where dz < 0.  On each side only the tightest
    step, the least dx/|dz|, is kept; (1, 0) bounds nothing.  A tie that z
    breaks holds only at t == 0, where every bound holds too.
    """
    if any(zs[t] != zs[t + 1] for t in ties):
        return lambda s, t: t == 0
    lx, lz, hx, hz = 1, 0, 1, 0
    for dx, dz in zip(map(sub, xs[1:], xs), map(sub, zs[1:], zs)):
        if dz > 0 and dx * lz < lx * dz:
            lx, lz = dx, dz
        elif dz < 0 and dx * hz > hx * dz:
            hx, hz = dx, dz
    return lambda s, t: lx * s + lz * t >= 0 and hx * s + hz * t >= 0


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
    unsatisfiable.  Every step reads one table of the 75 weak orders of four
    objects, one bit per order (:class:`_OrderLanes`), which serves both
    instances: "under every order" compares a set with all 75 bits, and the
    conditional step is an AND of relation sets, so no order is searched alone.
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
