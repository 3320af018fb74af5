"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns a :class:`Problem`
(labels, integer results ``R``, match counts ``M``); nothing here imports
the package under test, so the program only ever sees the files written
from these.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction


class Problem:
    """Labels plus a skew-symmetric results matrix and a symmetric match-count matrix."""

    def __init__(self, n: int, prefix: str = "X"):
        width = len(str(n))
        self.labels = [f"{prefix}{i + 1:0{width}d}" for i in range(n)]
        self.R = [[Fraction(0)] * n for _ in range(n)]
        self.M = [[0] * n for _ in range(n)]
        # Games in play order as (a, b, score of a); empty when built from matrices.
        self.matches: list[tuple[int, int, Fraction]] = []

    @property
    def n(self) -> int:
        return len(self.labels)

    def play(self, a: int, b: int, result: int) -> None:
        """One unit match; ``result`` is a's outcome in {-1, 0, 1}."""
        self.M[a][b] += 1
        self.M[b][a] += 1
        self.R[a][b] += result
        self.R[b][a] -= result
        self.matches.append((a, b, Fraction(result + 1, 2)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "labels": self.labels,
                "R": [[str(x) for x in row] for row in self.R],
                "M": self.M,
            }
        )

    def to_csv(self) -> str:
        lines = ["object_a,object_b,score_a,score_b"]
        for a, b, score in self.matches:
            lines.append(f"{self.labels[a]},{self.labels[b]},{score},{1 - score}")
        return "\n".join(lines) + "\n"


def _outcome(rng: random.Random, strength_gap: float) -> int:
    """Win/draw/loss for the first player, leaning toward the stronger one."""
    if rng.random() < 0.3:
        return 0
    p_win = 1 / (1 + 10 ** (-strength_gap / 400))
    return 1 if rng.random() < p_win else -1


def _pair_round(order: list[int], met) -> list[tuple[int, int]]:
    """Pair neighbours in ``order`` without rematches, backtracking a bounded
    number of steps; falls back to greedy pairing that allows rematches."""
    steps = [0]

    def solve(rest: list[int]):
        if not rest:
            return []
        steps[0] += 1
        if steps[0] > 20_000:
            return None
        a = rest[0]
        for b in rest[1:]:
            if b in met[a]:
                continue
            tail = solve([p for p in rest[1:] if p != b])
            if tail is not None:
                return [(a, b)] + tail
        return None

    pairs = solve(order)
    if pairs is None:
        pairs = [(order[k], order[k + 1]) for k in range(0, len(order), 2)]
    return pairs


def swiss(rng: random.Random, n: int, rounds: int = 11) -> Problem:
    """Swiss-system table: each round pairs neighbours within score groups.

    Players are ordered by (score, seeding) and paired top-down with the
    nearest player they have not met.  With odd n the lowest-placed player
    without a bye sits the round out (a bye is not a match).
    """
    problem = Problem(n, prefix="T")
    strength = sorted((rng.gauss(2000, 200) for _ in range(n)), reverse=True)
    score = [Fraction(0)] * n
    had_bye = [False] * n
    met = [set() for _ in range(n)]
    for _ in range(rounds):
        order = sorted(range(n), key=lambda p: (-score[p], p))
        if n % 2:
            bye = next(p for p in reversed(order) if not had_bye[p])
            had_bye[bye] = True
            score[bye] += 1
            order.remove(bye)
        for a, b in _pair_round(order, met):
            met[a].add(b)
            met[b].add(a)
            result = _outcome(rng, strength[a] - strength[b])
            problem.play(a, b, result)
            score[a] += Fraction(result + 1, 2)
            score[b] += Fraction(1 - result, 2)
    return problem


def sparse_connected(rng: random.Random, n: int, singles: int, doubles: int) -> Problem:
    """Connected problem with exactly ``singles`` pairs met once and
    ``doubles`` pairs met twice; a random spanning tree comes first."""
    if singles + doubles < n - 1 or singles + doubles > n * (n - 1) // 2:
        raise ValueError("edge counts do not fit a connected simple graph")
    problem = Problem(n)
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = [(nodes[k], nodes[rng.randrange(k)]) for k in range(1, n)]
    chosen = {frozenset(e) for e in edges}
    rest = [e for e in itertools.combinations(range(n), 2) if frozenset(e) not in chosen]
    rng.shuffle(rest)
    edges += rest[: singles + doubles - len(edges)]
    rng.shuffle(edges)
    for k, (a, b) in enumerate(edges):
        for _ in range(2 if k < doubles else 1):
            problem.play(a, b, rng.choice((-1, 0, 1)))
    return problem


def macrovertices(M) -> list[tuple[int, ...]]:
    """Every member set of size 2..n-1 whose members meet each outsider equally often."""
    n = len(M)
    return [
        members
        for size in range(2, n)
        for members in itertools.combinations(range(n), size)
        if all(
            len({M[i][k] for i in members}) == 1 for k in range(n) if k not in members
        )
    ]


def mirrored(rng: random.Random, n: int, density: float = 0.45) -> Problem:
    """Sparse problem invariant under swapping objects 0<->4 and 2<->3.

    Any rating method that ignores labels ties 2 with 3.  Changing the
    (0, 1) comparison breaks the symmetry, so a scorer that violates IIM
    typically shows it on the very first instance of a sweep.
    """
    swap = list(range(n))
    swap[0], swap[4], swap[2], swap[3] = 4, 0, 3, 2
    problem = Problem(n)
    # 2 meets 0 and 3 meets 4, never the other way round: otherwise 2 and 3
    # could be exact twins that no change at (0, 1) ever separates.
    result = rng.choice((-1, 0, 1))
    problem.play(0, 2, result)
    problem.play(4, 3, result)
    done = {(0, 2), (3, 4), (0, 3), (2, 4)}
    for a, b in itertools.combinations(range(n), 2):
        if (a, b) in done or rng.random() >= density:
            continue
        image = tuple(sorted((swap[a], swap[b])))
        done.update({(a, b), image})
        if image == (a, b):  # the pair maps to itself reversed: only a draw is symmetric
            problem.play(a, b, 0)
            continue
        result = rng.choice((-1, 0, 1))
        problem.play(a, b, result)
        problem.play(swap[a], swap[b], result)
    return problem


def permuted(rng: random.Random, source: Problem) -> Problem:
    """Copy of ``source`` with its objects in random order, labels kept."""
    order = list(range(source.n))
    rng.shuffle(order)
    problem = Problem(source.n)
    problem.labels = [source.labels[i] for i in order]
    problem.R = [[source.R[i][j] for j in order] for i in order]
    problem.M = [[source.M[i][j] for j in order] for i in order]
    return problem


def planted_macrovertex(rng: random.Random, n: int, size: int, outside_pairs: int) -> Problem:
    """Connected problem whose only nontrivial macrovertex is a planted set.

    Members meet each outsider equally often (the outsiders' common counts
    follow a fixed profile) and each other 0, 1 and 2 times, so that no
    smaller subset of them is a macrovertex too; exactly ``outside_pairs``
    outsider pairs meet once.  The structure, and so the size of every
    macrovertex sweep on it, depends only on the arguments.
    """
    if size not in (2, 3):
        raise ValueError("planted macrovertices have two or three members")
    outsiders = n - size
    profile = ([1, 2, 0, 1] * n)[:outsiders]
    while True:
        problem = Problem(n)
        order = list(range(n))
        rng.shuffle(order)
        members, outside = order[:size], order[size:]
        inner = [1] if size == 2 else [0, 1, 2]
        rng.shuffle(inner)
        for (a, b), count in zip(itertools.combinations(members, 2), inner):
            for _ in range(count):
                problem.play(a, b, rng.choice((-1, 0, 1)))
        counts = list(profile)
        rng.shuffle(counts)
        for k, common in zip(outside, counts):
            for a in members:
                for _ in range(common):
                    problem.play(a, k, rng.choice((-1, 0, 1)))
        tree = [(outside[k], outside[rng.randrange(k)]) for k in range(1, outsiders)]
        chosen = {frozenset(e) for e in tree}
        extra = [e for e in itertools.combinations(outside, 2) if frozenset(e) not in chosen]
        rng.shuffle(extra)
        for a, b in tree + extra[: outside_pairs - len(tree)]:
            problem.play(a, b, rng.choice((-1, 0, 1)))
        if macrovertices(problem.M) == [tuple(sorted(members))]:
            return problem


def round_robin(rng: random.Random, n: int, multiplicity: int) -> Problem:
    """Every pair meets ``multiplicity`` times, so every subset is a macrovertex."""
    problem = Problem(n)
    for a, b in itertools.combinations(range(n), 2):
        for _ in range(multiplicity):
            problem.play(a, b, rng.choice((-1, 0, 1)))
    return problem


def round_robin_one_tie(rng: random.Random, n: int, multiplicity: int) -> Problem:
    """Round robin whose row sums have exactly one tied pair of objects."""
    while True:
        problem = round_robin(rng, n, multiplicity)
        if len({sum(row) for row in problem.R}) == n - 1:
            return problem


def regular(rng: random.Random, n: int, degree: int) -> Problem:
    """Balanced unweighted problem: every object meets ``degree`` others once."""
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = {frozenset(stubs[k : k + 2]) for k in range(0, len(stubs), 2)}
        if len(pairs) == n * degree // 2 and all(len(pair) == 2 for pair in pairs):
            break
    problem = Problem(n)
    for a, b in sorted(tuple(sorted(pair)) for pair in pairs):
        problem.play(a, b, rng.choice((-1, 0, 1)))
    return problem


def dense_weighted(rng: random.Random, n: int, max_multiplicity: int, density: float) -> Problem:
    """Each pair meets with probability ``density``, 1..max_multiplicity times."""
    problem = Problem(n)
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < density:
            for _ in range(rng.randint(1, max_multiplicity)):
                problem.play(a, b, rng.choice((-1, 0, 1)))
    return problem


def _from_matrices(R, M) -> Problem:
    problem = Problem(len(M))
    problem.R = [[Fraction(x) for x in row] for row in R]
    problem.M = [list(row) for row in M]
    return problem


# Examples 3.1-3.3 of the paper, as the package's registry stores them.
PAPER = {
    "3.1": _from_matrices(
        [[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 1], [0, -1, -1, 0]],
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]],
    ),
    "3.2": _from_matrices(
        [
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0, 0],
        ],
        [
            [0, 1, 0, 0, 0, 1],
            [1, 0, 1, 0, 0, 0],
            [0, 1, 0, 1, 0, 0],
            [0, 0, 1, 0, 1, 0],
            [0, 0, 0, 1, 0, 1],
            [1, 0, 0, 0, 1, 0],
        ],
    ),
    "3.3": _from_matrices(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]],
    ),
}
