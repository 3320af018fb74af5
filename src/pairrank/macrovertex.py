"""Macrovertex detection and the two localized independence checks.

A macrovertex is a set of objects whose members all have the same number of
comparisons against every outside object; it depends on the matches matrix
only.  Given such a set V, two restricted independence properties become
checkable: changes inside V must not reorder objects outside it (MVI), and
changes outside V must not reorder objects inside it (MVA).
"""

from __future__ import annotations

import itertools

from .core import (
    RankingProblem,
    with_pair,  # noqa: F401 -- perfbench/tracer.py rebinds this module's copy
)
from .axioms import AxiomReport, BudgetExceededError, _sweep, pair_variants

__all__ = ["find_macrovertices", "is_macrovertex", "search_mv_violation"]


def is_macrovertex(problem: RankingProblem, members) -> bool:
    """True iff all members have identical match counts against each outsider."""
    inside = sorted(set(members))
    if inside and (inside[0] < 0 or inside[-1] >= problem.n):
        raise ValueError(f"members out of range: {members!r}")
    outside = [k for k in range(problem.n) if k not in inside]
    return all(
        len({problem.matches[i][k] for i in inside}) == 1 for k in outside
    )


def find_macrovertices(problem: RankingProblem) -> list[tuple[int, ...]]:
    """The members of every nontrivial macrovertex (2 <= size <= n-1), each
    an increasing tuple of object indices; smaller sets first, and sets of
    one size in lexicographic order.

    Singletons and the full set qualify vacuously and are suppressed.  Raises
    ``BudgetExceededError`` for more than twenty objects, before any subset
    is tested.
    """
    n = problem.n
    if n > 20:
        raise BudgetExceededError(f"macrovertex detection is limited to twenty objects, got {n}")
    return [
        members
        for size in range(2, n)
        for members in itertools.combinations(range(n), size)
        if is_macrovertex(problem, members)
    ]


def search_mv_violation(
    scorer, problem: RankingProblem, which: str, budget: int | None = None
) -> AxiomReport:
    """Sweep single-pair changes over every nontrivial macrovertex.

    For each macrovertex, each admissible single-pair change on the relevant
    side, and each watched pair on the other side, verify order preservation.
    ``budget`` caps the instance count, and a sweep it cuts short ends
    ``budget-exceeded``; the first violation wins.
    """
    if which not in ("mva", "mvi"):
        raise ValueError(f"unknown property {which!r}; expected 'mva' or 'mvi'")
    macrovertices = find_macrovertices(problem)
    if not macrovertices:
        raise ValueError("no nontrivial macrovertex found")

    def changes():
        for members in macrovertices:
            outside = tuple(k for k in range(problem.n) if k not in members)
            change_side, watch_side = (members, outside) if which == "mvi" else (outside, members)
            if len(change_side) < 2 or len(watch_side) < 2:
                continue
            for a, b in itertools.combinations(change_side, 2):
                context = lambda r2, m2, members=members, a=a, b=b: {
                    "macrovertex": list(members),
                    "perturbed_pair": [a, b],
                }
                yield a, b, pair_variants(problem, a, b), watch_side, context

    return _sweep(which, scorer, problem, changes(), budget)
