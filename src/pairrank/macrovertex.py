"""Macrovertex detection and the two localized independence checks.

A macrovertex is a set of objects whose members all have the same number of
comparisons against every outside object; it depends on the matches matrix
only.  Given such a set V, two restricted independence properties become
checkable: changes inside V must not reorder objects outside it (MVI), and
changes outside V must not reorder objects inside it (MVA).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    RankingProblem,
    with_pair,  # noqa: F401 -- perfbench/tracer.py rebinds this module's copy
)
from .axioms import AxiomReport, BudgetExceededError, _sweep, pair_variants

__all__ = [
    "Macrovertex",
    "find_macrovertices",
    "is_macrovertex",
    "search_mv_violation",
]


@dataclass(frozen=True)
class Macrovertex:
    """A set of objects, each with the same match count against every outsider."""

    members: tuple[int, ...]

    def format(self, labels) -> str:
        return "{" + ", ".join(labels[i] for i in self.members) + "}"


def is_macrovertex(problem: RankingProblem, members) -> bool:
    """True iff all members have identical match counts against each outsider."""
    inside = sorted(set(members))
    if any(i < 0 or i >= problem.n for i in inside):
        raise ValueError(f"members out of range: {members!r}")
    outside = [k for k in range(problem.n) if k not in inside]
    return all(
        len({problem.matches[i][k] for i in inside}) == 1 for k in outside
    )


def find_macrovertices(problem: RankingProblem) -> list[Macrovertex]:
    """Every nontrivial macrovertex (2 <= size <= n-1), smallest first.

    Singletons and the full set qualify vacuously and are suppressed.  Raises
    ``BudgetExceededError`` for more than twenty objects, before any subset
    is tested.
    """
    n = problem.n
    if n > 20:
        raise BudgetExceededError(f"macrovertex detection is limited to twenty objects, got {n}")
    found = []
    for size in range(2, n):
        for members in itertools.combinations(range(n), size):
            if is_macrovertex(problem, members):
                found.append(Macrovertex(members=members))
    return found


def _context(members, changed) -> dict:
    return {"macrovertex": sorted(members), "perturbed_pair": list(changed)}


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
        for mv in macrovertices:
            outside = tuple(k for k in range(problem.n) if k not in mv.members)
            change_side, watch_side = (mv.members, outside) if which == "mvi" else (outside, mv.members)
            if len(change_side) < 2 or len(watch_side) < 2:
                continue
            for a, b in itertools.combinations(change_side, 2):
                context = lambda r2, m2, members=mv.members, a=a, b=b: _context(members, (a, b))
                yield a, b, pair_variants(problem, a, b), watch_side, context

    return _sweep(which, scorer, problem, changes(), budget)
