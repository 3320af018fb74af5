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
    differing_pairs,
    object_label,
    with_pair,  # noqa: F401 -- perfbench/tracer.py rebinds this module's copy
)
from .axioms import (
    AxiomReport,
    BudgetExceededError,
    _order_preservation_report,
    _sweep,
    pair_variants,
)

__all__ = [
    "Macrovertex",
    "check_mva_instance",
    "check_mvi_instance",
    "find_macrovertices",
    "is_macrovertex",
    "search_mv_violation",
]


@dataclass(frozen=True)
class Macrovertex:
    """A member set plus the common multiplicity toward each outside object."""

    members: tuple[int, ...]
    outside_multiplicities: tuple[tuple[int, int], ...]

    def format(self, labels=None) -> str:
        if labels is None:
            return "{" + ", ".join(object_label(i) for i in self.members) + "}"
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

    Singletons and the full set qualify vacuously and are suppressed here;
    the instance checks still accept them when passed explicitly.  Raises
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
                outside = tuple(
                    (k, problem.matches[members[0]][k])
                    for k in range(n)
                    if k not in members
                )
                found.append(Macrovertex(members=members, outside_multiplicities=outside))
    return found


def _validate_instance(problem, perturbed, members, changed_inside: bool):
    if problem.n != perturbed.n:
        raise ValueError("problems have different object counts")
    inside = sorted(set(members))
    if not is_macrovertex(problem, inside) or not is_macrovertex(perturbed, inside):
        raise ValueError("the given set is not a macrovertex in both problems")
    diffs = differing_pairs(problem, perturbed)
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
    base = scorer(problem)
    after = scorer(perturbed)
    return _order_preservation_report("mvi", base, after, k, l, _context(members, changed), perturbed)


def check_mva_instance(scorer, problem, perturbed, members, i: int, j: int) -> AxiomReport:
    """Outside change, inside watch: order of (i, j) inside V must survive a
    single-pair change outside V."""
    inside, changed = _validate_instance(problem, perturbed, members, changed_inside=False)
    if i == j or i not in inside or j not in inside:
        raise ValueError("watched objects must be distinct members of the macrovertex")
    base = scorer(problem)
    after = scorer(perturbed)
    return _order_preservation_report("mva", base, after, i, j, _context(members, changed), perturbed)


def _context(members, changed) -> dict:
    return {"macrovertex": sorted(members), "perturbed_pair": list(changed)}


def search_mv_violation(
    scorer, problem: RankingProblem, which: str, budget: int | None = None
) -> AxiomReport:
    """Drive the instance checks over every nontrivial macrovertex.

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
