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
    _components,
    with_pair,  # noqa: F401 -- perfbench/tracer.py rebinds this module's copy
)
from .axioms import BUDGET_EXCEEDED, AxiomReport, BudgetExceededError, _sweep, pair_variants

__all__ = ["find_macrovertices", "search_mv_violation"]

# Cap on the macrovertices one detection may list.  A round robin of 20
# objects has 2**20 - 22 and stays within it; one of 21 has 2**21 - 23.
MAX_MACROVERTICES = 2**20


# Tracer-only: nothing in the package calls this test; perfbench/tracer.py
# rebinds it by name to count subsets tested, so it stays while the tracer does.
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

    A macrovertex is a module of the symmetric 2-structure whose edge colour
    is the match count m_ij, so all of them are read off its modular
    decomposition tree (``_strong_modules``): every strong module but the
    root, and at a complete node with k children every union of 2 to k-1
    children.  Singletons and the full set qualify vacuously and are
    suppressed.  Raises ``BudgetExceededError`` when there are more than
    ``MAX_MACROVERTICES``, counted from the tree before any set is listed.
    """
    n = problem.n
    nodes = _strong_modules(problem.matches)
    found = [node for node, _, _ in nodes if len(node) < n]
    unions = [children for _, children, complete in nodes if complete and len(children) > 2]
    count = len(found) + sum(2 ** len(children) - len(children) - 2 for children in unions)
    if count > MAX_MACROVERTICES:
        raise BudgetExceededError(f"{count} macrovertices exceed the cap of {MAX_MACROVERTICES}")
    for children in unions:
        for size in range(2, len(children)):
            for chosen in itertools.combinations(children, size):
                found.append(tuple(sorted(itertools.chain.from_iterable(chosen))))
    return sorted(found, key=lambda members: (len(members), members))


def _strong_modules(matches) -> list[tuple[tuple[int, ...], list, bool]]:
    """``(node, children, complete)`` for every strong module of two or more
    objects, the set of all objects first; each set is an increasing tuple.

    A node is complete when, for some colour c, the pairs whose match count
    differs from c split it into two or more components: those are its
    children, and every pair across two of them has count c.  At most one
    colour can do so.  Otherwise the node is prime and its children are its
    maximal proper modules.
    """
    out = []
    stack = [tuple(range(len(matches)))]
    while stack:
        node = stack.pop()
        if len(node) < 2:
            continue
        v = node[0]
        for colour in {matches[v][u] for u in node[1:]}:
            children = _components(matches, node, colour)
            if len(children) > 1:
                complete = True
                break
        else:
            # Each maximal module without v is a child, or lies in v's child;
            # it lies there when it and v sit in a module smaller than the node.
            complete, own, children = False, [v], []
            for part in _refine(matches, node, v):
                if len(_closure(matches, node, (v, part[0]))) < len(node):
                    own += part
                else:
                    children.append(part)
            children.append(tuple(sorted(own)))
        out.append((node, children, complete))
        stack += children
    return out


def _refine(matches, node, v) -> list[tuple[int, ...]]:
    """The maximal modules of ``node`` that leave out v: the coarsest
    partition of its other members in which each member of ``node`` outside
    a part plays all of that part equally often.  A part that splits sends
    its members back to the pivot queue, since each may now tell the new
    parts apart."""
    parts = [tuple(u for u in node if u != v)]
    queue, queued = [v], {v}
    while queue:
        x = queue.pop()
        queued.discard(x)
        row = matches[x]
        refined = []
        for part in parts:
            groups: dict[int, list[int]] = {}
            if x not in part:
                for y in part:
                    groups.setdefault(row[y], []).append(y)
            if len(groups) < 2:
                refined.append(part)
                continue
            refined += map(tuple, groups.values())
            queue += [y for y in part if y not in queued]
            queued.update(part)
        parts = refined
    return parts


def _closure(matches, node, seed) -> list[int]:
    """The smallest module of ``node`` that contains ``seed``: every other
    member of ``node`` that plays two of its members unequally often joins,
    until none does."""
    first = matches[seed[0]]
    inside = list(seed)
    outside = [z for z in node if z not in seed]
    for x in inside:
        row = matches[x]
        joined = [z for z in outside if row[z] != first[z]]
        if joined:
            outside = [z for z in outside if row[z] == first[z]]
            inside += joined
    return inside


def search_mv_violation(
    scorer, problem: RankingProblem, which: str, budget: int | None = None
) -> AxiomReport:
    """Sweep single-pair changes over every nontrivial macrovertex.

    For each macrovertex, each admissible single-pair change on the relevant
    side, and each watched pair on the other side, verify order preservation.
    ``budget`` caps the instance count, and a sweep it cuts short ends
    ``budget-exceeded``, as does a problem with more than
    ``MAX_MACROVERTICES`` macrovertices; the first violation wins.
    """
    if which not in ("mva", "mvi"):
        raise ValueError(f"unknown property {which!r}; expected 'mva' or 'mvi'")
    try:
        macrovertices = find_macrovertices(problem)
    except BudgetExceededError as exc:
        return AxiomReport(which, scorer(problem).method, BUDGET_EXCEEDED, None, 0, str(exc))
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
