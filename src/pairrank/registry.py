"""Built-in demonstration instances.

Five small problems exercised throughout the test suite and exposed through
the command line under short ids.  Entry 3.3 stores the orientation in
which X4 beats X3 (the variant under id 3.3-prime flips that single result
and equals 3.3 relabeled by swapping X1 with X2 and X3 with X4).
"""

from __future__ import annotations

from .core import problem_from_results_matches
from .serialize import LabeledProblem

__all__ = ["get_instance", "instance_ids"]


def _build() -> dict[str, LabeledProblem]:
    entries = {}

    entries["3.1"] = LabeledProblem(
        labels=("X1", "X2", "X3", "X4"),
        problem=problem_from_results_matches(
            [
                [0, 1, 1, 0],
                [-1, 0, 0, 1],
                [-1, 0, 0, 1],
                [0, -1, -1, 0],
            ],
            [
                [0, 1, 1, 0],
                [1, 0, 0, 1],
                [1, 0, 0, 1],
                [0, 1, 1, 0],
            ],
        ),
        note=(
            "Four objects, four decisive single matches: X1 beats X2 and X3;"
            " X2 and X3 each beat X4.  Balanced, unweighted, extremal."
        ),
    )

    entries["3.2"] = LabeledProblem(
        labels=("X1", "X2", "X3", "X4", "X5", "X6"),
        problem=problem_from_results_matches(
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
        note=(
            "Six objects on a cycle: draws X1-X2, X2-X3, X4-X5, X5-X6;"
            " wins X1 over X6 and X3 over X4.  Multiple self-consistent"
            " rankings exist for this instance."
        ),
    )

    cycle_matches = [
        [0, 1, 0, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, 1, 0],
    ]
    entries["3.3"] = LabeledProblem(
        labels=("X1", "X2", "X3", "X4"),
        problem=problem_from_results_matches(
            [
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, -1],
                [0, 0, 1, 0],
            ],
            cycle_matches,
        ),
        note=(
            "Four objects on a cycle with a single decisive result: X4 beats"
            " X3, all other matches drawn.  This orientation (X4 over X3) is"
            " the one the bundled derivations rely on; the variant with the"
            " opposite sign on that pair is stored separately as 3.3-prime."
        ),
    )

    entries["3.3-prime"] = LabeledProblem(
        labels=("X1", "X2", "X3", "X4"),
        problem=problem_from_results_matches(
            [
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 1],
                [0, 0, -1, 0],
            ],
            cycle_matches,
        ),
        note=(
            "Variant of 3.3 with the X3-X4 result flipped (X3 beats X4)."
            "  Equals 3.3 relabeled by swapping X1 with X2 and X3 with X4."
        ),
    )

    entries["4.1"] = LabeledProblem(
        labels=("X1", "X2", "X3", "X4", "X5", "X6"),
        problem=problem_from_results_matches(
            [[0] * 6 for _ in range(6)],
            [
                [0, 0, 0, 2, 1, 0],
                [0, 0, 3, 2, 1, 0],
                [0, 3, 0, 2, 1, 0],
                [2, 2, 2, 0, 1, 0],
                [1, 1, 1, 1, 0, 3],
                [0, 0, 0, 0, 3, 0],
            ],
        ),
        note=(
            "Comparison structure only (all results zero): X1, X2, X3 each"
            " play X4 twice and X5 once, X2 plays X3 three times, X4 plays"
            " X5 once, X5 plays X6 three times.  {X1, X2, X3} is a"
            " macrovertex; {X4, X5, X6} is not."
        ),
    )

    return entries


_REGISTRY = _build()


def instance_ids() -> list[str]:
    return sorted(_REGISTRY)


def get_instance(instance_id: str) -> LabeledProblem:
    try:
        return _REGISTRY[instance_id]
    except KeyError:
        raise KeyError(
            f"unknown instance {instance_id!r}; available: {', '.join(instance_ids())}"
        ) from None
