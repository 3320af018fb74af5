"""Exact rating methods and ordering-axiom checks for paired-comparison data.

Problems may be incomplete (not every pair compared) and weighted (pairs
compared repeatedly, outcomes with arbitrary rational intensity).  All
computation is exact rational arithmetic.
"""

from .core import (
    ClassFlags,
    ComparisonMultigraph,
    InvalidProblemError,
    RankingProblem,
    UnweightedDecomposition,
    canonical_unweighted_decomposition,
    classify,
    laplacian,
    multigraph,
    problem_from_results_matches,
    sum_problems,
)
from .methods import (
    RatingVector,
    Scorer,
    WeakOrder,
    generalized_row_sum,
    induce_ranking,
    iter_weak_orders,
    least_squares,
    make_scorer,
    row_sum,
)
from .axioms import (
    AxiomReport,
    BudgetExceededError,
    Dominance,
    SearchBudget,
    check_iim_instance,
    check_sc,
    check_wsc,
    enumerate_sc_rankings,
    impossibility_trace,
    sc_dominance,
    search_iim_violation,
)
from .macrovertex import (
    Macrovertex,
    check_mva_instance,
    check_mvi_instance,
    find_macrovertices,
    is_macrovertex,
    search_mv_violation,
)
from .registry import ExampleRegistryEntry, get_instance, instance_ids
from .serialize import (
    IngestError,
    LabeledProblem,
    MatchRecord,
    SchemaError,
    emit_problem_json,
    ingest_matches,
    parse_problem_json,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BudgetExceededError",
    "ClassFlags",
    "ComparisonMultigraph",
    "Dominance",
    "ExampleRegistryEntry",
    "IngestError",
    "InvalidProblemError",
    "LabeledProblem",
    "Macrovertex",
    "MatchRecord",
    "RankingProblem",
    "RatingVector",
    "SchemaError",
    "Scorer",
    "SearchBudget",
    "UnweightedDecomposition",
    "WeakOrder",
    "canonical_unweighted_decomposition",
    "check_iim_instance",
    "check_mva_instance",
    "check_mvi_instance",
    "check_sc",
    "check_wsc",
    "classify",
    "emit_problem_json",
    "enumerate_sc_rankings",
    "find_macrovertices",
    "generalized_row_sum",
    "get_instance",
    "impossibility_trace",
    "induce_ranking",
    "ingest_matches",
    "instance_ids",
    "is_macrovertex",
    "iter_weak_orders",
    "laplacian",
    "least_squares",
    "make_scorer",
    "multigraph",
    "parse_problem_json",
    "problem_from_results_matches",
    "row_sum",
    "sc_dominance",
    "search_iim_violation",
    "search_mv_violation",
    "sum_problems",
]
