"""Exact rating methods and ordering-axiom checks for paired-comparison data.

Problems may be incomplete (not every pair compared) and weighted (pairs
compared repeatedly, outcomes with arbitrary rational intensity).  All
computation is exact rational arithmetic.
"""

from .core import InvalidProblemError, classify, multigraph
from .methods import format_order, generalized_row_sum, induce_ranking, least_squares, make_scorer, row_sum
from .axioms import (
    AxiomReport,
    BudgetExceededError,
    check_sc,
    check_wsc,
    enumerate_sc_rankings,
    impossibility_trace,
    search_iim_violation,
)
from .macrovertex import find_macrovertices, search_mv_violation
from .registry import get_instance, instance_ids
from .serialize import (
    IngestError,
    LabeledProblem,
    SchemaError,
    emit_problem_json,
    ingest_matches,
    parse_problem_json,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BudgetExceededError",
    "IngestError",
    "InvalidProblemError",
    "LabeledProblem",
    "SchemaError",
    "check_sc",
    "check_wsc",
    "classify",
    "emit_problem_json",
    "enumerate_sc_rankings",
    "find_macrovertices",
    "format_order",
    "generalized_row_sum",
    "get_instance",
    "impossibility_trace",
    "induce_ranking",
    "ingest_matches",
    "instance_ids",
    "least_squares",
    "make_scorer",
    "multigraph",
    "parse_problem_json",
    "row_sum",
    "search_iim_violation",
    "search_mv_violation",
]
