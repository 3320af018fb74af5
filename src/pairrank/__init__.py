"""Exact rating methods and ordering-axiom checks for paired-comparison data.

Problems may be incomplete (not every pair compared) and weighted (pairs
compared repeatedly, outcomes with arbitrary rational intensity).  All
computation is exact rational arithmetic.

Each public name is imported from its defining module on first access
(PEP 562), so ``import pairrank`` alone loads no submodule.
"""

__version__ = "0.1.0"

# Each public name's defining module.
_HOME = {
    name: module
    for module, names in (
        ("core", "InvalidProblemError classify multigraph"),
        ("methods", "format_order generalized_row_sum induce_ranking least_squares make_scorer row_sum"),
        ("axioms", "AxiomReport BudgetExceededError check_sc check_wsc enumerate_sc_rankings "
                   "impossibility_trace search_iim_violation"),
        ("macrovertex", "find_macrovertices search_mv_violation"),
        ("registry", "get_instance instance_ids"),
        ("serialize", "IngestError LabeledProblem SchemaError emit_problem_json ingest_matches parse_problem_json"),
    )
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name's first access: import it from its module and keep it here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
