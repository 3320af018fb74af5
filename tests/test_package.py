"""The package's public names load on first access, each the defining module's own object."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pairrank
from pairrank import cli

PUBLIC = [
    "AxiomReport", "BudgetExceededError", "IngestError", "InvalidProblemError", "LabeledProblem", "SchemaError",
    "check_sc", "check_wsc", "classify", "emit_problem_json", "enumerate_sc_rankings", "find_macrovertices",
    "format_order", "generalized_row_sum", "get_instance", "impossibility_trace", "induce_ranking",
    "ingest_matches", "instance_ids", "least_squares", "make_scorer", "multigraph", "parse_problem_json",
    "row_sum", "search_iim_violation", "search_mv_violation",
]


def test_public_names_are_as_listed():
    assert pairrank.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_the_defining_modules_object(name):
    value = getattr(pairrank, name)
    assert value.__module__ != "pairrank"
    assert value is getattr(importlib.import_module(value.__module__), name)
    assert vars(pairrank)[name] is value  # kept: a second access is a plain attribute read


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pairrank import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(pairrank))
    assert "__version__" in dir(pairrank)


@pytest.mark.parametrize("module", [pairrank, cli], ids=["pairrank", "pairrank.cli"])
def test_unknown_name_raises_the_standard_attribute_error(module):
    with pytest.raises(AttributeError) as standard:
        types.ModuleType(module.__name__).no_such_name  # noqa: B018
    with pytest.raises(AttributeError) as lazy:
        module.no_such_name  # noqa: B018
    assert str(lazy.value) == str(standard.value) == f"module {module.__name__!r} has no attribute 'no_such_name'"
    assert not hasattr(module, "no_such_name")


def test_unknown_name_cannot_be_imported():
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from pairrank import no_such_name", {})


def test_import_pairrank_alone_loads_no_submodule():
    code = "import sys; before = set(sys.modules); import pairrank; print(*sorted(set(sys.modules) - before))"
    src = str(Path(pairrank.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["pairrank"]
