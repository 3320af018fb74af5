"""The reference implementations in ``oracles.py`` borrow no package code
beyond problem construction and the result and exception types, so
a fault in a package helper cannot pass its own cross-check."""

from __future__ import annotations

import ast
import pkgutil
from pathlib import Path

import pairrank

ORACLES = Path(__file__).parent / "oracles.py"
# Public package helpers that the oracles write out again instead.
BORROWED = {"laplacian", "multigraph", "is_macrovertex", "MatchRecord"}
# A module or star import would hand over every name, underscored ones included.
MODULES = {"*"} | {info.name for info in pkgutil.iter_modules(pairrank.__path__)}


def package_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for every name a ``pairrank`` import statement binds;
    a plain ``import pairrank...`` binds ``*``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(alias.name, "*") for alias in node.names if alias.name.partition(".")[0] == "pairrank"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "pairrank":
            out += [(node.module, alias.name) for alias in node.names]
    return out


def borrowed(imports: list[tuple[str, str]]) -> list[str]:
    return [
        f"{module}.{name}"
        for module, name in imports
        if name.startswith("_") or name in BORROWED or name in MODULES
    ]


def test_oracles_import_no_package_internals():
    imports = package_imports(ORACLES.read_text(encoding="utf-8"))
    assert ("pairrank.core", "RankingProblem") in imports  # the walk sees the imports at all
    assert borrowed(imports) == []


def test_import_guard_flags_internals_helpers_and_modules():
    source = (
        "import pairrank.core\n"
        "from pairrank import axioms\n"
        "from pairrank.axioms import AxiomReport, _sweep\n"
        "def f():\n"
        "    from pairrank.core import laplacian\n"
    )
    assert borrowed(package_imports(source)) == [
        "pairrank.core.*",
        "pairrank.axioms",
        "pairrank.axioms._sweep",
        "pairrank.core.laplacian",
    ]
