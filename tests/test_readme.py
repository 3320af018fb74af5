"""The library example in README.md runs and prints what its comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pairrank

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_every_exported_name_resolves():
    for name in pairrank.__all__:
        assert getattr(pairrank, name) is not None, name


def test_every_exported_name_is_used_by_the_cli_or_the_readme():
    cli = ast.parse((Path(pairrank.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    used = {alias.name for node in ast.walk(cli) if isinstance(node, ast.ImportFrom) for alias in node.names}
    readme = README.read_text(encoding="utf-8")
    for name in pairrank.__all__:
        assert name in used or re.search(rf"\b{name}\b", readme), name


def test_library_example_imports_only_exported_names():
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(_library_example()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ("pairrank", "get_instance") in imported
    for module, name in imported:
        if module == "pairrank":
            assert name in pairrank.__all__, name
        else:
            assert not module.startswith("pairrank"), module


def test_library_example_prints_its_comments():
    code = _library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["X4 > X1 > X2 > X3", "violated", "[0, 1]", "130"]
    # The printed values are the ones the block's comments state.
    commented = [
        line.split("#", 1)[1].split(" -- ")[0].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert commented == ["X4 > X1 > X2 > X3", "violated", "[0, 1]", "130"]
