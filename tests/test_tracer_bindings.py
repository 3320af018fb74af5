"""The benchmark's self-test passes against this source tree.

``perfbench/tracer.py`` looks up, and rebinds, named functions in the
package's modules; ``perfbench/selftest.py`` runs a traced operation, so a
name it needs that has gone from the package fails here rather than only
under ``perfbench/run.py --trace 1``.  The CLI must also look those names up
when a command runs, or the rebinding would not reach it.
"""

import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pairrank.cli as cli

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _counting(calls: Counter, name: str, function):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return wrapper


def test_cli_looks_up_the_traced_names_at_call_time(tmp_path, monkeypatch, capsys):
    # The tracer rebinds these names in pairrank.cli; a handler that captured
    # one at import would run untraced, its time counted as cli self time.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = {attr for _, bindings in tracer.SPANS for module, attr in bindings if module == "pairrank.cli"}
    calls = Counter()
    for name in names:
        monkeypatch.setattr(cli, name, _counting(calls, name, getattr(cli, name)))

    paths = {}
    for instance in ("3.1", "3.3", "4.1"):
        assert cli.main(["example", "--id", instance, "--emit"]) == 0
        paths[instance] = tmp_path / f"{instance}.json"
        paths[instance].write_text(capsys.readouterr().out, encoding="utf-8")
    matches = tmp_path / "matches.csv"
    matches.write_text("object_a,object_b,score_a,score_b\nann,bob,1,0\n", encoding="utf-8")
    example, twins = str(paths["3.3"]), str(paths["4.1"])
    for argv in (
        ["rank", "--method", "ls", "--input", example],
        ["ingest", "--input", str(matches)],
        *(["check", "--axiom", axiom, "--method", "rowsum", "--input", example] for axiom in ("iim", "sc", "wsc")),
        ["check", "--axiom", "mva", "--method", "ls", "--input", twins],
        ["macrovertices", "--input", twins],
        ["enumerate-sc", "--input", str(paths["3.1"])],
        ["theorem31"],
    ):
        assert cli.main(argv) in (0, 2), argv
    assert names and set(calls) == names
