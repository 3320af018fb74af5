"""Command-line interface.

Reads problems from JSON documents or CSV match lists (``--input -`` for
stdin), prints exact fractions, and maps verdicts to exit codes:
0 ok / no violation, 1 usage or parse error, 2 axiom violation found,
3 search budget exceeded.

Only the standard library loads with this module: a command imports each
package module it runs when it first reads one of that module's names.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from collections.abc import Sequence

_cli = sys.modules[__name__]


def __getattr__(name: str):
    """A command's first read of a package name, as ``_cli.name``: bind the names of its
    defining module here.  Later reads are plain attribute reads, so a process compiles
    only the modules its command runs, and a name rebound here is the one commands call."""

    # One loader a module; its local variables are the names it imports.
    def axioms():
        from .axioms import (BUDGET_EXCEEDED, AxiomReport, BudgetExceededError, check_sc, check_wsc,
                             enumerate_sc_rankings, impossibility_trace, search_iim_violation)
        return locals()

    def core():
        from .core import classify, multigraph
        return locals()

    def macrovertex():
        from .macrovertex import find_macrovertices, search_mv_violation
        return locals()

    def methods():
        from .methods import _epsilon, format_order, induce_ranking, make_scorer, order_groups, weak_order_lines
        return locals()

    def registry():
        from .registry import get_instance
        return locals()

    def serialize():
        from .serialize import (CSV_HEADER, LabeledProblem, emit_problem_json, indented_json, ingest_matches,
                                parse_problem_json)
        return locals()

    for load in (axioms, core, macrovertex, methods, registry, serialize):
        if name in load.__code__.co_varnames:
            names = load()
            globals().update(names)
            return names[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _read_text(source: str) -> str:
    """The input's text, without a leading UTF-8 byte-order mark.  A file
    that does not open as named is read as a `Path`, so that a path which
    ``Path.exists()`` denies is not found and any other is the `OSError`."""
    if source == "-":
        return sys.stdin.read().removeprefix("\ufeff")
    try:
        file = open(source, encoding="utf-8-sig")
    except (OSError, ValueError):
        from pathlib import Path

        path = Path(source)
        if not path.exists():
            raise ValueError(f"input file not found: {source}") from None
        return path.read_text(encoding="utf-8-sig")
    with file:
        return file.read()


# The first line after leading whitespace, ended as ``str.splitlines`` ends
# it, and in it at most five fields: a line with more cannot match the
# four-field header, so a one-line JSON document is read no further.
_FIELD = r"[^,\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*"
_HEAD = re.compile(rf"\s*({_FIELD}(?:,{_FIELD}){{0,4}})")


def _looks_like_csv(source: str, text: str) -> bool:
    if source.endswith(".csv"):
        return True
    head = tuple(cell.strip().lower() for cell in _HEAD.match(text)[1].split(","))
    return head == _cli.CSV_HEADER


def _load_problem(source: str) -> LabeledProblem:
    text = _read_text(source)
    if _looks_like_csv(source, text):
        return _cli.ingest_matches(io.StringIO(text))
    return _cli.parse_problem_json(text)


def _format_set(labels, members) -> str:
    return "{" + ", ".join(labels[i] for i in members) + "}"


def _scorer_for(method: str, epsilon: str | None):
    """The scorer ``--method`` and ``--epsilon`` name, checked before any input is read."""
    value = None if epsilon is None else _cli._epsilon(epsilon)
    if method == "grs" and value is None:
        raise ValueError("method grs requires --epsilon")
    if method != "grs" and value is not None:
        raise ValueError(f"--epsilon applies only to method grs, not {method}")
    return _cli.make_scorer(method, value)


def rank(method, epsilon, source, as_json):
    """Rate the objects and print the induced ranking."""
    scorer = _scorer_for(method, epsilon)
    labeled = _load_problem(source)
    ratings = scorer(labeled.problem)
    order = _cli.induce_ranking(ratings)
    if as_json:
        payload = {
            "method": ratings.method,
            "ratings": {label: str(v) for label, v in zip(labeled.labels, ratings.values)},
            "ranking": [[labeled.labels[i] for i in group] for group in _cli.order_groups(order)],
        }
        if ratings.note:
            payload["note"] = ratings.note
        print(_cli.indented_json(payload))
        return
    for label, value in zip(labeled.labels, ratings.values):
        print(f"{label}: {value}")
    print(f"ranking: {_cli.format_order(order, labeled.labels)}")
    if ratings.note:
        print(f"note: {ratings.note}")


def classify_command(source):
    """Print class membership flags and connected components."""
    labeled = _load_problem(source)
    flags = _cli.classify(labeled.problem)
    for name in ("balanced", "round_robin", "unweighted", "extremal", "connected"):
        print(f"{name}: {'yes' if getattr(flags, name) else 'no'}")
    print(f"max multiplicity: {labeled.problem.max_multiplicity()}")
    components = _cli.multigraph(labeled.problem).components
    print("components: " + "; ".join(_format_set(labeled.labels, c) for c in components))


def check(axiom, method, epsilon, source, budget, as_json):
    """Run an axiom check; exit 0 clean, 2 violation, 3 budget exceeded."""
    if budget is not None and budget < 0:
        raise ValueError(f"--budget must be at least 0, got {budget}")
    scorer = _scorer_for(method, epsilon)
    labeled = _load_problem(source)
    if axiom in ("mva", "mvi"):
        report = _cli.search_mv_violation(scorer, labeled.problem, axiom, budget)
    else:
        checker = {"iim": _cli.search_iim_violation, "sc": _cli.check_sc, "wsc": _cli.check_wsc}[axiom]
        report = checker(scorer, labeled.problem, budget)
    _print_report(report, labeled, as_json)
    return report.exit_code()


def _print_report(report: AxiomReport, labeled: LabeledProblem, as_json: bool) -> None:
    if as_json:
        print(_cli.indented_json(vars(report)))
        return
    print(f"axiom: {report.axiom}")
    print(f"method: {report.method}")
    print(f"verdict: {report.verdict}")
    print(f"instances checked: {report.instances_checked}")
    if report.detail:
        print(f"detail: {report.detail}")
    if report.witness is not None:
        names = labeled.labels
        titles = {"perturbed_pair": "witness: change at", "target_pair": "witness target:",
                  "pair": "witness pair:"}
        for key, title in titles.items():
            if key in report.witness:
                i, j = report.witness[key]
                print(f"{title} ({names[i]}, {names[j]})")
        print("witness json: " + json.dumps(report.witness))


def macrovertices(source):
    """List every nontrivial macrovertex of the comparison structure;
    exit 3 when the problem is too large to search."""
    labeled = _load_problem(source)
    found = _cli.find_macrovertices(labeled.problem)
    if not found:
        print("no nontrivial macrovertices")
    for members in found:
        print(_format_set(labeled.labels, members))


def enumerate_sc(source):
    """List all weak orders consistent with the self-consistency implications;
    exit 3 when the search budget is exceeded."""
    labeled = _load_problem(source)
    orders = _cli.enumerate_sc_rankings(labeled.problem)
    # One format call fills every line; labels are arguments, never parsed as templates.
    lines = map(_cli.weak_order_lines(labeled.problem.n).__getitem__, orders)
    print("\n".join([*lines, f"total: {len(orders)}"]).format(*labeled.labels))


def example(instance_id, emit):
    """Show or emit a built-in instance."""
    try:
        labeled = _cli.get_instance(instance_id)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    if emit:
        print(_cli.emit_problem_json(labeled))
        return
    print(f"instance {instance_id}: {labeled.note}")
    for name in ("results", "matches"):
        print(f"{name}:")
        for row in getattr(labeled.problem, name):
            print("  [" + ", ".join(str(x) for x in row) + "]")


def theorem31(as_json):
    """Print the mechanical impossibility derivation on instance 3.3."""
    trace = _cli.impossibility_trace()
    if as_json:
        from dataclasses import asdict

        print(_cli.indented_json(asdict(trace)))
        return
    for step in trace.steps:
        status = "ok" if step.holds else "FAILED"
        print(f"[{status}] {step.name}: {step.claim}")
    print(f"verdict: {trace.verdict}")


def ingest(source, output):
    """Convert a CSV match list into a problem JSON document."""
    text = _read_text(source)
    labeled = _cli.ingest_matches(io.StringIO(text))
    document = _cli.emit_problem_json(labeled)
    if output is None:
        print(document)
    else:
        from pathlib import Path

        Path(output).write_text(document + "\n", encoding="utf-8")
        print(f"wrote {output}")


class _Parser(argparse.ArgumentParser):
    """Takes ``--help`` (not ``-h``) and no abbreviated option; a usage error raises ``ValueError``."""

    def __init__(self, **settings):
        super().__init__(add_help=False, allow_abbrev=False, **settings)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise ValueError(message)


def _command(name: str, handler, **options) -> None:
    """Add subcommand ``name``, run by ``handler``; option ``key`` is the flag ``--key``."""
    parser = _COMMANDS.add_parser(name, help=handler.__doc__, description=handler.__doc__)
    parser.set_defaults(handler=handler)
    _TABLES[name] = parser, {f"--{key}": parser.add_argument(f"--{key}", **spec) for key, spec in options.items()}


def _read_options(parser: _Parser, flags: dict, args: list[str]) -> dict:
    """A command's options from its flag table, when each token is one flag and each value does not start
    with ``-`` and passes the flag's type and choices; else the sub-parser, which words every usage error."""
    options = {action.dest: action.default for action in flags.values()}
    tokens = iter(args)
    for token in tokens:
        action = flags.get(token)
        if action is None:
            break
        if action.nargs == 0:  # a store_true flag
            options[action.dest] = action.const
            continue
        value = next(tokens, "-")  # a flag without its value is the sub-parser's to word
        if value.startswith("-"):
            break
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError):
            break
        if action.choices is not None and value not in action.choices:
            break
        options[action.dest] = value
    else:  # every token read: a value never starts with "-", so a flag in args is a token
        if all(flag in args for flag, action in flags.items() if action.required):
            return {**options, "handler": parser.get_default("handler")}
    return vars(parser.parse_args(args))


PARSER = _Parser(
    prog="pairrank", description="Exact ranking of paired-comparison data plus ordering-axiom checks."
)
_COMMANDS = PARSER.add_subparsers(metavar="COMMAND", required=True)
_TABLES = {}  # command name -> (its sub-parser, {"--flag": its argparse.Action}), filled by _command
INPUT = dict(dest="source", required=True, help="Problem file (JSON or CSV); '-' reads stdin.")
METHOD = dict(choices=["rowsum", "grs", "ls"], required=True)
EPSILON = dict(help="Coupling strength for grs (positive rational).")
_command("rank", rank, method=METHOD, epsilon=EPSILON, input=INPUT,
         json=dict(dest="as_json", action="store_true", help="Emit a JSON report."))
_command("classify", classify_command, input=INPUT)
_command(
    "check",
    check,
    axiom=dict(choices=["iim", "sc", "wsc", "mva", "mvi"], required=True),
    method=METHOD,
    epsilon=EPSILON,
    input=INPUT,
    budget=dict(
        type=int,
        help="iim/mva/mvi: cap on instances; sc/wsc: cap on layer splits over the whole check.",
    ),
    json=dict(dest="as_json", action="store_true", help="Emit the report as JSON."),
)
_command("macrovertices", macrovertices, input=INPUT)
_command("enumerate-sc", enumerate_sc, input=INPUT)
_command(
    "example",
    example,
    id=dict(dest="instance_id", required=True, help="Built-in instance id, e.g. 3.1."),
    emit=dict(action="store_true", help="Print the problem as a JSON document."),
)
_command("theorem31", theorem31,
         json=dict(dest="as_json", action="store_true", help="Emit the trace as JSON."))
_command("ingest", ingest, input=INPUT, output=dict(help="Write the JSON document here instead of stdout."))


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point with this package's exit-code contract."""
    argv = sys.argv[1:] if argv is None else list(argv)
    table = _TABLES.get(argv[0]) if argv else None
    try:
        options = _read_options(*table, argv[1:]) if table else vars(PARSER.parse_args(argv))
        return options.pop("handler")(**options) or 0
    except SystemExit:  # only --help exits the parser, after printing usage to stdout
        return 0
    except (ValueError, OSError) as exc:  # the package's input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _cli.BudgetExceededError as exc:  # read after the input errors, which load no `axioms`
        print(f"verdict: {_cli.BUDGET_EXCEEDED}")
        print(f"detail: {exc}")
        return 3


def entry() -> None:
    raise SystemExit(main())
