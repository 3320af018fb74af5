"""Command-line interface.

Reads problems from JSON documents or CSV match lists (``--input -`` for
stdin), prints exact fractions, and maps verdicts to exit codes:
0 ok / no violation, 1 usage or parse error, 2 axiom violation found,
3 search budget exceeded.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import click

from .axioms import (
    BUDGET_EXCEEDED,
    AxiomReport,
    BudgetExceededError,
    check_sc,
    check_wsc,
    enumerate_sc_rankings,
    impossibility_trace,
    search_iim_violation,
)
from .core import InvalidProblemError, classify, multigraph
from .macrovertex import find_macrovertices, search_mv_violation
from .methods import induce_ranking, make_scorer
from .registry import get_instance, instance_ids
from .serialize import (
    CSV_HEADER,
    IngestError,
    LabeledProblem,
    SchemaError,
    emit_problem_json,
    ingest_matches,
    parse_problem_json,
)


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    path = Path(source)
    if not path.exists():
        raise click.UsageError(f"input file not found: {source}")
    return path.read_text(encoding="utf-8")


def _looks_like_csv(source: str, text: str) -> bool:
    if source.endswith(".csv"):
        return True
    first_line = text.lstrip().splitlines()[0] if text.strip() else ""
    # At most five fields: a line with more cannot match the four-field header.
    head = tuple(cell.strip().lower() for cell in first_line.split(",", 4))
    return head == CSV_HEADER


def _load_problem(source: str) -> LabeledProblem:
    text = _read_text(source)
    if _looks_like_csv(source, text):
        return ingest_matches(io.StringIO(text))
    return parse_problem_json(text)


def _parse_epsilon(text: str | None) -> Fraction | None:
    if text is None:
        return None
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"epsilon must be a rational number, got {text!r}")
    if value <= 0:
        raise click.UsageError(f"epsilon must be positive, got {text}")
    return value


def _scorer_for(method: str, epsilon: Fraction | None):
    if method == "grs" and epsilon is None:
        raise click.UsageError("method grs requires --epsilon")
    return make_scorer(method, epsilon)


input_option = click.option(
    "--input", "source", required=True, help="Problem file (JSON or CSV); '-' reads stdin."
)


@click.group()
def cli():
    """Exact ranking of paired-comparison data plus ordering-axiom checks."""


@cli.command()
@click.option("--method", type=click.Choice(["rowsum", "grs", "ls"]), required=True)
@click.option("--epsilon", default=None, help="Coupling strength for grs (positive rational).")
@input_option
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
def rank(method, epsilon, source, as_json):
    """Rate the objects and print the induced ranking."""
    labeled = _load_problem(source)
    scorer = _scorer_for(method, _parse_epsilon(epsilon))
    ratings = scorer(labeled.problem)
    order = induce_ranking(ratings)
    if as_json:
        payload = {
            "method": ratings.method,
            "ratings": {label: str(v) for label, v in zip(labeled.labels, ratings.values)},
            "ranking": [[labeled.labels[i] for i in group] for group in order.groups()],
        }
        if ratings.note:
            payload["note"] = ratings.note
        click.echo(json.dumps(payload, indent=2))
        return
    for label, value in zip(labeled.labels, ratings.values):
        click.echo(f"{label}: {value}")
    click.echo(f"ranking: {order.format(labeled.labels)}")
    if ratings.note:
        click.echo(f"note: {ratings.note}")


@cli.command(name="classify")
@input_option
def classify_command(source):
    """Print class membership flags and connected components."""
    labeled = _load_problem(source)
    flags = classify(labeled.problem)
    graph = multigraph(labeled.problem)
    for name in ("balanced", "round_robin", "unweighted", "extremal", "connected"):
        click.echo(f"{name}: {'yes' if getattr(flags, name) else 'no'}")
    click.echo(f"max multiplicity: {graph.max_multiplicity}")
    click.echo(
        "components: "
        + "; ".join(
            "{" + ", ".join(labeled.labels[i] for i in component) + "}"
            for component in graph.components
        )
    )


@cli.command()
@click.option("--axiom", type=click.Choice(["iim", "sc", "wsc", "mva", "mvi"]), required=True)
@click.option("--method", type=click.Choice(["rowsum", "grs", "ls"]), required=True)
@click.option("--epsilon", default=None, help="Coupling strength for grs (positive rational).")
@input_option
@click.option(
    "--budget",
    type=click.IntRange(min=0),
    default=None,
    help="iim/mva/mvi: cap on instances; sc/wsc: cap on layer splits per pair.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit the report as JSON.")
@click.pass_context
def check(ctx, axiom, method, epsilon, source, budget, as_json):
    """Run an axiom check; exit 0 clean, 2 violation, 3 budget exceeded."""
    labeled = _load_problem(source)
    scorer = _scorer_for(method, _parse_epsilon(epsilon))
    try:
        if axiom == "iim":
            report = search_iim_violation(scorer, labeled.problem, budget)
        elif axiom in ("mva", "mvi"):
            report = search_mv_violation(scorer, labeled.problem, axiom, budget)
        else:
            checker = check_sc if axiom == "sc" else check_wsc
            report = checker(scorer, labeled.problem, budget)
    except BudgetExceededError as exc:
        report = AxiomReport(
            axiom=axiom,
            method=scorer.tag,
            verdict=BUDGET_EXCEEDED,
            witness=None,
            instances_checked=0,
            detail=str(exc),
        )
    _print_report(report, labeled, as_json)
    ctx.exit(report.exit_code())


def _print_report(report: AxiomReport, labeled: LabeledProblem, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(asdict(report), indent=2))
        return
    click.echo(f"axiom: {report.axiom}")
    click.echo(f"method: {report.method}")
    click.echo(f"verdict: {report.verdict}")
    click.echo(f"instances checked: {report.instances_checked}")
    if report.detail:
        click.echo(f"detail: {report.detail}")
    if report.witness is not None:
        names = labeled.labels
        witness = report.witness
        if "perturbed_pair" in witness:
            k, l = witness["perturbed_pair"]
            click.echo(f"witness: change at ({names[k]}, {names[l]})")
        if "target_pair" in witness:
            i, j = witness["target_pair"]
            click.echo(f"witness target: ({names[i]}, {names[j]})")
        if "pair" in witness:
            i, j = witness["pair"]
            click.echo(f"witness pair: ({names[i]}, {names[j]})")
        click.echo("witness json: " + json.dumps(witness))


@cli.command()
@input_option
@click.pass_context
def macrovertices(ctx, source):
    """List every nontrivial macrovertex of the comparison structure;
    exit 3 when the problem is too large to search."""
    labeled = _load_problem(source)
    try:
        found = find_macrovertices(labeled.problem)
    except BudgetExceededError as exc:
        click.echo(f"verdict: {BUDGET_EXCEEDED}")
        click.echo(f"detail: {exc}")
        ctx.exit(3)
    if not found:
        click.echo("no nontrivial macrovertices")
        return
    for mv in found:
        click.echo(mv.format(labeled.labels))


@cli.command(name="enumerate-sc")
@input_option
@click.pass_context
def enumerate_sc(ctx, source):
    """List all weak orders consistent with the self-consistency implications;
    exit 3 when the search budget is exceeded."""
    labeled = _load_problem(source)
    try:
        orders = enumerate_sc_rankings(labeled.problem)
    except BudgetExceededError as exc:
        click.echo(f"verdict: {BUDGET_EXCEEDED}")
        click.echo(f"detail: {exc}")
        ctx.exit(3)
    for order in orders:
        click.echo(order.format(labeled.labels))
    click.echo(f"total: {len(orders)}")


@cli.command()
@click.option("--id", "instance_id", required=True, help="Built-in instance id, e.g. 3.1.")
@click.option("--emit", is_flag=True, help="Print the problem as a JSON document.")
def example(instance_id, emit):
    """Show or emit a built-in instance."""
    try:
        labeled = get_instance(instance_id)
    except KeyError:
        raise click.UsageError(
            f"unknown instance {instance_id!r}; available: {', '.join(instance_ids())}"
        )
    if emit:
        click.echo(emit_problem_json(labeled))
        return
    click.echo(f"instance {instance_id}: {labeled.note}")
    click.echo("results:")
    for row in labeled.problem.results:
        click.echo("  [" + ", ".join(str(x) for x in row) + "]")
    click.echo("matches:")
    for row in labeled.problem.matches:
        click.echo("  [" + ", ".join(str(x) for x in row) + "]")


@cli.command()
@click.option("--json", "as_json", is_flag=True, help="Emit the trace as JSON.")
def theorem31(as_json):
    """Print the mechanical impossibility derivation on instance 3.3."""
    trace = impossibility_trace()
    if as_json:
        click.echo(json.dumps(asdict(trace), indent=2))
        return
    for step in trace.steps:
        status = "ok" if step.holds else "FAILED"
        click.echo(f"[{status}] {step.name}: {step.claim}")
    click.echo(f"verdict: {trace.verdict}")


@cli.command()
@input_option
@click.option("--output", default=None, help="Write the JSON document here instead of stdout.")
def ingest(source, output):
    """Convert a CSV match list into a problem JSON document."""
    text = _read_text(source)
    labeled = ingest_matches(io.StringIO(text))
    document = emit_problem_json(labeled)
    if output is None:
        click.echo(document)
    else:
        Path(output).write_text(document + "\n", encoding="utf-8")
        click.echo(f"wrote {output}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point with this package's exit-code contract."""
    try:
        # With standalone_mode off, click hands back ctx.exit codes as values.
        result = cli.main(args=list(argv) if argv is not None else None, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except (InvalidProblemError, SchemaError, IngestError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return result if isinstance(result, int) else 0


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
