"""Command-line interface: validate, generate, analyze, and verify-bounds.

Exit codes: 0 success, 1 validation or bound failure, 2 enumeration budget
exceeded, 3 I/O failure. Missing equilibria and degenerate optima are data
(reported in the output), not error exits.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import click

from .analysis import analyze, load_sweep, render_sweep, run_verify_bounds, serialize_report
from .core import dumps_instance, loads_instance, save_instance, to_fraction
from .errors import (
    BudgetExceededError,
    MalformedInstanceError,
    ParameterDomainError,
    SetOverflowError,
    Violation,
)
from .families import FAMILIES, build_family
from .sequential import DEFAULT_NODE_SET_CAP
from .simultaneous import DEFAULT_OUTCOME_BUDGET

EXIT_VALIDATION = 1
EXIT_BUDGET = 2
EXIT_IO = 3


class RationalType(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return to_fraction(str(value))
        except ValueError:
            self.fail(f"{value!r} is not an exact rational (use p/q or an integer)", param, ctx)


RATIONAL = RationalType()


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    """`click.echo` to a stream looked up for this call.

    Left to find the stream itself, click caches a wrapper for each
    sys.stdout or sys.stderr object it meets, and the cache keeps those
    objects alive: every in-process invocation through click's CliRunner (the
    tests and perfbench run the CLI this way) would leak its captured output.
    """
    click.echo(message, file=click.get_text_stream("stderr" if err else "stdout"), nl=nl)


def _read_instance(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInstanceError([Violation("invalid-json", f"not UTF-8 text: {exc}")]) from None
    except OSError as exc:
        _echo(f"cannot read {path}: {exc}", err=True)
        sys.exit(EXIT_IO)
    return loads_instance(text)


@click.group()
def main():
    """Exact solver and analyzer for simultaneous and sequential transportation games."""


@main.command()
@click.argument("file", type=click.Path(dir_okay=False))
def validate(file: str):
    """Validate an instance file; exit 0 iff it is structurally sound."""
    try:
        _read_instance(file)
    except MalformedInstanceError as exc:
        for violation in exc.violations:
            _echo(str(violation), err=True)
        sys.exit(EXIT_VALIDATION)
    _echo("OK")


@main.command()
@click.argument("family", type=click.Choice(sorted(FAMILIES)))
@click.option("--n", type=int, default=None, help="Player count.")
@click.option("--m", type=int, default=None, help="Bus count.")
@click.option("--k", type=int, default=None, help="Levels per group (group-levels).")
@click.option("--a", type=RATIONAL, default=None, help="Group distance parameter (group-levels).")
@click.option("--x", type=RATIONAL, default=None, help="Spike distance (nonmetric-spike).")
@click.option("--epsilon", type=RATIONAL, default=None, help="Pairwise distance parameter.")
@click.option(
    "--perm-scheme",
    type=click.Choice(["identity", "reverse"]),
    default=None,
    help="Shared pickup order (uniform-star).",
)
@click.option("--pad", type=int, default=None, help="Extra players at the destination (group-levels).")
@click.option("--seed", type=int, default=None, help="Random seed (random-metric).")
@click.option("--low", type=int, default=None, help="Smallest random numerator (random-metric).")
@click.option("--high", type=int, default=None, help="Largest random numerator (random-metric).")
@click.option("--max-denominator", type=int, default=None, help="Largest random denominator (random-metric).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None, help="Write to a file instead of stdout.")
def generate(family: str, output: str | None, **params):
    """Build a registered instance family and emit the instance file."""
    provided = {name: value for name, value in params.items() if value is not None}
    try:
        inst = build_family(family, provided)
    except ParameterDomainError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    if output is None:
        _echo(dumps_instance(inst), nl=False)
    else:
        try:
            save_instance(inst, output)
        except OSError as exc:
            _echo(f"cannot write {output}: {exc}", err=True)
            sys.exit(EXIT_IO)


def _parse_order(order: str | None) -> tuple[int, ...] | None:
    if order is None:
        return None
    try:
        return tuple(int(piece) for piece in order.split(","))
    except ValueError:
        _echo(f"error: --order must be a comma-separated permutation, got {order!r}", err=True)
        sys.exit(EXIT_VALIDATION)


@main.command("analyze")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--mode", type=click.Choice(["simultaneous", "sequential"]), default="simultaneous", show_default=True)
@click.option("--social", default="D,E,U", show_default=True, help="Comma-separated social functions to analyze.")
@click.option("--order", default=None, help="Move order for sequential mode, e.g. 1,3,2.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="table", show_default=True)
@click.option("--budget-outcomes", type=int, default=DEFAULT_OUTCOME_BUDGET, show_default=True, help="Cap on m^n.")
@click.option(
    "--budget-node-set", type=int, default=DEFAULT_NODE_SET_CAP, show_default=True, help="Per-node result-set cap."
)
def analyze_cmd(
    file: str,
    mode: str,
    social: str,
    order: str | None,
    fmt: str,
    budget_outcomes: int,
    budget_node_set: int,
):
    """Compute equilibria, optima, and inefficiency ratios for an instance."""
    try:
        inst = _read_instance(file)
    except MalformedInstanceError as exc:
        for violation in exc.violations:
            _echo(str(violation), err=True)
        sys.exit(EXIT_VALIDATION)
    functions = tuple(tag.strip() for tag in social.split(",") if tag.strip())
    try:
        report = analyze(
            inst,
            mode,
            functions=functions,  # type: ignore[arg-type]
            order=_parse_order(order),
            budget=budget_outcomes,
            node_set_cap=budget_node_set,
        )
    except (BudgetExceededError, SetOverflowError) as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(EXIT_BUDGET)
    except ValueError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    _echo(serialize_report(report, fmt=fmt), nl=False)


@main.command("verify-bounds")
@click.option("--spec", "spec_path", required=True, type=click.Path(dir_okay=False), help="Sweep spec JSON file.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="table", show_default=True)
@click.option("--budget-outcomes", type=int, default=DEFAULT_OUTCOME_BUDGET, show_default=True)
@click.option("--budget-node-set", type=int, default=DEFAULT_NODE_SET_CAP, show_default=True)
def verify_bounds_cmd(spec_path: str, fmt: str, budget_outcomes: int, budget_node_set: int):
    """Measure inefficiency ratios over a parameter grid and check closed-form bounds.

    Exits 0 only when every row passes; per-point errors are recorded in the
    output and count as failures.
    """
    try:
        spec = load_sweep(spec_path)
    except OSError as exc:
        _echo(f"cannot read {spec_path}: {exc}", err=True)
        sys.exit(EXIT_IO)
    except ValueError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    result = run_verify_bounds(spec, budget=budget_outcomes, node_set_cap=budget_node_set)
    _echo(render_sweep(result, fmt=fmt), nl=False)
    if not result.all_passed:
        sys.exit(EXIT_VALIDATION)


if __name__ == "__main__":
    main()
