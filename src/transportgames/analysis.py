"""Analysis reports, their serialization, and parameter-sweep bound checks.

Reports are deterministic functions of (instance, flags): every numeric field
is an exact rational rendered as a string, and the wall-clock timing field is
excluded from serialized output unless explicitly requested, so default output
is byte-identical across runs.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .core import (
    Instance,
    Outcome,
    SOCIAL_TAGS,
    SocialTag,
    instance_digest,
    to_fraction,
)
from .errors import (
    BudgetExceededError,
    DegenerateOptimumError,
    NoEquilibriumError,
    ParameterDomainError,
    SetOverflowError,
)
from .families import build_family

# enumerate_nash, optimal_social, poa, pos, spe_outcomes, spoa and spos are
# not used here; they stay importable from this module.
from .sequential import DEFAULT_NODE_SET_CAP, spe_outcomes, spe_summary, spoa, spos
from .simultaneous import (
    DEFAULT_OUTCOME_BUDGET,
    EquilibriumSummary,
    enumerate_nash,
    nash_summary,
    optimal_social,
    poa,
    pos,
)

MODES = ("simultaneous", "sequential")
MEASURE_NAMES = {"simultaneous": ("PoA", "PoS"), "sequential": ("SPoA", "SPoS")}

MISSING = "—"  # em dash shown for undefined table entries


@dataclass(frozen=True)
class FunctionReport:
    """Equilibrium statistics for one social function."""

    function: SocialTag
    optimal_value: Fraction
    optimal_witness: Outcome
    equilibrium_count: int
    min_equilibrium_value: Fraction | None
    max_equilibrium_value: Fraction | None
    best_ratio: Fraction | None
    worst_ratio: Fraction | None
    best_witness: Outcome | None
    worst_witness: Outcome | None
    errors: tuple[str, ...]


@dataclass(frozen=True)
class AnalysisReport:
    digest: str
    mode: str
    order: tuple[int, ...] | None
    functions: tuple[FunctionReport, ...]
    elapsed_seconds: float


def analyze(
    inst: Instance,
    mode: str,
    functions: Sequence[SocialTag] = SOCIAL_TAGS,
    order: Sequence[int] | None = None,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    node_set_cap: int = DEFAULT_NODE_SET_CAP,
    symmetry_reduction: bool = False,
) -> AnalysisReport:
    """Full equilibrium analysis of one instance.

    Equilibrium nonexistence and a degenerate (zero) optimum are recorded as
    markers on the affected function block, not raised; budget overruns are
    raised.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if symmetry_reduction and mode == "sequential":
        raise ValueError("symmetry reduction applies to the simultaneous mode only")
    for tag in functions:
        if tag not in SOCIAL_TAGS:
            raise ValueError(f"unknown social function {tag!r}")
    started = time.perf_counter()

    if mode == "simultaneous":
        summary = nash_summary(inst, budget=budget, symmetry_reduction=symmetry_reduction)
        resolved_order = None
    else:
        summary = spe_summary(inst, order=order, budget=budget, node_set_cap=node_set_cap)
        resolved_order = tuple(order) if order is not None else tuple(range(1, inst.n + 1))

    blocks = tuple(_function_report(summary, tag) for tag in functions)
    return AnalysisReport(
        digest=instance_digest(inst),
        mode=mode,
        order=resolved_order,
        functions=blocks,
        elapsed_seconds=time.perf_counter() - started,
    )


def _function_report(summary: EquilibriumSummary, tag: SocialTag) -> FunctionReport:
    optimal_value, optimal_witness = summary.read(tag, "optimal")
    errors = () if summary.count else ("NoEquilibrium",)
    best = worst = ratios = (None, None)
    if summary.count:
        best, worst = summary.read(tag, "best"), summary.read(tag, "worst")
    if optimal_value == 0:
        errors += ("DegenerateOptimum",)
    elif summary.count:
        ratios = (best[0] / optimal_value, worst[0] / optimal_value)
    # Fields in order: values, then ratios, then witnesses, each best before worst.
    return FunctionReport(
        tag, optimal_value, optimal_witness, summary.count, best[0], worst[0], *ratios, best[1], worst[1], errors
    )


def _frac_str(value: Fraction | None) -> str | None:
    return None if value is None else str(value)


def _frac_from(value: str | None) -> Fraction | None:
    return None if value is None else Fraction(value)


def _outcome_list(outcome: Outcome | None) -> list[int] | None:
    return None if outcome is None else list(outcome)


def report_to_dict(report: AnalysisReport, include_timing: bool = False) -> dict:
    doc: dict = {
        "digest": report.digest,
        "mode": report.mode,
        "order": list(report.order) if report.order is not None else None,
        "functions": [
            {
                "function": block.function,
                "optimal_value": _frac_str(block.optimal_value),
                "optimal_witness": _outcome_list(block.optimal_witness),
                "equilibrium_count": block.equilibrium_count,
                "min_equilibrium_value": _frac_str(block.min_equilibrium_value),
                "max_equilibrium_value": _frac_str(block.max_equilibrium_value),
                "best_ratio": _frac_str(block.best_ratio),
                "worst_ratio": _frac_str(block.worst_ratio),
                "best_witness": _outcome_list(block.best_witness),
                "worst_witness": _outcome_list(block.worst_witness),
                "errors": list(block.errors),
            }
            for block in report.functions
        ],
    }
    if include_timing:
        doc["elapsed_seconds"] = report.elapsed_seconds
    return doc


def report_from_dict(doc: Mapping) -> AnalysisReport:
    blocks = tuple(
        FunctionReport(
            function=entry["function"],
            optimal_value=Fraction(entry["optimal_value"]),
            optimal_witness=tuple(entry["optimal_witness"]),
            equilibrium_count=int(entry["equilibrium_count"]),
            min_equilibrium_value=_frac_from(entry["min_equilibrium_value"]),
            max_equilibrium_value=_frac_from(entry["max_equilibrium_value"]),
            best_ratio=_frac_from(entry["best_ratio"]),
            worst_ratio=_frac_from(entry["worst_ratio"]),
            best_witness=tuple(entry["best_witness"]) if entry["best_witness"] is not None else None,
            worst_witness=tuple(entry["worst_witness"]) if entry["worst_witness"] is not None else None,
            errors=tuple(entry["errors"]),
        )
        for entry in doc["functions"]
    )
    return AnalysisReport(
        digest=doc["digest"],
        mode=doc["mode"],
        order=tuple(doc["order"]) if doc.get("order") is not None else None,
        functions=blocks,
        elapsed_seconds=float(doc.get("elapsed_seconds", 0.0)),
    )


def _measure_rows(report: AnalysisReport):
    worst_name, best_name = MEASURE_NAMES[report.mode]
    for block in report.functions:
        yield block, worst_name, block.worst_ratio, block.max_equilibrium_value, block.worst_witness
        yield block, best_name, block.best_ratio, block.min_equilibrium_value, block.best_witness


def serialize_report(report: AnalysisReport, fmt: str = "json", include_timing: bool = False) -> str:
    """Stable-order rendering of a report as json, csv, or a text table."""
    if fmt == "json":
        return json.dumps(report_to_dict(report, include_timing=include_timing), indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ["function", "measure", "ratio", "equilibrium_value", "optimal_value", "witness", "errors"]
        )
        for block, measure, ratio, eq_value, witness in _measure_rows(report):
            writer.writerow(
                [
                    block.function,
                    measure,
                    _frac_str(ratio) or "",
                    _frac_str(eq_value) or "",
                    _frac_str(block.optimal_value),
                    " ".join(map(str, witness)) if witness is not None else "",
                    "|".join(block.errors),
                ]
            )
        return buffer.getvalue()
    if fmt == "table":
        header = ["function", "measure", "ratio", "equilibrium", "optimal", "errors"]
        rows = [header]
        for block, measure, ratio, eq_value, _witness in _measure_rows(report):
            rows.append(
                [
                    block.function,
                    measure,
                    _frac_str(ratio) or MISSING,
                    _frac_str(eq_value) or MISSING,
                    _frac_str(block.optimal_value),
                    ", ".join(block.errors) or MISSING,
                ]
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return f"instance {report.digest[:12]}  mode={report.mode}\n" + "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}, expected json, csv, or table")


# ---------------------------------------------------------------------------
# Bound expressions: a tiny exact-arithmetic evaluator over family parameters.
# ---------------------------------------------------------------------------

_EXPR_FUNCTIONS: dict[str, Callable[..., Fraction]] = {
    "floor": lambda x: Fraction(math.floor(x)),
    "ceil": lambda x: Fraction(math.ceil(x)),
    "min": lambda *xs: min(xs),
    "max": lambda *xs: max(xs),
}


def eval_bound_expr(expr: str, env: Mapping[str, Fraction]) -> Fraction:
    """Evaluate a closed-form bound like ``"2*n/m - 1"`` exactly.

    Supports rational literals, parameter names, + - * / ** (integer
    exponents), unary minus, and floor/ceil/min/max. Every rejected
    expression, a division by zero included, raises `ValueError`.
    """
    tree = ast.parse(expr, mode="eval")

    def ev(node: ast.AST) -> Fraction:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and not isinstance(node.value, bool):
                return Fraction(node.value)
            raise ValueError(f"only integer literals are allowed, got {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id in env:
                return Fraction(env[node.id])
            raise ValueError(f"unknown parameter {node.id!r} in bound expression")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = ev(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp):
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            if isinstance(node.op, ast.Pow):
                if right.denominator != 1:
                    raise ValueError("exponents must be integers")
                return left ** int(right)
            raise ValueError(f"operator {type(node.op).__name__} is not allowed")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
            fn = _EXPR_FUNCTIONS.get(node.func.id)
            if fn is None:
                raise ValueError(f"unknown function {node.func.id!r} in bound expression")
            return fn(*(ev(arg) for arg in node.args))
        raise ValueError(f"unsupported syntax in bound expression: {ast.dump(node)}")

    try:
        return ev(tree)
    except ZeroDivisionError:
        raise ValueError(f"bound expression {expr!r} divides by zero") from None


# ---------------------------------------------------------------------------
# Parameter sweeps.
# ---------------------------------------------------------------------------

SWEEP_MEASURES = ("poa", "pos", "spoa", "spos")
RELATIONS = ("eq", "ge", "le", "between")


@dataclass(frozen=True)
class BoundRule:
    """One expected-bound row: measured `measure(function)` vs a closed form."""

    function: SocialTag
    measure: str
    relation: str
    expected: str | None = None
    lower: str | None = None
    upper: str | None = None

    def describe(self) -> str:
        if self.relation == "between":
            return f"in [{self.lower}, {self.upper}]"
        symbol = {"eq": "=", "ge": ">=", "le": "<="}[self.relation]
        return f"{symbol} {self.expected}"


@dataclass(frozen=True)
class SweepSpec:
    family: str
    points: tuple[Mapping[str, object], ...]
    rules: tuple[BoundRule, ...]


def sweep_from_dict(doc: Mapping) -> SweepSpec:
    family = doc.get("family")
    if not isinstance(family, str):
        raise ValueError("sweep spec needs a 'family' string")
    points: list[dict] = [dict(p) for p in doc.get("points", [])]
    grid = doc.get("grid")
    if grid:
        names = sorted(grid)
        for combo in product(*(grid[name] for name in names)):
            points.append(dict(zip(names, combo)))
    if not points:
        raise ValueError("sweep spec needs a nonempty 'grid' or 'points'")
    rules = []
    for raw in doc.get("bounds", []):
        relation = raw.get("relation")
        if relation not in RELATIONS:
            raise ValueError(f"bound relation must be one of {RELATIONS}, got {relation!r}")
        measure = raw.get("measure")
        if measure not in SWEEP_MEASURES:
            raise ValueError(f"bound measure must be one of {SWEEP_MEASURES}, got {measure!r}")
        function = raw.get("function")
        if function not in SOCIAL_TAGS:
            raise ValueError(f"bound function must be one of {SOCIAL_TAGS}, got {function!r}")
        if relation == "between":
            if not raw.get("lower") or not raw.get("upper"):
                raise ValueError("a 'between' bound needs 'lower' and 'upper' expressions")
            rules.append(BoundRule(function, measure, relation, lower=raw["lower"], upper=raw["upper"]))
        else:
            if not raw.get("expected"):
                raise ValueError(f"a {relation!r} bound needs an 'expected' expression")
            rules.append(BoundRule(function, measure, relation, expected=raw["expected"]))
    if not rules:
        raise ValueError("sweep spec needs a nonempty 'bounds' list")
    return SweepSpec(family, tuple(points), tuple(rules))


def load_sweep(path: str | Path) -> SweepSpec:
    return sweep_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class SweepRow:
    params: tuple[tuple[str, object], ...]
    function: SocialTag
    measure: str
    measured: Fraction | None
    expected: str
    passed: bool | None
    error: str | None


@dataclass(frozen=True)
class SweepResult:
    family: str
    rows: tuple[SweepRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed is True for row in self.rows)


# Sweep measure ("poa", ...) -> (mode, worst, measure name) of the ratio it reads.
_SWEEP_RATIOS = {
    name.lower(): (mode, name == names[0], name) for mode, names in MEASURE_NAMES.items() for name in names
}
_ROW_ERRORS = (BudgetExceededError, NoEquilibriumError, DegenerateOptimumError, SetOverflowError, ValueError)


def _point_summary(inst: Instance, mode: str, nash, budget: int, node_set_cap: int):
    """One mode's summary of a sweep point, or the error building it raised.
    The sequential summary takes the optimum from a built Nash summary."""
    try:
        if mode == "simultaneous":
            return nash_summary(inst, budget=budget)
        optimum = nash.optimum if isinstance(nash, EquilibriumSummary) else None
        return spe_summary(inst, budget=budget, node_set_cap=node_set_cap, optimum=optimum)
    except _ROW_ERRORS as exc:
        return exc


def run_verify_bounds(
    spec: SweepSpec,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    node_set_cap: int = DEFAULT_NODE_SET_CAP,
) -> SweepResult:
    """Evaluate every bound rule at every sweep point, exactly (no tolerance).

    Per-point failures (budget, missing equilibrium, degenerate optimum, bad
    parameters) are recorded on the affected rows rather than raised.
    """
    rows: list[SweepRow] = []
    for point in spec.points:
        point_items = tuple(sorted(point.items()))
        try:
            inst = build_family(spec.family, point)
        except (ParameterDomainError, ValueError) as exc:
            for rule in spec.rules:
                rows.append(SweepRow(point_items, rule.function, rule.measure, None, rule.describe(), None, str(exc)))
            continue
        env: dict[str, Fraction] = {}
        for name, value in point.items():
            try:
                env[name] = to_fraction(value)
            except ValueError:
                continue  # non-numeric parameters (e.g. a permutation scheme)
        env.setdefault("n", Fraction(inst.n))
        env.setdefault("m", Fraction(inst.m))
        built: dict[str, EquilibriumSummary | Exception] = {}  # per mode, on first use
        for rule in spec.rules:
            measured = None
            error = None
            passed: bool | None = None
            try:
                mode, worst, name = _SWEEP_RATIOS[rule.measure]
                if mode not in built:
                    built[mode] = _point_summary(inst, mode, built.get("simultaneous"), budget, node_set_cap)
                if isinstance(built[mode], Exception):
                    raise built[mode]
                measured = built[mode].ratio(rule.function, worst, name).ratio
                if rule.relation == "between":
                    low = eval_bound_expr(rule.lower, env)
                    high = eval_bound_expr(rule.upper, env)
                    passed = low <= measured <= high
                else:
                    expected = eval_bound_expr(rule.expected, env)
                    if rule.relation == "eq":
                        passed = measured == expected
                    elif rule.relation == "ge":
                        passed = measured >= expected
                    else:
                        passed = measured <= expected
            except _ROW_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}"
            rows.append(SweepRow(point_items, rule.function, rule.measure, measured, rule.describe(), passed, error))
    return SweepResult(spec.family, tuple(rows))


def render_sweep(result: SweepResult, fmt: str = "table") -> str:
    if fmt == "json":
        doc = {
            "family": result.family,
            "all_passed": result.all_passed,
            "rows": [
                {
                    "params": {k: v for k, v in row.params},
                    "function": row.function,
                    "measure": row.measure,
                    "measured": _frac_str(row.measured),
                    "expected": row.expected,
                    "passed": row.passed,
                    "error": row.error,
                }
                for row in result.rows
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["params", "function", "measure", "measured", "expected", "passed", "error"])
        for row in result.rows:
            writer.writerow(
                [
                    " ".join(f"{k}={v}" for k, v in row.params),
                    row.function,
                    row.measure,
                    _frac_str(row.measured) or "",
                    row.expected,
                    "" if row.passed is None else str(row.passed).lower(),
                    row.error or "",
                ]
            )
        return buffer.getvalue()
    if fmt == "table":
        header = ["params", "function", "measure", "measured", "expected", "status"]
        rows = [header]
        for row in result.rows:
            if row.error is not None:
                status = f"error: {row.error}"
            else:
                status = "pass" if row.passed else "FAIL"
            rows.append(
                [
                    " ".join(f"{k}={v}" for k, v in row.params),
                    row.function,
                    row.measure,
                    _frac_str(row.measured) or MISSING,
                    row.expected,
                    status,
                ]
            )
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip() for r in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return f"family {result.family}\n" + "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}, expected json, csv, or table")
