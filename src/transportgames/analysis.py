"""Analysis reports, their serialization, and parameter-sweep bound checks.

Reports are deterministic functions of (instance, flags): every numeric field
is an exact rational rendered as a string, so output is byte-identical across
runs.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
import operator
from dataclasses import dataclass, fields, is_dataclass
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
from .engine import DEFAULT_OUTCOME_BUDGET, check_budget
from .errors import (
    BudgetExceededError,
    DegenerateOptimumError,
    NoEquilibriumError,
    ParameterDomainError,
    SetOverflowError,
)
from .families import build_family, family_shape

# enumerate_nash, optimal_social, poa, pos, spe_outcomes, spoa and spos are
# not used here; perfbench/tracing.py wraps them at these names.
from .sequential import DEFAULT_NODE_SET_CAP, _resolve_order, spe_outcomes, spe_summary, spoa, spos
from .simultaneous import (
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


def analyze(
    inst: Instance,
    mode: str,
    functions: Sequence[SocialTag] = SOCIAL_TAGS,
    order: Sequence[int] | None = None,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    node_set_cap: int = DEFAULT_NODE_SET_CAP,
) -> AnalysisReport:
    """Full equilibrium analysis of one instance.

    Equilibrium nonexistence and a degenerate (zero) optimum are recorded as
    markers on the affected function block, not raised; budget overruns are
    raised.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    for tag in functions:
        if tag not in SOCIAL_TAGS:
            raise ValueError(f"unknown social function {tag!r}")

    if mode == "simultaneous":
        summary = nash_summary(inst, budget=budget)
        resolved_order = None
    else:
        resolved_order = _resolve_order(inst, order)
        summary = spe_summary(inst, order=resolved_order, budget=budget, node_set_cap=node_set_cap)

    blocks = tuple(_function_report(summary, tag) for tag in functions)
    return AnalysisReport(digest=instance_digest(inst), mode=mode, order=resolved_order, functions=blocks)


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


def _json(value):
    """JSON form of a report value: a `Fraction` becomes a string, a tuple a list
    and a record an object (see `_record`); anything else passes through."""
    if value is None or isinstance(value, (str, int)):  # most values; tested first, as the other tests cost more
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    if is_dataclass(value):
        return _record(value)
    return value


def _record(record, **given) -> dict:
    """`record` as a JSON object: its field names in field order, each with the
    value `given` for it or else its own value through `_json`."""
    return {f.name: given[f.name] if f.name in given else _json(getattr(record, f.name)) for f in fields(record)}


def report_to_dict(report: AnalysisReport) -> dict:
    return _record(report)


def _cell(value: Fraction | None, missing: str) -> str:
    return missing if value is None else str(value)


def _measure_rows(report: AnalysisReport, missing: str):
    """Per (function, measure): the cells every format shows, then the witness and errors."""
    worst_name, best_name = MEASURE_NAMES[report.mode]
    for block in report.functions:
        for name, ratio, value, witness in (
            (worst_name, block.worst_ratio, block.max_equilibrium_value, block.worst_witness),
            (best_name, block.best_ratio, block.min_equilibrium_value, block.best_witness),
        ):
            cells = [block.function, name, _cell(ratio, missing), _cell(value, missing), str(block.optimal_value)]
            yield cells, witness, block.errors


def _csv(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _table(title: str, rows: list[list[str]]) -> str:
    """`title`, then `rows` in left-aligned columns with a rule under the first (header) row."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return f"{title}\n" + "\n".join(lines) + "\n"


def serialize_report(report: AnalysisReport, fmt: str = "json") -> str:
    """Stable-order rendering of a report as json, csv, or a text table."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2) + "\n"
    if fmt == "csv":
        header = ["function", "measure", "ratio", "equilibrium_value", "optimal_value", "witness", "errors"]
        rows = [
            cells + [" ".join(map(str, witness or ())), "|".join(errors)]
            for cells, witness, errors in _measure_rows(report, "")
        ]
        return _csv([header, *rows])
    if fmt == "table":
        header = ["function", "measure", "ratio", "equilibrium", "optimal", "errors"]
        rows = [cells + [", ".join(errors) or MISSING] for cells, _, errors in _measure_rows(report, MISSING)]
        return _table(f"instance {report.digest[:12]}  mode={report.mode}", [header, *rows])
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
_UNARY_FUNCTIONS = ("floor", "ceil")
# Largest power, in bits, that a bound may compute. The shipped forms stay
# under 100 bits; an exponent like 10**12 would otherwise exhaust memory.
_MAX_POWER_BITS = 10_000


def eval_bound_expr(expr: str, env: Mapping[str, Fraction]) -> Fraction:
    """Evaluate a closed-form bound like ``"2*n/m - 1"`` exactly.

    Supports rational literals, parameter names, + - * / ** (integer
    exponents), unary minus, and floor/ceil/min/max. Every rejected
    expression, a division by zero or a power over `_MAX_POWER_BITS`
    included, raises `ValueError`.
    """
    too_deep = f"bound expression {expr!r} is nested too deeply"
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bound expression {expr!r} is not valid syntax: {exc.msg}") from None
    except (RecursionError, MemoryError):  # how CPython's parser reports deep nesting
        raise ValueError(too_deep) from None

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
                # log2 of the result is at least this, and 0 for bases 0 and +-1.
                bits = (max(abs(left.numerator), left.denominator).bit_length() - 1) * abs(right.numerator)
                if bits > _MAX_POWER_BITS:
                    raise ValueError(f"a power in bound expression {expr!r} is too large")
                return left ** int(right)
            raise ValueError(f"operator {type(node.op).__name__} is not allowed")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
            name = node.func.id
            fn = _EXPR_FUNCTIONS.get(name)
            if fn is None:
                raise ValueError(f"unknown function {name!r} in bound expression")
            if name in _UNARY_FUNCTIONS and len(node.args) != 1:
                raise ValueError(f"{name}() takes exactly one argument, got {len(node.args)}")
            if not node.args:
                raise ValueError(f"{name}() takes at least one argument")
            return fn(*(ev(arg) for arg in node.args))
        raise ValueError(f"unsupported syntax in bound expression: {ast.dump(node)}")

    try:
        return ev(tree)
    except ZeroDivisionError:
        raise ValueError(f"bound expression {expr!r} divides by zero") from None
    except RecursionError:
        raise ValueError(too_deep) from None


# ---------------------------------------------------------------------------
# Parameter sweeps.
# ---------------------------------------------------------------------------

SWEEP_MEASURES = ("poa", "pos", "spoa", "spos")
# Most points a spec may ask for, counted before the grid is expanded.
MAX_SWEEP_POINTS = 100_000
# Relation -> (its symbol in a row's expected text, its test of measured against expected).
_COMPARISONS = {"eq": ("=", operator.eq), "ge": (">=", operator.ge), "le": ("<=", operator.le)}
RELATIONS = (*_COMPARISONS, "between")


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
        return f"{_COMPARISONS[self.relation][0]} {self.expected}"


@dataclass(frozen=True)
class SweepSpec:
    family: str
    points: tuple[Mapping[str, object], ...]
    rules: tuple[BoundRule, ...]


def _objects(doc: Mapping, field: str) -> list:
    value = doc.get(field, [])
    if not isinstance(value, list) or not all(isinstance(item, Mapping) for item in value):
        raise ValueError(f"sweep spec field {field!r} must be a list of objects")
    return value


def sweep_from_dict(doc: object) -> SweepSpec:
    """Check a parsed sweep spec; every defect raises `ValueError` naming its field."""
    if not isinstance(doc, Mapping):
        raise ValueError("sweep spec must be a JSON object")
    family = doc.get("family")
    if not isinstance(family, str):
        raise ValueError("sweep spec needs a 'family' string")
    points: list[dict] = [dict(p) for p in _objects(doc, "points")]
    grid = doc.get("grid")
    if grid is not None and not isinstance(grid, Mapping):
        raise ValueError("sweep spec field 'grid' must be an object")
    if grid:
        for name, values in grid.items():
            if not isinstance(values, list):
                raise ValueError(f"sweep spec field 'grid.{name}' must be a list of values")
        total = len(points) + math.prod(len(values) for values in grid.values())
        if total > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep spec field 'grid' gives {total} points, more than the {MAX_SWEEP_POINTS} allowed")
        names = sorted(grid)
        for combo in product(*(grid[name] for name in names)):
            points.append(dict(zip(names, combo)))
    if not points:
        raise ValueError("sweep spec needs a nonempty 'grid' or 'points'")
    rules = []
    for raw in _objects(doc, "bounds"):
        relation = raw.get("relation")
        if relation not in RELATIONS:
            raise ValueError(f"bound relation must be one of {RELATIONS}, got {relation!r}")
        measure = raw.get("measure")
        if measure not in SWEEP_MEASURES:
            raise ValueError(f"bound measure must be one of {SWEEP_MEASURES}, got {measure!r}")
        function = raw.get("function")
        if function not in SOCIAL_TAGS:
            raise ValueError(f"bound function must be one of {SOCIAL_TAGS}, got {function!r}")
        exprs = ("lower", "upper") if relation == "between" else ("expected",)
        for field in exprs:
            if not raw.get(field) or not isinstance(raw[field], str):
                raise ValueError(f"a {relation!r} bound needs {field!r} as an expression string")
        rules.append(BoundRule(function, measure, relation, **{field: raw[field] for field in exprs}))
    if not rules:
        raise ValueError("sweep spec needs a nonempty 'bounds' list")
    return SweepSpec(family, tuple(points), tuple(rules))


def load_sweep(path: str | Path) -> SweepSpec:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"sweep spec {path} is nested too deeply to parse") from None
    return sweep_from_dict(raw)


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
    parameters) are recorded on the affected rows rather than raised. A point
    whose outcomes exceed `budget` is refused before its instance is built.
    """
    rows: list[SweepRow] = []
    for point in spec.points:
        point_items = tuple(sorted(point.items()))
        built: dict[str, EquilibriumSummary | Exception] = {}  # per mode, on first use
        try:
            n, m = family_shape(spec.family, point)
            check_budget(n, m, budget)
            inst = build_family(spec.family, point)
        except BudgetExceededError as exc:
            built = dict.fromkeys(MODES, exc)
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
        env.setdefault("n", Fraction(n))
        env.setdefault("m", Fraction(m))
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
                    passed = _COMPARISONS[rule.relation][1](measured, eval_bound_expr(rule.expected, env))
            except _ROW_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}"
            rows.append(SweepRow(point_items, rule.function, rule.measure, measured, rule.describe(), passed, error))
    return SweepResult(spec.family, tuple(rows))


def _sweep_rows(result: SweepResult, missing: str):
    """Per row: the cells every format shows, then the row itself."""
    for row in result.rows:
        params = " ".join(f"{k}={v}" for k, v in row.params)
        yield [params, row.function, row.measure, _cell(row.measured, missing), row.expected], row


def _status(row: SweepRow) -> str:
    if row.error is not None:
        return f"error: {row.error}"
    return "pass" if row.passed else "FAIL"


def render_sweep(result: SweepResult, fmt: str = "table") -> str:
    if fmt == "json":
        rows = [_record(row, params=dict(row.params)) for row in result.rows]  # params as an object
        return json.dumps({"family": result.family, "all_passed": result.all_passed, "rows": rows}, indent=2) + "\n"
    if fmt == "csv":
        header = ["params", "function", "measure", "measured", "expected", "passed", "error"]
        rows = [
            cells + ["" if row.passed is None else str(row.passed).lower(), row.error or ""]
            for cells, row in _sweep_rows(result, "")
        ]
        return _csv([header, *rows])
    if fmt == "table":
        header = ["params", "function", "measure", "measured", "expected", "status"]
        rows = [cells + [_status(row)] for cells, row in _sweep_rows(result, MISSING)]
        return _table(f"family {result.family}", [header, *rows])
    raise ValueError(f"unknown format {fmt!r}, expected json, csv, or table")
