"""Reports, serialization, the bound-expression evaluator, and sweeps."""

import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

SWEEPS = Path(__file__).resolve().parent.parent / "sweeps"

import transportgames as tg
from transportgames.analysis import (
    eval_bound_expr,
    render_sweep,
    report_to_dict,
    run_verify_bounds,
    serialize_report,
    sweep_from_dict,
)

from support import NE_FREE


class TestAnalyze:
    def test_simultaneous_five_chain(self):
        report = tg.analyze(tg.gen_five_chain(), "simultaneous", functions=("U",))
        block = report.functions[0]
        assert block.function == "U"
        assert block.equilibrium_count == len(tg.enumerate_nash(tg.gen_five_chain()))
        assert block.worst_ratio == tg.poa(tg.gen_five_chain(), "U").ratio
        assert block.best_ratio == tg.pos(tg.gen_five_chain(), "U").ratio
        assert report.order is None

    def test_sequential_four_line(self):
        report = tg.analyze(tg.gen_four_line(), "sequential", functions=("E",))
        block = report.functions[0]
        assert block.optimal_value == 3
        assert block.worst_ratio == tg.spoa(tg.gen_four_line(), "E").ratio
        assert block.best_ratio == tg.spos(tg.gen_four_line(), "E").ratio
        assert report.order == (1, 2, 3, 4)

    def test_no_equilibrium_recorded_not_raised(self):
        report = tg.analyze(NE_FREE, "simultaneous", functions=("U",))
        block = report.functions[0]
        assert "NoEquilibrium" in block.errors
        assert block.equilibrium_count == 0
        assert block.worst_ratio is None

    def test_degenerate_optimum_recorded(self):
        inst = tg.Instance(2, 2, tuple(tuple(F(0) for _ in range(3)) for _ in range(3)), ((1, 2), (1, 2)))
        report = tg.analyze(inst, "simultaneous", functions=("D",))
        assert "DegenerateOptimum" in report.functions[0].errors
        assert report.functions[0].worst_ratio is None

    def test_bad_mode_and_function(self):
        with pytest.raises(ValueError):
            tg.analyze(tg.gen_four_line(), "parallel")
        with pytest.raises(ValueError):
            tg.analyze(tg.gen_four_line(), "simultaneous", functions=("Q",))


class TestSerialization:
    def test_deterministic_bytes(self):
        first = serialize_report(tg.analyze(tg.gen_four_line(), "sequential"))
        second = serialize_report(tg.analyze(tg.gen_four_line(), "sequential"))
        assert first == second  # timing excluded by default

    def test_json_roundtrip_identical(self):
        report = tg.analyze(tg.gen_five_chain(), "simultaneous")
        doc = json.loads(serialize_report(report, "json"))
        assert doc == report_to_dict(report)
        assert [F(block["worst_ratio"]) for block in doc["functions"]] == [b.worst_ratio for b in report.functions]
        assert [tuple(block["best_witness"]) for block in doc["functions"]] == [b.best_witness for b in report.functions]

    def test_rationals_rendered_exactly(self):
        report = tg.analyze(tg.gen_zero_cluster_far(4, 2, F(1, 10)), "sequential", functions=("U",))
        doc = report_to_dict(report)
        assert doc["functions"][0]["optimal_value"] == "21/10"
        assert doc["functions"][0]["best_ratio"] == "20/7"

    def test_csv_row_count(self):
        report = tg.analyze(tg.gen_four_line(), "sequential")
        lines = serialize_report(report, "csv").strip().splitlines()
        assert len(lines) == 1 + 3 * 2  # header + functions x measures

    def test_table_renders_missing_as_dash(self):
        report = tg.analyze(NE_FREE, "simultaneous", functions=("U",))
        table = serialize_report(report, "table")
        assert "—" in table and "NoEquilibrium" in table

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            serialize_report(tg.analyze(tg.gen_four_line(), "simultaneous"), "yaml")


class TestBoundExpressions:
    def test_arithmetic(self):
        env = {"n": F(4), "m": F(2), "eps": F(1, 10)}
        assert eval_bound_expr("2*n/m - 1", env) == 3
        assert eval_bound_expr("(2*n - m) / (m + m*(m - 1)*eps/2)", env) == F(20, 7)
        assert eval_bound_expr("floor(n/m) + ceil(n/m)", env) == 4
        assert eval_bound_expr("max(n, m)**2", env) == 16
        assert eval_bound_expr("-n + 5", env) == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            eval_bound_expr("q + 1", {"n": F(1)})

    def test_rejects_arbitrary_syntax(self):
        for bad in ("__import__('os')", "n.numerator", "lambda: 1", "n if n else m", "2.5"):
            with pytest.raises(ValueError):
                eval_bound_expr(bad, {"n": F(1), "m": F(2)})

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ValueError):
            eval_bound_expr("n ** (1/2)", {"n": F(4)})

    def test_division_by_zero_rejected(self):
        for bad in ("1/(m-m)", "n/0", "(n-n)**(-1)"):
            with pytest.raises(ValueError, match=rf"bound expression '{re.escape(bad)}' divides by zero"):
                eval_bound_expr(bad, {"n": F(4), "m": F(2)})

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("floor(1, 2)", r"floor\(\) takes exactly one argument, got 2"),
            ("floor()", r"floor\(\) takes exactly one argument, got 0"),
            ("ceil(1, 2)", r"ceil\(\) takes exactly one argument, got 2"),
            ("min()", r"min\(\) takes at least one argument"),
            ("max()", r"max\(\) takes at least one argument"),
            ("1/", r"bound expression '1/' is not valid syntax"),
            ("3**(10**5)", r"a power in bound expression '3\*\*\(10\*\*5\)' is too large"),
        ],
        ids=["floor-two", "floor-none", "ceil-two", "min-none", "max-none", "syntax", "huge-power"],
    )
    def test_malformed_expression_is_a_value_error(self, bad, message):
        with pytest.raises(ValueError, match=message):
            eval_bound_expr(bad, {"n": F(4)})

    def test_deep_nesting_is_a_value_error(self):
        for bad in ("+".join(["n"] * 1000), "-" * 1000 + "n", "-" * 100_000 + "n"):
            with pytest.raises(ValueError, match="is nested too deeply"):
                eval_bound_expr(bad, {"n": F(4)})


POA_GE_1 = {"function": "U", "measure": "poa", "relation": "ge", "expected": "1"}


class TestSweeps:
    def test_shipped_sweeps_pass(self):
        for path in sorted(SWEEPS.glob("*.json")):
            result = run_verify_bounds(tg.load_sweep(path))
            assert result.all_passed, render_sweep(result, "table")

    def test_grid_expansion(self):
        spec = sweep_from_dict(
            {
                "family": "uniform-star",
                "grid": {"n": [2, 3], "m": [2], "epsilon": [2]},
                "bounds": [{"function": "E", "measure": "spoa", "relation": "ge", "expected": "1"}],
            }
        )
        assert len(spec.points) == 2

    def test_failing_bound_reported(self):
        spec = sweep_from_dict(
            {
                "family": "zero-cluster-single",
                "points": [{"n": 3}],
                "bounds": [{"function": "U", "measure": "spoa", "relation": "eq", "expected": "2*n"}],
            }
        )
        result = run_verify_bounds(spec)
        assert not result.all_passed
        assert result.rows[0].measured == 5
        assert "FAIL" in render_sweep(result, "table")

    def test_point_errors_recorded(self):
        spec = sweep_from_dict(
            {
                "family": "uniform-star",
                "points": [{"n": 3, "m": 2, "epsilon": 0}],
                "bounds": [{"function": "E", "measure": "spoa", "relation": "ge", "expected": "1"}],
            }
        )
        result = run_verify_bounds(spec)
        assert result.rows[0].error is not None
        assert not result.all_passed

    def test_division_by_zero_recorded(self):
        spec = sweep_from_dict(
            {
                "family": "four-line",
                "points": [{}],
                "bounds": [
                    {"function": "U", "measure": "poa", "relation": "le", "expected": "1/(m-m)"},
                    {"function": "U", "measure": "poa", "relation": "ge", "expected": "1"},
                ],
            }
        )
        result = run_verify_bounds(spec)
        assert result.rows[0].error == "ValueError: bound expression '1/(m-m)' divides by zero"
        assert result.rows[0].passed is None
        assert result.rows[1].passed is True
        assert not result.all_passed

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            sweep_from_dict({"family": "uniform-star", "points": [], "bounds": []})
        with pytest.raises(ValueError):
            sweep_from_dict(
                {
                    "family": "uniform-star",
                    "points": [{"n": 2}],
                    "bounds": [{"function": "E", "measure": "spoa", "relation": "near", "expected": "1"}],
                }
            )

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([{"family": "four-line"}], "JSON object"),
            ({"family": "four-line", "grid": {"n": 3}, "bounds": [POA_GE_1]}, "'grid.n'"),
            ({"family": "four-line", "points": [{}], "bounds": [{**POA_GE_1, "expected": 1}]}, "'expected'"),
            (
                {
                    "family": "four-line",
                    "points": [{}],
                    "bounds": [{**POA_GE_1, "relation": "between", "lower": "1", "upper": 2}],
                },
                "'upper'",
            ),
            ({"family": "four-line", "points": "n=3", "bounds": [POA_GE_1]}, "'points'"),
            ({"family": "four-line", "points": [{}], "bounds": POA_GE_1}, "'bounds'"),
        ],
        ids=["array", "grid-int", "expected-number", "upper-number", "points-string", "bounds-object"],
    )
    def test_malformed_spec_names_its_field(self, doc, field):
        with pytest.raises(ValueError, match=field):
            sweep_from_dict(doc)

    def test_render_formats(self):
        result = run_verify_bounds(tg.load_sweep(SWEEPS / "star_identity_worst_case.json"))
        parsed = json.loads(render_sweep(result, "json"))
        assert parsed["all_passed"] is True
        csv_lines = render_sweep(result, "csv").strip().splitlines()
        assert len(csv_lines) == 1 + len(result.rows)
