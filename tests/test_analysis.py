"""Reports, serialization, the bound-expression evaluator, and sweeps."""

import json
import re
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

SWEEPS = Path(__file__).resolve().parent.parent / "sweeps"

import transportgames as tg
from transportgames import analysis
from transportgames.analysis import (
    SWEEP_MEASURES,
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

    def test_sequential_reports_the_order_it_ran(self):
        report = tg.analyze(tg.gen_four_line(), "sequential", functions=("U",), order=[2, 1, 4, 3])
        assert report.order == (2, 1, 4, 3)
        assert report.functions[0].worst_ratio == tg.spoa(tg.gen_four_line(), "U", order=(2, 1, 4, 3)).ratio

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

    def test_grid_over_the_point_cap_rejected(self):
        # One explicit point plus a 400 x 250 grid is one point over the cap of 100,000.
        doc = {
            "family": "four-line",
            "points": [{}],
            "grid": {"a": list(range(400)), "b": list(range(250))},
            "bounds": [POA_GE_1],
        }
        with pytest.raises(ValueError, match="'grid' gives 100001 points, more than the 100000 allowed"):
            sweep_from_dict(doc)

    @pytest.mark.parametrize("grid", [None, {}])
    def test_null_or_empty_grid_adds_no_points(self, grid):
        spec = sweep_from_dict({"family": "four-line", "grid": grid, "points": [{}], "bounds": [POA_GE_1]})
        assert spec.points == ({},)

    def test_over_budget_points_refused_before_building(self, monkeypatch):
        def build(tag, params):
            raise AssertionError(f"built {tag} {params}")

        monkeypatch.setattr(analysis, "build_family", build)
        rules = [{**POA_GE_1, "measure": measure} for measure in SWEEP_MEASURES]
        points = [{"n": 100_000, "m": 2, "epsilon": 1}, {"n": 24, "m": 2, "epsilon": 1}]
        spec = sweep_from_dict({"family": "uniform-star", "points": points, "bounds": rules})
        start = time.perf_counter()
        result = run_verify_bounds(spec)
        assert time.perf_counter() - start < 1
        assert [row.error for row in result.rows] == [
            "BudgetExceededError: 2^100000 outcomes exceed the budget of 10000000"
        ] * len(rules) + ["BudgetExceededError: 2^24 = 16777216 outcomes exceed the budget of 10000000"] * len(rules)

    def test_domain_errors_come_before_the_budget(self):
        spec = sweep_from_dict(
            {"family": "zero-cluster-far", "points": [{"n": 30, "m": 40, "epsilon": 1}], "bounds": [POA_GE_1]}
        )
        assert [row.error for row in run_verify_bounds(spec).rows] == ["need n > m >= 2, got n=30, m=40"]

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


# ---------------------------------------------------------------------------
# Golden bytes: the exact json/csv/table text of reports and sweeps.
# ---------------------------------------------------------------------------

ZERO_DISTANCES = tg.Instance(2, 2, tuple(tuple(F(0) for _ in range(3)) for _ in range(3)), ((1, 2), (1, 2)))

# One row of each kind: pass, FAIL, `between`, a bound error, and a point the family rejects.
GOLDEN_SWEEP = {
    "family": "uniform-star",
    "points": [{"n": 2, "m": 2, "epsilon": "1/2"}, {"n": 3, "m": 2, "epsilon": 0}],
    "bounds": [
        {"function": "E", "measure": "spoa", "relation": "ge", "expected": "1"},
        {"function": "U", "measure": "poa", "relation": "eq", "expected": "2*n"},
        {"function": "U", "measure": "pos", "relation": "between", "lower": "1", "upper": "n"},
        {"function": "D", "measure": "spos", "relation": "le", "expected": "1/(m-m)"},
    ],
}

SIMULTANEOUS_JSON = """\
{
  "digest": "8feeb01e0083ee7a845338c19380e66d9e40aedcc483215f97dc4fecbab02b2a",
  "mode": "simultaneous",
  "order": null,
  "functions": [
    {
      "function": "E",
      "optimal_value": "8",
      "optimal_witness": [
        1,
        2,
        1,
        1,
        2
      ],
      "equilibrium_count": 6,
      "min_equilibrium_value": "8",
      "max_equilibrium_value": "8",
      "best_ratio": "1",
      "worst_ratio": "1",
      "best_witness": [
        1,
        2,
        1,
        1,
        2
      ],
      "worst_witness": [
        1,
        2,
        1,
        1,
        2
      ],
      "errors": []
    },
    {
      "function": "U",
      "optimal_value": "23",
      "optimal_witness": [
        1,
        2,
        1,
        1,
        2
      ],
      "equilibrium_count": 6,
      "min_equilibrium_value": "23",
      "max_equilibrium_value": "27",
      "best_ratio": "1",
      "worst_ratio": "27/23",
      "best_witness": [
        1,
        2,
        1,
        1,
        2
      ],
      "worst_witness": [
        1,
        2,
        1,
        2,
        1
      ],
      "errors": []
    }
  ]
}
"""

SIMULTANEOUS_CSV = """\
function,measure,ratio,equilibrium_value,optimal_value,witness,errors
E,PoA,1,8,8,1 2 1 1 2,
E,PoS,1,8,8,1 2 1 1 2,
U,PoA,27/23,27,23,1 2 1 2 1,
U,PoS,1,23,23,1 2 1 1 2,
"""

SIMULTANEOUS_TABLE = """\
instance 8feeb01e0083  mode=simultaneous
function  measure  ratio  equilibrium  optimal  errors
--------  -------  -----  -----------  -------  ------
E         PoA      1      8            8        —
E         PoS      1      8            8        —
U         PoA      27/23  27           23       —
U         PoS      1      23           23       —
"""

SEQUENTIAL_JSON = """\
{
  "digest": "4a37f1f8def30fb90b78493803e8d9ba49edc83078a0dd71e797256f968112dc",
  "mode": "sequential",
  "order": [
    2,
    1,
    4,
    3
  ],
  "functions": [
    {
      "function": "U",
      "optimal_value": "10",
      "optimal_witness": [
        1,
        1,
        2,
        2
      ],
      "equilibrium_count": 12,
      "min_equilibrium_value": "10",
      "max_equilibrium_value": "12",
      "best_ratio": "1",
      "worst_ratio": "6/5",
      "best_witness": [
        1,
        1,
        2,
        2
      ],
      "worst_witness": [
        1,
        1,
        2,
        1
      ],
      "errors": []
    }
  ]
}
"""

SEQUENTIAL_CSV = """\
function,measure,ratio,equilibrium_value,optimal_value,witness,errors
U,SPoA,6/5,12,10,1 1 2 1,
U,SPoS,1,10,10,1 1 2 2,
"""

SEQUENTIAL_TABLE = """\
instance 4a37f1f8def3  mode=sequential
function  measure  ratio  equilibrium  optimal  errors
--------  -------  -----  -----------  -------  ------
U         SPoA     6/5    12           10       —
U         SPoS     1      10           10       —
"""

NO_EQUILIBRIUM_JSON = """\
{
  "digest": "af3e327e252c9b2536d5759220d34f719726887db15998565c39402ae43ef509",
  "mode": "simultaneous",
  "order": null,
  "functions": [
    {
      "function": "U",
      "optimal_value": "3",
      "optimal_witness": [
        1,
        1,
        2
      ],
      "equilibrium_count": 0,
      "min_equilibrium_value": null,
      "max_equilibrium_value": null,
      "best_ratio": null,
      "worst_ratio": null,
      "best_witness": null,
      "worst_witness": null,
      "errors": [
        "NoEquilibrium"
      ]
    }
  ]
}
"""

NO_EQUILIBRIUM_CSV = """\
function,measure,ratio,equilibrium_value,optimal_value,witness,errors
U,PoA,,,3,,NoEquilibrium
U,PoS,,,3,,NoEquilibrium
"""

NO_EQUILIBRIUM_TABLE = """\
instance af3e327e252c  mode=simultaneous
function  measure  ratio  equilibrium  optimal  errors
--------  -------  -----  -----------  -------  -------------
U         PoA      —      —            3        NoEquilibrium
U         PoS      —      —            3        NoEquilibrium
"""

DEGENERATE_JSON = """\
{
  "digest": "5dd411f517be1fd061c24a194ac5a894eb0f313c0499e28e5ec707f82419e043",
  "mode": "simultaneous",
  "order": null,
  "functions": [
    {
      "function": "D",
      "optimal_value": "0",
      "optimal_witness": [
        1,
        1
      ],
      "equilibrium_count": 4,
      "min_equilibrium_value": "0",
      "max_equilibrium_value": "0",
      "best_ratio": null,
      "worst_ratio": null,
      "best_witness": [
        1,
        1
      ],
      "worst_witness": [
        1,
        1
      ],
      "errors": [
        "DegenerateOptimum"
      ]
    }
  ]
}
"""

DEGENERATE_CSV = """\
function,measure,ratio,equilibrium_value,optimal_value,witness,errors
D,PoA,,0,0,1 1,DegenerateOptimum
D,PoS,,0,0,1 1,DegenerateOptimum
"""

DEGENERATE_TABLE = """\
instance 5dd411f517be  mode=simultaneous
function  measure  ratio  equilibrium  optimal  errors
--------  -------  -----  -----------  -------  -----------------
D         PoA      —      0            0        DegenerateOptimum
D         PoS      —      0            0        DegenerateOptimum
"""

SWEEP_JSON = """\
{
  "family": "uniform-star",
  "all_passed": false,
  "rows": [
    {
      "params": {
        "epsilon": "1/2",
        "m": 2,
        "n": 2
      },
      "function": "E",
      "measure": "spoa",
      "measured": "3/2",
      "expected": ">= 1",
      "passed": true,
      "error": null
    },
    {
      "params": {
        "epsilon": "1/2",
        "m": 2,
        "n": 2
      },
      "function": "U",
      "measure": "poa",
      "measured": "1",
      "expected": "= 2*n",
      "passed": false,
      "error": null
    },
    {
      "params": {
        "epsilon": "1/2",
        "m": 2,
        "n": 2
      },
      "function": "U",
      "measure": "pos",
      "measured": "1",
      "expected": "in [1, n]",
      "passed": true,
      "error": null
    },
    {
      "params": {
        "epsilon": "1/2",
        "m": 2,
        "n": 2
      },
      "function": "D",
      "measure": "spos",
      "measured": "1",
      "expected": "<= 1/(m-m)",
      "passed": null,
      "error": "ValueError: bound expression '1/(m-m)' divides by zero"
    },
    {
      "params": {
        "epsilon": 0,
        "m": 2,
        "n": 3
      },
      "function": "E",
      "measure": "spoa",
      "measured": null,
      "expected": ">= 1",
      "passed": null,
      "error": "epsilon must be > 0, got 0"
    },
    {
      "params": {
        "epsilon": 0,
        "m": 2,
        "n": 3
      },
      "function": "U",
      "measure": "poa",
      "measured": null,
      "expected": "= 2*n",
      "passed": null,
      "error": "epsilon must be > 0, got 0"
    },
    {
      "params": {
        "epsilon": 0,
        "m": 2,
        "n": 3
      },
      "function": "U",
      "measure": "pos",
      "measured": null,
      "expected": "in [1, n]",
      "passed": null,
      "error": "epsilon must be > 0, got 0"
    },
    {
      "params": {
        "epsilon": 0,
        "m": 2,
        "n": 3
      },
      "function": "D",
      "measure": "spos",
      "measured": null,
      "expected": "<= 1/(m-m)",
      "passed": null,
      "error": "epsilon must be > 0, got 0"
    }
  ]
}
"""

SWEEP_CSV = """\
params,function,measure,measured,expected,passed,error
epsilon=1/2 m=2 n=2,E,spoa,3/2,>= 1,true,
epsilon=1/2 m=2 n=2,U,poa,1,= 2*n,false,
epsilon=1/2 m=2 n=2,U,pos,1,"in [1, n]",true,
epsilon=1/2 m=2 n=2,D,spos,1,<= 1/(m-m),,ValueError: bound expression '1/(m-m)' divides by zero
epsilon=0 m=2 n=3,E,spoa,,>= 1,,"epsilon must be > 0, got 0"
epsilon=0 m=2 n=3,U,poa,,= 2*n,,"epsilon must be > 0, got 0"
epsilon=0 m=2 n=3,U,pos,,"in [1, n]",,"epsilon must be > 0, got 0"
epsilon=0 m=2 n=3,D,spos,,<= 1/(m-m),,"epsilon must be > 0, got 0"
"""

SWEEP_TABLE = """\
family uniform-star
params               function  measure  measured  expected    status
-------------------  --------  -------  --------  ----------  -------------------------------------------------------------
epsilon=1/2 m=2 n=2  E         spoa     3/2       >= 1        pass
epsilon=1/2 m=2 n=2  U         poa      1         = 2*n       FAIL
epsilon=1/2 m=2 n=2  U         pos      1         in [1, n]   pass
epsilon=1/2 m=2 n=2  D         spos     1         <= 1/(m-m)  error: ValueError: bound expression '1/(m-m)' divides by zero
epsilon=0 m=2 n=3    E         spoa     —         >= 1        error: epsilon must be > 0, got 0
epsilon=0 m=2 n=3    U         poa      —         = 2*n       error: epsilon must be > 0, got 0
epsilon=0 m=2 n=3    U         pos      —         in [1, n]   error: epsilon must be > 0, got 0
epsilon=0 m=2 n=3    D         spos     —         <= 1/(m-m)  error: epsilon must be > 0, got 0
"""

GOLDEN_REPORTS = {
    "simultaneous": (
        lambda: tg.analyze(tg.gen_five_chain(), "simultaneous", functions=("E", "U")),
        {"json": SIMULTANEOUS_JSON, "csv": SIMULTANEOUS_CSV, "table": SIMULTANEOUS_TABLE},
    ),
    "sequential": (
        lambda: tg.analyze(tg.gen_four_line(), "sequential", functions=("U",), order=(2, 1, 4, 3)),
        {"json": SEQUENTIAL_JSON, "csv": SEQUENTIAL_CSV, "table": SEQUENTIAL_TABLE},
    ),
    "no-equilibrium": (
        lambda: tg.analyze(NE_FREE, "simultaneous", functions=("U",)),
        {"json": NO_EQUILIBRIUM_JSON, "csv": NO_EQUILIBRIUM_CSV, "table": NO_EQUILIBRIUM_TABLE},
    ),
    "degenerate": (
        lambda: tg.analyze(ZERO_DISTANCES, "simultaneous", functions=("D",)),
        {"json": DEGENERATE_JSON, "csv": DEGENERATE_CSV, "table": DEGENERATE_TABLE},
    ),
}
GOLDEN_SWEEP_TEXT = {"json": SWEEP_JSON, "csv": SWEEP_CSV, "table": SWEEP_TABLE}


class TestGoldenBytes:
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    @pytest.mark.parametrize("name", list(GOLDEN_REPORTS))
    def test_report(self, name, fmt):
        build, expected = GOLDEN_REPORTS[name]
        assert serialize_report(build(), fmt) == expected[fmt]

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_sweep(self, fmt):
        result = run_verify_bounds(sweep_from_dict(GOLDEN_SWEEP))
        assert render_sweep(result, fmt) == GOLDEN_SWEEP_TEXT[fmt]
