"""Command-line interface: subcommands, formats, and exit codes."""

import gc
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

import transportgames as tg
from transportgames.cli import main

SWEEPS = Path(__file__).resolve().parent.parent / "sweeps"

runner = CliRunner()


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    tg.save_instance(inst, path)
    return str(path)


class TestValidate:
    def test_valid_file(self, tmp_path):
        path = write_instance(tmp_path, tg.gen_five_chain())
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_asymmetric_file(self, tmp_path):
        doc = tg.core.instance_to_dict(tg.gen_five_chain())
        doc["distances"][0][1] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 1
        assert "asymmetry" in result.output

    def test_missing_permutations(self, tmp_path):
        doc = tg.core.instance_to_dict(tg.gen_five_chain())
        del doc["permutations"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 1

    def test_unreadable_path(self):
        result = runner.invoke(main, ["validate", "/no/such/file.json"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_non_utf8_file(self, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("invalid-json: not UTF-8 text")
        assert len(result.output.splitlines()) == 1

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize(
        "text, message",
        [("[" * 100_000, "maximum recursion depth"), ("1" * 5000, "limit (4300 digits)")],
        ids=["deep", "long-int"],
    )
    def test_unparsable_json(self, tmp_path, command, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("invalid-json: ") and message in result.output
        assert len(result.output.splitlines()) == 1

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_non_array_vertices(self, tmp_path, command):
        doc = {"n": 1, "m": 2, "vertices": 5, "distances": [[0, 1], [1, 0]], "permutations": [[1], [1]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "bad-vertices: vertices must be an array of 1..1 and 't'\n"


class TestGenerate:
    def test_writes_file(self, tmp_path):
        out = tmp_path / "chain.json"
        result = runner.invoke(main, ["generate", "five-chain", "-o", str(out)])
        assert result.exit_code == 0
        assert tg.load_instance(out) == tg.gen_five_chain()

    def test_stdout_roundtrip(self):
        result = runner.invoke(main, ["generate", "uniform-star", "--n", "3", "--m", "2", "--epsilon", "1/4"])
        assert result.exit_code == 0
        inst = tg.loads_instance(result.output)
        assert inst == tg.gen_uniform_star(3, 2, F(1, 4), "identity")

    def test_rational_option(self, tmp_path):
        out = tmp_path / "spike.json"
        result = runner.invoke(main, ["generate", "nonmetric-spike", "--x", "7/3", "-o", str(out)])
        assert result.exit_code == 0
        assert tg.load_instance(out) == tg.gen_nonmetric_spike(F(7, 3))

    def test_domain_error_exit(self):
        result = runner.invoke(main, ["generate", "nonmetric-spike", "--x", "0"])
        assert result.exit_code == 1

    def test_unknown_family_rejected(self):
        result = runner.invoke(main, ["generate", "mystery"])
        assert result.exit_code != 0


class TestAnalyzeCommand:
    def test_sequential_json(self, tmp_path):
        path = write_instance(tmp_path, tg.gen_four_line())
        result = runner.invoke(main, ["analyze", path, "--mode", "sequential", "--social", "E", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        block = doc["functions"][0]
        assert block["optimal_value"] == "3"
        assert F(block["worst_ratio"]) == tg.spoa(tg.gen_four_line(), "E").ratio
        assert F(block["best_ratio"]) >= F(5, 3)

    def test_simultaneous_contains_known_equilibrium(self, tmp_path):
        path = write_instance(tmp_path, tg.gen_five_chain())
        result = runner.invoke(main, ["analyze", path, "--mode", "simultaneous", "--social", "U", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["functions"][0]["equilibrium_count"] >= 1
        found = tg.enumerate_nash(tg.gen_five_chain())
        assert found.contains((2, 1, 1, 2, 1))

    def test_deterministic_output(self, tmp_path):
        path = write_instance(tmp_path, tg.gen_four_line())
        args = ["analyze", path, "--mode", "sequential", "--format", "json"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_order_flag(self, tmp_path):
        path = write_instance(tmp_path, tg.gen_four_line())
        result = runner.invoke(
            main, ["analyze", path, "--mode", "sequential", "--order", "4,3,2,1", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["order"] == [4, 3, 2, 1]

    def test_bad_order(self, tmp_path):
        path = write_instance(tmp_path, tg.gen_four_line())
        result = runner.invoke(main, ["analyze", path, "--mode", "sequential", "--order", "1,2"])
        assert result.exit_code == 1

    def test_budget_exit_code(self, tmp_path):
        path = write_instance(tmp_path, tg.gen_five_chain())
        result = runner.invoke(main, ["analyze", path, "--budget-outcomes", "4"])
        assert result.exit_code == 2

    def test_symmetry_reduction_flag(self, tmp_path):
        # The instance decides the reduction itself; the old flag is a usage error.
        assert "symmetry" not in runner.invoke(main, ["analyze", "--help"]).output
        path = write_instance(tmp_path, tg.gen_five_chain())
        result = runner.invoke(main, ["analyze", path, "--format", "json", "--symmetry-reduction"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--symmetry-reduction" in result.output

    def test_symmetry_reduction_rejected_in_sequential_mode(self, tmp_path):
        path = write_instance(tmp_path, tg.gen_uniform_star(3, 2, 2))
        result = runner.invoke(main, ["analyze", path, "--mode", "sequential", "--symmetry-reduction"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--symmetry-reduction" in result.output

    def test_csv_format(self, tmp_path):
        path = write_instance(tmp_path, tg.gen_four_line())
        result = runner.invoke(main, ["analyze", path, "--social", "D,E", "--format", "csv"])
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 1 + 2 * 2


def test_repeated_invocations_release_their_streams(tmp_path):
    path = write_instance(tmp_path, tg.gen_four_line())
    calls = (["analyze", path], ["analyze", str(tmp_path / "missing.json")], ["validate", path])

    def live_buffers():
        gc.collect()
        return sum(isinstance(obj, io.BytesIO) for obj in gc.get_objects())

    for args in calls:
        runner.invoke(main, args)
    before = live_buffers()
    for _ in range(10):
        for args in calls:
            runner.invoke(main, args)
    assert live_buffers() <= before


class TestVerifyBounds:
    def test_passing_sweep(self):
        result = runner.invoke(main, ["verify-bounds", "--spec", str(SWEEPS / "zero_cluster_utilitarian.json")])
        assert result.exit_code == 0
        assert "pass" in result.output

    def test_failing_sweep(self, tmp_path):
        spec = {
            "family": "zero-cluster-single",
            "points": [{"n": 3}],
            "bounds": [{"function": "U", "measure": "spoa", "relation": "eq", "expected": "2*n"}],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["verify-bounds", "--spec", str(path)])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_division_by_zero_reported(self, tmp_path):
        spec = {
            "family": "four-line",
            "points": [{}],
            "bounds": [{"function": "U", "measure": "poa", "relation": "le", "expected": "1/(m-m)"}],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["verify-bounds", "--spec", str(path), "--format", "json"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        row = json.loads(result.output)["rows"][0]
        assert row["error"] == "ValueError: bound expression '1/(m-m)' divides by zero"

    def test_malformed_expression_reported(self, tmp_path):
        spec = {
            "family": "four-line",
            "points": [{}],
            "bounds": [{"function": "U", "measure": "poa", "relation": "le", "expected": "floor(1, 2)"}],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["verify-bounds", "--spec", str(path), "--format", "json"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        row = json.loads(result.output)["rows"][0]
        assert row["error"] == "ValueError: floor() takes exactly one argument, got 2"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([], "sweep spec must be a JSON object"),
            ({"family": "four-line", "grid": {"n": 3}}, "'grid.n' must be a list"),
            (
                {
                    "family": "four-line",
                    "points": [{}],
                    "bounds": [{"function": "U", "measure": "poa", "relation": "le", "expected": 1}],
                },
                "needs 'expected' as an expression string",
            ),
            (
                {"family": "four-line", "grid": {"a": list(range(400)), "b": list(range(251))}},
                "'grid' gives 100400 points",
            ),
            *(
                (
                    {
                        "family": "four-line",
                        "grid": grid,
                        "points": [{}],
                        "bounds": [{"function": "U", "measure": "poa", "relation": "ge", "expected": "1"}],
                    },
                    "sweep spec field 'grid' must be an object",
                )
                for grid in ([], 0, "", False, [1])
            ),
            ("[" * 100_000, "sweep.json is nested too deeply to parse"),
            ("1" * 5000, "limit (4300 digits)"),
        ],
        ids=[
            "array",
            "grid-int",
            "expected-number",
            "grid-too-large",
            *(f"grid-{kind}" for kind in ("empty-array", "zero", "empty-string", "false", "array")),
            "deep-text",
            "long-int-text",
        ],
    )
    def test_malformed_spec_is_an_error(self, tmp_path, spec, message):
        path = tmp_path / "sweep.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))  # json.dumps cannot nest that deep
        result = runner.invoke(main, ["verify-bounds", "--spec", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ") and message in result.output

    def test_missing_spec_file(self):
        result = runner.invoke(main, ["verify-bounds", "--spec", "/no/such/sweep.json"])
        assert result.exit_code == 3


ANALYZE_HELP = """\
Usage: main analyze [OPTIONS] FILE

  Compute equilibria, optima, and inefficiency ratios for an instance.

Options:
  --mode [simultaneous|sequential]
                                  [default: simultaneous]
  --social TEXT                   Comma-separated social functions to analyze.
                                  [default: D,E,U]
  --order TEXT                    Move order for sequential mode, e.g. 1,3,2.
  --format [json|csv|table]       [default: table]
  --budget-outcomes INTEGER       Cap on m^n.  [default: 10000000]
  --budget-node-set INTEGER       Per-node result-set cap.  [default: 1000000]
  --help                          Show this message and exit.
"""

VERIFY_BOUNDS_HELP = """\
Usage: main verify-bounds [OPTIONS]

  Measure inefficiency ratios over a parameter grid and check closed-form
  bounds.

  Exits 0 only when every row passes; per-point errors are recorded in the
  output and count as failures.

Options:
  --spec FILE                Sweep spec JSON file.  [required]
  --format [json|csv|table]  [default: table]
  --budget-outcomes INTEGER  [default: 10000000]
  --budget-node-set INTEGER  [default: 1000000]
  --help                     Show this message and exit.
"""


class TestHelp:
    @pytest.mark.parametrize(
        "command, expected",
        [("analyze", ANALYZE_HELP), ("verify-bounds", VERIFY_BOUNDS_HELP)],
        ids=["analyze", "verify-bounds"],
    )
    def test_help_text_and_budget_defaults(self, command, expected):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert result.output == expected
