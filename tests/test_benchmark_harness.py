"""Smoke test of the benchmark harness in `perfbench/`.

Each workload runs once with no timed seconds and the per-layer tracer on, and
checks its reports against the recorded sha256 goldens. The harness is run
only as a command and none of its internals are imported, so it can change
without changing these tests; a report whose bytes drift, or a renamed
function the harness or its tracer reads, fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sim-random", "seq-ties", "sweep"])
def test_workload_matches_its_goldens(workload):
    args = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    outcome = json.loads(lines[-1])
    assert outcome["correct"] is True and outcome["failed"] == 0, outcome
    run = next(json.loads(line)["run"] for line in lines if line.startswith('{"run"'))
    assert run["goldens_checked"] > 0
