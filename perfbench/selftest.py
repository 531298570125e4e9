#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs each workload in-process with two tiny calls per cycle, untraced and
traced, and asserts that:
- every metric named in BENCHMARK.json is emitted with its unit, and no other;
- every call passes its correctness checks;
- `kernel.outcomes_scanned`, `kernel.passes`, `core.evaluated_outcomes` and
  `sequential.spe_builds` repeat exactly across two traced runs of one seed;
- `kernel.passes` is 4 on the analyze workloads and 2 on the sweep;
- the per-layer self times sum to the traced call time;
- without the program's sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 7  # not the default seed, whose goldens hold the full-size calls
REPEATED_COUNTS = ("kernel.outcomes_scanned", "kernel.passes", "core.evaluated_outcomes", "sequential.spe_builds")
EXPECTED_PASSES = {"sim-random": 4.0, "seq-ties": 4.0, "sweep": 2.0}


def _shrink_workloads() -> None:
    import workloads

    workloads.SIM_SHAPES = ((3, 4), (2, 5))
    workloads.SEQ_SHAPES = (("zero-cluster-far", {"n": 5, "m": 2}), ("uniform-star", {"n": 4, "m": 2}))
    workloads.SWEEP_POINTS = ((3, 2), (3, 3))
    run.PREGEN_CYCLES = dict.fromkeys(run.PREGEN_CYCLES, 1)
    run.SETUP_SAMPLES = 1


def _result(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
    return json.loads(out.getvalue().splitlines()[-1])


def _check_workload(workload: str, declared: dict) -> None:
    plain = _result(workload, 0)
    traced, again = _result(workload, 1), _result(workload, 1)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0, (workload, result)
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == declared[kind], (workload, kind, emitted)
    metrics = {name: metric["value"] for name, metric in traced["metrics"].items()}
    for name in REPEATED_COUNTS:
        assert metrics[name] == again["metrics"][name]["value"], (workload, name)
    assert metrics["kernel.passes"] == EXPECTED_PASSES[workload], (workload, metrics["kernel.passes"])
    self_times = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
    assert math.isclose(self_times, metrics["trace.call_mean_s"], rel_tol=1e-9), (workload, self_times)


def _check_without_sources() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        command = [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done


def main() -> int:
    run._add_program_to_path()
    _shrink_workloads()
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: {m["name"]: m["unit"] for m in benchmark[kind]} for kind in ("end_to_end", "per_layer")}
    for workload in (w["name"] for w in benchmark["workloads"]):
        _check_workload(workload, declared)
        print(f"selftest: {workload} ok")
    _check_without_sources()
    print("selftest: missing sources ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
