#!/usr/bin/env python3
"""Benchmark of the transportgames command line, end to end and layer by layer.

    python3 perfbench/run.py --workload sim-random --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client in one process and one thread. A
call is one in-process invocation of the click entry point
`transportgames.cli:main` through `click.testing.CliRunner`, so argument
parsing, file I/O, serialization and the exit code are inside the timed call;
each call starts when the previous one returns. The program receives only
files that set-up generated from --seed (see workloads.py), each used once.
Times are scaled to a reference host speed, measured by a fixed loop run
around every timed call (see reference_seconds).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced cycles of calls and reports the per-layer metrics of the traced ones
(see tracing.py). The last line of stdout is the result object; the lines
before it say what ran. Exits non-zero, without a result, when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
# Seconds the reference loop takes on the host that timings are scaled to.
REFERENCE_S = 0.001
# Cycles of inputs written during set-up, about a quarter of a run here; the
# rest are generated between cycles, outside the timed region.
PREGEN_CYCLES = {"sim-random": 4, "seq-ties": 15, "sweep": 70}
END_TO_END_UNITS = {"setup_s": "s", "call_s_p50": "s", "call_s_p75": "s", "outcomes_per_s": "1/s", "peak_rss_mb": "MB"}


def _reference_work() -> int:
    acc: dict[int, int] = {}
    for i in range(4000):
        key = (i * 7919) % 1009
        acc[key] = acc.get(key, 0) + i
    return len(acc)


def reference_seconds() -> float:
    """The host's current speed: the shortest of three timings of a fixed
    pure-Python loop that does not touch the program."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def to_reference_speed(elapsed: float, before: float, after: float) -> float:
    """Scale a wall time to the host speed at which the reference loop takes
    REFERENCE_S, by the reference timings taken just before and after it."""
    return elapsed * REFERENCE_S / ((before + after) / 2)


def _add_program_to_path() -> None:
    src = ROOT / "src"
    if not (src / "transportgames" / "cli.py").is_file():
        sys.exit(f"perfbench: no transportgames sources under {src}")
    sys.path.insert(0, str(src))


def set_up(workload: str, seed: int, workdir: Path):
    """Write the pregenerated inputs and run the untimed warm-up calls."""
    from click.testing import CliRunner

    from transportgames.cli import main as cli_main
    from workloads import InputGenerator

    gen = InputGenerator(workload, seed, workdir, ROOT / "sweeps")
    gen.write_ahead(PREGEN_CYCLES[workload])
    runner = CliRunner()
    for call in gen.warmup:
        runner.invoke(cli_main, call.args)
    return gen, runner, cli_main


def setup_samples(workload: str, seed: int, workdir: Path) -> list[float]:
    """Times of complete set-ups, each in a fresh interpreter: start, import,
    input generation and warm-up, until the first call could start. Each is
    scaled to the reference speed."""
    samples = []
    reference = reference_seconds()
    for index in range(SETUP_SAMPLES):
        target = workdir / f"setup-{index}"
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only", str(target)]
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=150, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        shutil.rmtree(target)
        before, reference = reference, reference_seconds()
        samples.append(to_reference_speed(elapsed, before, reference))
    return samples


def _checked(call, result, golden: str | None, cross_check: bool) -> list[str]:
    from workloads import backend_disagreements

    try:
        problems = call.check(result)
    except (ValueError, KeyError, TypeError) as exc:  # unreadable or malformed output
        problems = [f"unreadable output: {exc!r}"]
    if golden is not None and hashlib.sha256(result.stdout_bytes).hexdigest() != golden:
        problems.append("stdout differs from the golden report")
    if cross_check:
        for inst, order in call.games:
            problems += backend_disagreements(inst, order)
    return problems


def measure(gen, runner, cli_main, seconds: float, tracer, goldens: list[str]) -> dict:
    """Run whole cycles of calls until `seconds` of call time are measured.

    Each call's wall time is also scaled to the reference speed, by reference
    timings taken just before and after the call, so that the host's speed
    changing during a run does not show as a change of the program.

    With a tracer, even cycles run untraced and odd cycles traced, and the run
    ends after a traced cycle.
    """
    from workloads import backend_counts

    times: dict[bool, list[float]] = {False: [], True: []}  # scaled to the reference speed
    wall: dict[bool, list[float]] = {False: [], True: []}
    references: list[float] = []
    rates = []  # outcomes per second of each untraced cycle
    attempted = failed = 0
    backends: Counter = Counter()
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        cycle_outcomes = cycle_seconds = 0
        for call in gen.next_cycle():
            gc.collect()
            before = reference_seconds()
            if traced:
                result, elapsed = tracer.invoke(runner, cli_main, call)
            else:
                start = time.perf_counter()
                result = runner.invoke(cli_main, call.args)
                elapsed = time.perf_counter() - start
            after = reference_seconds()
            references += (before, after)
            wall[traced].append(elapsed)
            elapsed = to_reference_speed(elapsed, before, after)
            times[traced].append(elapsed)
            cycle_outcomes += call.outcomes
            cycle_seconds += elapsed
            golden = goldens[attempted] if attempted < len(goldens) else None
            problems = _checked(call, result, golden, cross_check=cycle == 0)
            attempted += 1
            backends.update(backend_counts(call.games))
            if problems:
                failed += 1
                print(f"perfbench: call {call.args} failed: {problems[:3]}", file=sys.stderr)
        if not traced:
            rates.append(cycle_outcomes / cycle_seconds)
        cycle += 1
        if sum(wall[False]) + sum(wall[True]) >= seconds and (tracer is None or cycle % 2 == 0):
            break
    return {
        "times": times,
        "wall": wall,
        "references": references,
        "rates": rates,
        "attempted": attempted,
        "failed": failed,
        "cycles": cycle,
        "backends": backends,
        "goldens_checked": min(attempted, len(goldens)),
    }


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("sim-random", "seq-ties", "sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _add_program_to_path()
    if args.setup_only:
        set_up(args.workload, args.seed, Path(args.setup_only))
        return 0

    from tracing import Tracer, unit
    from transportgames import engine

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = [] if args.trace else setup_samples(args.workload, args.seed, workdir)
        gen, runner, cli_main = set_up(args.workload, args.seed, workdir / "inputs")
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8")).get(args.workload, []) if args.seed == DEFAULT_SEED else []
        tracer = Tracer() if args.trace else None
        # Keep the generated inputs out of the collector's way, so that garbage
        # collection inside a timed call costs what it costs a fresh CLI process.
        gc.collect()
        gc.freeze()
        run = measure(gen, runner, cli_main, args.seconds, tracer, goldens)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = run["times"][bool(args.trace)]
    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = statistics.median(times) - statistics.median(run["times"][False])
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
    else:
        p75 = statistics.quantiles(times, n=4)[2]
        metrics = {
            "setup_s": statistics.median(setup),
            "call_s_p50": statistics.median(times),
            "call_s_p75": p75,
            "outcomes_per_s": statistics.median(run["rates"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        spans = None

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cycles": run["cycles"],
        "timed_calls": len(times),
        "calls_beyond_p75": None if args.trace else sum(t > metrics["call_s_p75"] for t in times),
        "setup_samples": len(setup),
        "error_rate": run["failed"] / run["attempted"],
        "wall_call_s_p50": statistics.median(run["wall"][bool(args.trace)]),
        "reference_s_p50": statistics.median(run["references"]),
        "goldens_checked": run["goldens_checked"],
        "backend_counts": dict(run["backends"]),
        "compiled_available": engine.compiled_available(),
        "pure_forced_by_env": bool(os.environ.get(engine.ENV_FORCE_PURE)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "spans": str(spans.relative_to(ROOT)) if spans else None,
    }
    units = {name: unit(name) if args.trace else END_TO_END_UNITS[name] for name in metrics}
    for name, value in metrics.items():
        print(f"{name:38} {value:>16.6g} {units[name]}")
    print(f"{'error_rate':38} {info['error_rate']:>16.6g} ratio ({run['failed']} of {run['attempted']} calls failed)")
    print(json.dumps({"run": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
