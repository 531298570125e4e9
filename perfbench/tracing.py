"""Per-layer tracing of the transportgames package from outside it.

The tracer replaces each layer's public functions, at the name their caller
resolves, with a wrapper that records one span per call: id, parent span,
CLI call id, layer, function name, start and end. `simultaneous` and
`sequential` import `evaluate_outcomes` by name, for instance, so both of
those module attributes are wrapped; the kernels are reached as
`kern.<fn>` on the module object, so the kernel modules' attributes are.
Spans stay in memory until the run ends. Wrappers are installed only around
each traced call and removed afterwards, so untraced calls and the
correctness checks run the original code.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from transportgames import _kernel_py, analysis, cli, core, engine, sequential, simultaneous

LAYERS = ("cli", "core", "engine", "kernel", "simultaneous", "sequential", "analysis", "families")

# Per-layer metrics are means per traced CLI call ("s/call", "count/call")
# except these.
_OTHER_UNITS = {
    "kernel.passes": "passes",
    "kernel.nash_set_size": "count",
    "kernel.spe_set_size": "count",
    "engine.view_hit_ratio": "ratio",
    "sequential.spe_builds_per_instance": "count/instance",
    "trace.overhead_s": "s",
}


def unit(name: str) -> str:
    """The unit of a per-layer metric."""
    return _OTHER_UNITS.get(name) or ("s/call" if name.endswith("_s") else "count/call")


def _kernel_work(counts: Counter, name: str, args: tuple, result) -> None:
    n, m = args[0], args[1]
    counts["kernel.calls"] += 1
    if name in ("scan_nash", "scan_social"):
        counts["kernel.outcomes_scanned"] += args[5] * m ** (n - 1)  # lead * m^(n-1)
    else:
        counts["kernel.outcomes_scanned"] += m**n
    if name == "scan_nash":
        counts["kernel.nash_calls"] += 1
        counts["kernel.nash_set_size"] += result[1]
    elif name == "spe_codes":
        counts["kernel.spe_calls"] += 1
        counts["kernel.spe_set_size"] += len(result)


def _targets():
    """(layer, span name, owner, attribute, counter) for every wrapped function."""
    targets = [
        ("core", "loads_instance", cli, "loads_instance", None),
        ("core", "instance_digest", analysis, "instance_digest", None),
        ("core", "set_minmax", core.OutcomeSet, "min_social", None),
        ("core", "set_minmax", core.OutcomeSet, "max_social", None),
        ("engine", "scaled_view", engine, "scaled_view", None),
        ("engine", "resolve_backend", engine, "resolve_backend", _count_backend),
        ("simultaneous", "enumerate_nash", analysis, "enumerate_nash", None),
        ("simultaneous", "poa", analysis, "poa", None),
        ("simultaneous", "pos", analysis, "pos", None),
        ("sequential", "spoa", analysis, "spoa", None),
        ("sequential", "spos", analysis, "spos", None),
        ("analysis", "analyze", cli, "analyze", None),
        ("analysis", "serialize", cli, "serialize_report", None),
        ("analysis", "serialize", cli, "render_sweep", None),
        ("analysis", "run_verify_bounds", cli, "run_verify_bounds", None),
        ("analysis", "load_sweep", cli, "load_sweep", None),
        ("analysis", "eval_bound_expr", analysis, "eval_bound_expr", None),
        ("families", "build_family", analysis, "build_family", _count_name("families.builds")),
    ]
    for owner in (simultaneous, sequential):
        targets.append(("core", "evaluate_outcomes", owner, "evaluate_outcomes", _count_evaluated))
    for owner in (analysis, simultaneous, sequential):
        targets.append(("simultaneous", "optimal_social", owner, "optimal_social", _count_name("simultaneous.optimal_calls")))
    for owner in (analysis, sequential):
        targets.append(("sequential", "spe_outcomes", owner, "spe_outcomes", _count_name("sequential.spe_builds")))
    for kern in (_kernel_py, engine._kernel_c):
        if kern is not None:
            for name in ("scan_nash", "scan_social", "spe_codes", "zermelo_code"):
                targets.append(("kernel", name, kern, name, lambda c, a, r, name=name: _kernel_work(c, name, a, r)))
    return targets


def _count_name(key: str):
    def count(counts: Counter, args: tuple, result) -> None:
        counts[key] += 1

    return count


def _count_evaluated(counts: Counter, args: tuple, result) -> None:
    counts["core.evaluated_outcomes"] += len(result)


def _count_backend(counts: Counter, args: tuple, result) -> None:
    counts[f"engine.{engine.backend_name(result)}_calls"] += 1


class Tracer:
    """Span recorder for traced CLI calls; one instance per run."""

    def __init__(self) -> None:
        # (id, parent, call, layer, name, start, end), appended when a span
        # ends. Tuples of plain values drop out of the garbage collector's
        # scans, so a long traced run does not slow the collections in calls.
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self.counts: Counter = Counter()
        self.calls = 0
        self.units = 0  # sum of m^n per analysis unit, the base of kernel.passes
        self.instances = 0
        self.view_hits = self.view_misses = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._scaled_view = engine.scaled_view

    def _install(self) -> None:
        for layer, name, owner, attr, count in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, name, original, count))

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, name: str, fn, count):
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span, parent = next(ids), stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((span, parent, self.calls, layer, name, start, clock()))
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def invoke(self, runner, main, call) -> tuple[object, float]:
        """Run one CLI call under a root `cli` span; return (result, seconds)."""
        self._install()
        before = self._scaled_view.cache_info()
        root = next(self._ids)
        self._stack.append(root)
        start = time.perf_counter()
        try:
            result = runner.invoke(main, call.args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._uninstall()
        self.spans.append((root, None, self.calls, "cli", "main", start, end))
        after = self._scaled_view.cache_info()
        self.view_hits += after.hits - before.hits
        self.view_misses += after.misses - before.misses
        self.calls += 1
        self.units += call.pass_base
        self.instances += len(call.games)
        return result, end - start

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "call", "layer", "name", "start", "end")
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, as means per traced CLI call unless noted."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                covered[span[1]] += span[6] - span[5]
        self_time: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        by_name: dict[str, float] = defaultdict(float)
        call_time = 0.0
        for span in self.spans:
            duration = span[6] - span[5]
            self_time[span[3]] += duration - covered[span[0]]
            by_name[span[4]] += duration
            if span[1] is None:
                call_time += duration
        calls = max(self.calls, 1)
        counts = self.counts
        lookups = self.view_hits + self.view_misses
        values = {
            "kernel.scan_nash_s": by_name["scan_nash"],
            "kernel.scan_social_s": by_name["scan_social"],
            "kernel.spe_codes_s": by_name["spe_codes"],
            "core.load_s": by_name["loads_instance"],
            "core.digest_s": by_name["instance_digest"],
            "core.evaluate_s": by_name["evaluate_outcomes"],
            "core.set_minmax_s": by_name["set_minmax"],
            "engine.view_s": by_name["scaled_view"],
            "analysis.serialize_s": by_name["serialize"],
            "analysis.bound_eval_s": by_name["eval_bound_expr"],
            "families.build_s": by_name["build_family"],
            "trace.call_mean_s": call_time,
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self_time[layer]
        for key in (
            "kernel.calls",
            "kernel.outcomes_scanned",
            "core.evaluated_outcomes",
            "engine.compiled_calls",
            "engine.pure_calls",
            "simultaneous.optimal_calls",
            "sequential.spe_builds",
            "families.builds",
        ):
            values[key] = counts[key]
        values = {key: value / calls for key, value in values.items()}
        values["kernel.passes"] = counts["kernel.outcomes_scanned"] / max(self.units, 1)
        values["kernel.nash_set_size"] = counts["kernel.nash_set_size"] / max(counts["kernel.nash_calls"], 1)
        values["kernel.spe_set_size"] = counts["kernel.spe_set_size"] / max(counts["kernel.spe_calls"], 1)
        values["engine.view_hit_ratio"] = self.view_hits / lookups if lookups else 0.0
        values["sequential.spe_builds_per_instance"] = counts["sequential.spe_builds"] / max(self.instances, 1)
        return values
