"""The three benchmark workloads: seeded inputs and per-call correctness checks.

Every input is drawn from one `random.Random(seed)` stream, cycle after cycle,
so a seed always yields the same files in the same order. No instance or sweep
spec repeats within a run: a fresh `transportgames` process never sees a warm
`scaled_view` cache, so a cache kept across calls must not be able to show a
gain here.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from transportgames import _kernel_py, core, engine, families
from transportgames.analysis import load_sweep
from transportgames.simultaneous import find_improving_deviation

# Shapes are fixed per cycle and a run measures whole cycles, so runs of
# different seeds time the same mix; only the drawn instances and orders differ.
# Each shape's call times form a cluster. The twelve slots below put the median
# at the middle of the four (3, 8) draws and the 75th percentile at the middle
# of the two (2, 13) draws, so a burst of slow calls moves neither much.
SIM_SHAPES = ((3, 7), (2, 11), (4, 6), (2, 12)) + ((3, 8),) * 4 + ((2, 13),) * 2 + ((3, 9), (4, 7))  # (m, n)

# Tie-heavy families: zero distances, equal distances, equal permutations.
# The SPE set size varies with the move order by a factor of two or more, so
# the shapes are kept small enough for a run to time several hundred calls.
# The two zero-cluster-far m=2 draws, whose times vary least, hold the 75th
# percentile.
SEQ_SHAPES = (
    ("zero-cluster-far", {"n": 10, "m": 2}),
    ("zero-cluster-far", {"n": 10, "m": 2}),
    ("zero-cluster-far", {"n": 7, "m": 3}),
    ("uniform-star", {"n": 6, "m": 3, "perm_scheme": "identity"}),
    ("uniform-star", {"n": 6, "m": 3, "perm_scheme": "reverse"}),
    ("uniform-star", {"n": 9, "m": 2, "perm_scheme": "identity"}),
    ("uniform-star", {"n": 10, "m": 2, "perm_scheme": "reverse"}),
    ("group-levels", {"k": 1, "m": 3, "pad": 0}),
    ("group-levels", {"k": 2, "m": 2, "pad": 0}),
)

# The (n, m) of the points of each generated sweep spec; every spec has the
# same shapes, so call times vary only with the drawn instances.
SWEEP_POINTS = ((4, 3), (5, 2), (5, 3), (6, 2), (7, 2))

# Rules that always hold: every ratio of an equilibrium value to the optimum is >= 1.
ALWAYS_HOLD_RULES = tuple(
    {"function": tag, "measure": measure, "relation": "ge", "expected": "1"}
    for measure in ("poa", "pos", "spoa", "spos")
    for tag in core.SOCIAL_TAGS
)


@dataclass
class Call:
    """One timed CLI invocation and what is needed to check its output."""

    args: list[str]
    outcomes: int  # sum of m^n over the analysed instances or spec points
    pass_base: int  # m^n summed per analysis unit: per instance, or per (point, rule)
    games: list[tuple[core.Instance, tuple[int, ...] | None]]  # (instance, move order) analysed
    check: Callable[[object], list[str]]


class InputGenerator:
    """Writes one workload's inputs for a seed into `workdir`, cycle by cycle."""

    def __init__(self, workload: str, seed: int, workdir: Path, sweeps_dir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        self.workdir = workdir
        self.shipped = sorted(sweeps_dir.glob("*.json")) if workload == "sweep" else []
        self._used: set = set()
        self._files = 0
        self._generated = 0
        # Cycles written ahead and not yet run; a cycle is dropped once run, so
        # memory does not grow with the number of calls a run makes.
        self._ahead: deque[list[Call]] = deque()
        workdir.mkdir(parents=True, exist_ok=True)
        self.warmup = WORKLOADS[workload](self, -1)

    def write_ahead(self, cycles: int) -> None:
        for _ in range(cycles):
            self._ahead.append(self._generate())

    def next_cycle(self) -> list[Call]:
        return self._ahead.popleft() if self._ahead else self._generate()

    def _generate(self) -> list[Call]:
        self._generated += 1
        return WORKLOADS[self.workload](self, self._generated - 1)

    def new_path(self, suffix: str) -> str:
        """A fresh file name in the work directory."""
        self._files += 1
        return str(self.workdir / f"{self._files:05d}{suffix}")

    def fresh(self, draw: Callable[[], object]):
        """Call `draw` until it returns a value not drawn before in this run."""
        while True:
            value = draw()
            if value not in self._used:
                self._used.add(value)
                return value

    def write_instance(self, inst: core.Instance) -> str:
        path = self.new_path(".json")
        core.save_instance(inst, path)
        return path

    def random_metric_seed(self) -> int:
        return self.fresh(lambda: ("random-metric", self.rng.randrange(2**31)))[1]


def _sim_cycle(gen: InputGenerator, index: int) -> list[Call]:
    shapes = ((2, 4), (3, 3)) if index < 0 else SIM_SHAPES
    calls = []
    for m, n in shapes:
        inst = families.gen_random_metric(n, m, gen.random_metric_seed())
        path = gen.write_instance(inst)
        calls.append(
            Call(
                ["analyze", path, "--mode", "simultaneous", "--format", "json"],
                m**n,
                m**n,
                [(inst, None)],
                lambda result, inst=inst: check_analyze(inst, None, result),
            )
        )
    return calls


def _seq_params(gen: InputGenerator, family: str, shape: dict) -> dict:
    def draw():
        params = dict(shape)
        if family == "group-levels":
            params["a"] = Fraction(gen.rng.randint(129, 1280), 64)
        else:
            params["epsilon"] = Fraction(gen.rng.randint(1, 2000), 1000)
        return (family, tuple(sorted(params.items())))

    return dict(gen.fresh(draw)[1])


def _seq_cycle(gen: InputGenerator, index: int) -> list[Call]:
    shapes = (("zero-cluster-far", {"n": 4, "m": 2}), ("uniform-star", {"n": 3, "m": 3})) if index < 0 else SEQ_SHAPES
    calls = []
    for family, shape in shapes:
        inst = families.build_family(family, _seq_params(gen, family, shape))
        order = list(range(1, inst.n + 1))
        gen.rng.shuffle(order)
        order_t = tuple(order)
        path = gen.write_instance(inst)
        calls.append(
            Call(
                ["analyze", path, "--mode", "sequential", "--order", ",".join(map(str, order)), "--format", "json"],
                inst.m**inst.n,
                inst.m**inst.n,
                [(inst, order_t)],
                lambda result, inst=inst, order_t=order_t: check_analyze(inst, order_t, result),
            )
        )
    return calls


def _sweep_call(path: str, family: str, points: list[dict], rules: int, always_hold: bool) -> Call:
    insts = [families.build_family(family, point) for point in points]
    outcomes = sum(inst.m**inst.n for inst in insts)
    return Call(
        ["verify-bounds", "--spec", path, "--format", "json"],
        outcomes,
        outcomes * rules,
        [(inst, None) for inst in insts],
        lambda result: check_sweep(len(points), rules, always_hold, result),
    )


def _sweep_cycle(gen: InputGenerator, index: int) -> list[Call]:
    shape = ((3, 2), (4, 2)) if index < 0 else SWEEP_POINTS
    points = [{"n": n, "m": m, "seed": gen.random_metric_seed()} for n, m in shape]
    spec = {"family": "random-metric", "points": points, "bounds": list(ALWAYS_HOLD_RULES)}
    path = gen.new_path(".spec.json")
    Path(path).write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    calls = [_sweep_call(path, "random-metric", points, len(ALWAYS_HOLD_RULES), True)]
    # Each shipped spec runs once per run, in one of the first cycles: a spec
    # that repeated would meet its own instances in the scaled_view cache.
    if 0 <= index < len(gen.shipped):
        shipped = load_sweep(gen.shipped[index])
        points = [dict(point) for point in shipped.points]
        calls.append(_sweep_call(str(gen.shipped[index]), shipped.family, points, len(shipped.rules), False))
    return calls


WORKLOADS: dict[str, Callable[[InputGenerator, int], list[Call]]] = {
    "sim-random": _sim_cycle,
    "seq-ties": _seq_cycle,
    "sweep": _sweep_cycle,
}


# ---------------------------------------------------------------------------
# Correctness checks. They run after each call, outside the timed region, and
# return a list of problems; any problem makes the call count as failed.
# ---------------------------------------------------------------------------


def _frac(value: str | None) -> Fraction | None:
    return None if value is None else Fraction(value)


def check_analyze(inst: core.Instance, order: tuple[int, ...] | None, result) -> list[str]:
    """Definitional checks of an `analyze --format json` report."""
    if result.exit_code != 0 or result.exception is not None:
        return [f"exit code {result.exit_code}: {result.exception!r}"]
    doc = json.loads(result.stdout)
    problems = []
    if doc["digest"] != core.instance_digest(inst):
        problems.append("digest does not match the instance")
    if doc["order"] != (list(order) if order is not None else None):
        problems.append(f"order {doc['order']} != {order}")
    nash = order is None
    for block in doc["functions"]:
        tag = block["function"]
        optimal = Fraction(block["optimal_value"])
        if core.social_cost(inst, block["optimal_witness"], tag) != optimal:
            problems.append(f"{tag}: optimal witness does not recompute to {optimal}")
        if block["equilibrium_count"] == 0:
            if "NoEquilibrium" not in block["errors"]:
                problems.append(f"{tag}: empty equilibrium set without a NoEquilibrium marker")
            continue
        low, high = _frac(block["min_equilibrium_value"]), _frac(block["max_equilibrium_value"])
        for value, witness in ((low, block["best_witness"]), (high, block["worst_witness"])):
            if core.social_cost(inst, witness, tag) != value:
                problems.append(f"{tag}: witness {witness} does not recompute to {value}")
            if nash and find_improving_deviation(inst, witness) is not None:
                problems.append(f"{tag}: witness {witness} has an improving deviation")
        if not optimal <= low <= high:
            problems.append(f"{tag}: not optimal <= min <= max ({optimal}, {low}, {high})")
        if optimal == 0:
            expected = (None, None)
        else:
            expected = (low / optimal, high / optimal)
        if (_frac(block["best_ratio"]), _frac(block["worst_ratio"])) != expected:
            problems.append(f"{tag}: ratios are not value / optimal")
    return problems


def check_sweep(points: int, rules: int, always_hold: bool, result) -> list[str]:
    """Row count, exit status and error rows of a `verify-bounds --format json` run."""
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        return [f"raised {result.exception!r}"]
    doc = json.loads(result.stdout)
    rows = doc["rows"]
    problems = []
    if len(rows) != points * rules:
        problems.append(f"{len(rows)} rows, expected {points} x {rules}")
    all_passed = all(row["passed"] is True for row in rows)
    if doc["all_passed"] != all_passed or result.exit_code != (0 if all_passed else 1):
        problems.append(f"exit code {result.exit_code} with all_passed={doc['all_passed']}")
    for row in rows:
        if row["error"] is not None:
            # A missing equilibrium is data; any other error is a defect.
            if not row["error"].startswith("NoEquilibriumError"):
                problems.append(f"error row: {row['error']}")
        elif always_hold and row["passed"] is not True:
            problems.append(f"always-true rule failed: {row}")
    return problems


def backend_counts(games) -> Counter:
    """Which backend `auto` selects for each analysed instance."""
    return Counter(engine.backend_name(engine.resolve_backend(engine.scaled_view(inst))) for inst, _ in games)


def backend_disagreements(inst: core.Instance, order: tuple[int, ...] | None) -> list[str]:
    """Compare the pure and compiled kernels on one game, when both can run."""
    view = engine.scaled_view(inst)
    if engine._kernel_c is None or not view.fits_int64():
        return []
    n, m, dist, perms = view.n, view.m, view.dist, view.perms
    order0 = tuple(p - 1 for p in order) if order is not None else tuple(range(n))
    cases = [("scan_nash", (n, m, dist, perms, 2, m, True))]
    cases += [("scan_social", (n, m, dist, perms, fcode, m)) for fcode in range(3)]
    cases += [("spe_codes", (n, m, dist, perms, order0, 10**7)), ("zermelo_code", (n, m, dist, perms, order0))]
    problems = []
    for name, args in cases:
        if _plain(getattr(_kernel_py, name)(*args)) != _plain(getattr(engine._kernel_c, name)(*args)):
            problems.append(f"backends disagree on {name}")
    return problems


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value
