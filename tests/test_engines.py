"""Scaled integer views, and the kernels against definitional references."""

import ast
import random
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

import transportgames as tg
from transportgames import _kernel_py
from transportgames.engine import scaled_view

from support import NE_FREE, random_instance, tie_instance, zermelo_reference


# Parameters for every registered family; the test below fails if a new
# family is registered without an entry here.
FAMILY_PARAMS = {
    "five-chain": [{}],
    "four-line": [{}],
    "nonmetric-spike": [{"x": "7/3"}, {"x": 10}],
    "uniform-star": [{"n": 4, "m": 2, "epsilon": "1/8", "perm_scheme": "reverse"}, {"n": 3, "m": 3, "epsilon": 2}],
    "group-levels": [{"k": 2, "m": 2, "a": "7/2", "pad": 1}, {"k": 1, "m": 3, "a": 10}],
    "zero-cluster-far": [{"n": 5, "m": 2, "epsilon": "1/10"}, {"n": 4, "m": 3, "epsilon": 0}],
    "zero-cluster-single": [{"n": 4}],
    "random-metric": [{"n": 5, "m": 3, "seed": seed} for seed in range(6)]
    + [{"n": 7, "m": 2, "seed": 9, "low": 0, "high": 30, "max_denominator": 30}],
}


def recomputed_view(inst):
    """Independent scaled view: lcm by gcd, entries by exact multiplication."""
    scale = 1
    for row in inst.dist:
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
    dist = tuple(int(x * scale) for row in inst.dist for x in row)
    perms = tuple(p - 1 for perm in inst.perms for p in perm)
    return scale, dist, perms


class TestScaledView:
    def test_matches_recomputation_for_every_family(self):
        assert set(FAMILY_PARAMS) == set(tg.FAMILIES)
        for tag, param_sets in FAMILY_PARAMS.items():
            for params in param_sets:
                inst = tg.build_family(tag, params)
                view = scaled_view(inst)
                assert (view.scale, view.dist, view.perms) == recomputed_view(inst), (tag, params)

    def test_lead_is_one_exactly_when_the_buses_share_an_order(self):
        for tag, param_sets in FAMILY_PARAMS.items():
            for params in param_sets:
                inst = tg.build_family(tag, params)
                expected = inst.m if tag == "random-metric" else 1
                assert scaled_view(inst).lead == expected, (tag, params)
        assert scaled_view(NE_FREE).lead == NE_FREE.m

    def test_common_denominator(self):
        inst = tg.gen_zero_cluster_far(4, 2, F(1, 10))
        view = scaled_view(inst)
        assert view.scale == 10
        assert view.to_fraction(21) == F(21, 10)
        assert len(view.dist) == 25

    def test_big_values_stay_exact(self):
        huge = 2**70
        inst = tg.Instance(1, 2, ((0, huge), (huge, 0)), ((1,), (1,)))
        assert max(scaled_view(inst).dist) == huge
        assert tg.optimal_social(inst, "U")[0] == huge


ALL = (0, 1, 2)  # D, E, U


def test_only_engine_imports_the_kernel():
    package = Path(tg.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any("_kernel_py" in name.split(".") for name in names):
                importers.add(path.name)
    assert importers == {"engine.py"}


def kernel_games():
    """Random and tie-heavy games of at most 4 players and 3 buses, and one
    without a Nash equilibrium."""
    rng = random.Random(7)
    games = [random_instance(rng, metric=bool(i % 2)) for i in range(10)]
    return games + [tie_instance(rng) for _ in range(14)] + [NE_FREE]


def definitional_values(inst):
    """(code, outcome, (D, E, U)) for every outcome; codes are lexicographic ranks."""
    return [
        (code, sigma, tuple(tg.social_cost(inst, sigma, tag) for tag in tg.SOCIAL_TAGS))
        for code, sigma in enumerate(tg.enumerate_outcomes(inst))
    ]


def definitional_stats(rows, fcodes):
    """Per code in `fcodes`: (min, argmin, max, argmax) over `rows`, ties to
    the earliest code; (0, -1, 0, -1) over no rows."""
    stats = []
    for f in fcodes:
        if not rows:
            stats.append((0, -1, 0, -1))
            continue
        low = min(rows, key=lambda row: row[2][f])
        high = max(rows, key=lambda row: (row[2][f], -row[0]))
        stats.append((low[2][f], low[0], high[2][f], high[0]))
    return tuple(stats)


def as_fractions(stats, scale):
    """Kernel statistics with their scaled integer values read as `Fraction`s."""
    return tuple(tuple(F(v, scale) if i % 2 == 0 else v for i, v in enumerate(entry)) for entry in stats)


@pytest.mark.parametrize("inst", kernel_games())
class TestKernelAgainstDefinitions:
    def test_scan_nash(self, inst):
        view = scaled_view(inst)
        args = (view.n, view.m, view.dist, view.perms)
        rows = definitional_values(inst)
        nash = [row for row in rows if tg.find_improving_deviation(inst, row[1]) is None]
        codes, count, optimum, kept = _kernel_py.scan_nash(*args, ALL, view.m, True)
        assert codes == [row[0] for row in nash]
        assert count == len(nash)
        assert as_fractions(kept, view.scale) == definitional_stats(nash, ALL)
        assert as_fractions(optimum, view.scale) == tuple(stats[:2] for stats in definitional_stats(rows, ALL))
        for fcodes in (ALL, (2,), ()):
            for collect in (True, False):
                picked = (tuple(optimum[f] for f in fcodes), tuple(kept[f] for f in fcodes))
                assert _kernel_py.scan_nash(*args, fcodes, view.m, collect) == (
                    codes if collect else None, count, *picked
                ), (fcodes, collect)

    def test_scan_social(self, inst):
        view = scaled_view(inst)
        args = (view.n, view.m, view.dist, view.perms)
        full = _kernel_py.scan_social(*args, ALL, view.m)
        assert as_fractions(full, view.scale) == definitional_stats(definitional_values(inst), ALL)
        assert _kernel_py.scan_social(*args, (2,), view.m) == full[2:]
        assert _kernel_py.scan_social(*args, (), view.m) == ()

    def test_zermelo_outcome(self, inst):
        rng = random.Random(inst.n * 10 + inst.m)
        orders = [tuple(range(1, inst.n + 1))] + [tuple(rng.sample(range(1, inst.n + 1), inst.n)) for _ in range(3)]
        for order in orders:
            assert tg.zermelo_outcome(inst, order)[0] == zermelo_reference(inst, order), order
