"""The one-pass analysis core against the definitions it replaces.

`analyze`, the ratio functions and `run_verify_bounds` read integer summaries
built by one kernel pass per mode. These tests recompute every reported
quantity from the definitions: all outcomes from `enumerate_outcomes`, values
from `core.social_cost`, Nash equilibria from `find_improving_deviation` and
SPE outcomes from the brute-force `support.spe_oracle`. Ties go to the
lexicographically first outcome on both sides.
"""

import random
from fractions import Fraction as F
from itertools import permutations

import pytest

import transportgames as tg
from transportgames import _kernel_py
from transportgames.analysis import FunctionReport, SweepRow, eval_bound_expr, sweep_from_dict
from transportgames.core import to_fraction
from transportgames.engine import FCODES, scaled_view
from transportgames.families import FAMILIES, Family, FamilyParam
from transportgames.sequential import spe_summary
from transportgames.simultaneous import nash_summary

from support import NE_FREE, random_instance, spe_oracle, tie_instance


def reference_block(inst, tag, kept):
    """One report block from the definitions; `kept` is the equilibrium set in lexicographic order."""
    outcomes = list(tg.enumerate_outcomes(inst))
    values = [tg.social_cost(inst, sigma, tag) for sigma in outcomes]
    optimal = min(values)
    block = dict(
        function=tag,
        optimal_value=optimal,
        optimal_witness=outcomes[values.index(optimal)],
        equilibrium_count=len(kept),
        min_equilibrium_value=None,
        max_equilibrium_value=None,
        best_ratio=None,
        worst_ratio=None,
        best_witness=None,
        worst_witness=None,
    )
    errors = []
    if not kept:
        errors.append("NoEquilibrium")
    else:
        kept_values = [tg.social_cost(inst, sigma, tag) for sigma in kept]
        low, high = min(kept_values), max(kept_values)
        block.update(
            min_equilibrium_value=low,
            max_equilibrium_value=high,
            best_witness=kept[kept_values.index(low)],
            worst_witness=kept[kept_values.index(high)],
        )
    if optimal == 0:
        errors.append("DegenerateOptimum")
    elif kept:
        block.update(best_ratio=low / optimal, worst_ratio=high / optimal)
    return FunctionReport(errors=tuple(errors), **block)


def nash_by_definition(inst):
    return [sigma for sigma in tg.enumerate_outcomes(inst) if tg.find_improving_deviation(inst, sigma) is None]


def all_zero(n, m):
    zero = tuple(tuple(F(0) for _ in range(n + 1)) for _ in range(n + 1))
    return tg.Instance(n, m, zero, tuple(tuple(range(1, n + 1)) for _ in range(m)))


def simultaneous_pool():
    pool = [NE_FREE, all_zero(2, 2), all_zero(3, 3), tg.gen_five_chain(), tg.gen_four_line()]
    for n, m in ((3, 2), (4, 2), (4, 3), (5, 2)):
        for eps in (0, F(1, 2), 1, 2):
            pool.append(tg.gen_zero_cluster_far(n, m, eps))
    for n, m in ((2, 3), (3, 2), (3, 3), (4, 2)):
        for eps in (F(1, 4), 1, 2, 3):
            for scheme in ("identity", "reverse"):
                pool.append(tg.gen_uniform_star(n, m, eps, scheme))
    rng = random.Random(2024)
    pool += [tie_instance(rng) for _ in range(40)]
    pool += [random_instance(rng, metric=bool(i % 2)) for i in range(20)]
    return pool


def sequential_pool():
    """Games small enough for the strategy-profile oracle, each with a random move order."""
    pool = [NE_FREE, all_zero(3, 2), all_zero(2, 3), tg.gen_zero_cluster_single(2)]
    for eps in (0, F(1, 2), 2):
        pool.append(tg.gen_zero_cluster_far(3, 2, eps))
    for n, m in ((2, 3), (3, 2)):
        for eps in (F(1, 4), 2, 3):
            for scheme in ("identity", "reverse"):
                pool.append(tg.gen_uniform_star(n, m, eps, scheme))
    rng = random.Random(99)
    pool += [tie_instance(rng, max_n=3, max_m=2) for _ in range(25)]
    pool += [tie_instance(rng, max_n=2, max_m=3) for _ in range(10)]
    games = []
    for inst in pool:
        order = list(range(1, inst.n + 1))
        rng.shuffle(order)
        games.append((inst, tuple(order)))
    return games


class TestAnalyzeAgainstDefinitions:
    @pytest.mark.parametrize("inst", simultaneous_pool())
    def test_simultaneous(self, inst):
        report = tg.analyze(inst, "simultaneous")
        kept = nash_by_definition(inst)
        assert report.functions == tuple(reference_block(inst, tag, kept) for tag in tg.SOCIAL_TAGS)

    @pytest.mark.parametrize("inst, order", sequential_pool())
    def test_sequential(self, inst, order):
        report = tg.analyze(inst, "sequential", order=order)
        kept = list(spe_oracle(inst, order=order).outcomes)
        assert report.functions == tuple(reference_block(inst, tag, kept) for tag in tg.SOCIAL_TAGS)
        assert report.order == order

    def test_pools_hold_ties_and_both_markers(self):
        reports = [tg.analyze(inst, "simultaneous") for inst in simultaneous_pool()]
        errors = {error for report in reports for block in report.functions for error in block.errors}
        assert errors == {"NoEquilibrium", "DegenerateOptimum"}
        # Ties: some equilibrium set holds two outcomes of one value.
        assert any(
            len(set(tg.social_cost(inst, sigma, "U") for sigma in nash_by_definition(inst)))
            < len(nash_by_definition(inst))
            for inst in simultaneous_pool()[:12]
        )

    @pytest.mark.parametrize("inst", simultaneous_pool()[:20])
    def test_ratio_views_match_report(self, inst):
        report = tg.analyze(inst, "simultaneous")
        for block in report.functions:
            if block.errors:
                continue
            worst, best = tg.poa(inst, block.function), tg.pos(inst, block.function)
            assert (worst.ratio, worst.equilibrium_witness) == (block.worst_ratio, block.worst_witness)
            assert (best.ratio, best.equilibrium_witness) == (block.best_ratio, block.best_witness)
            assert worst.optimal_witness == block.optimal_witness


class TestSymmetryReduction:
    def test_first_orbit_member_has_player_one_on_bus_one(self):
        for n, m in ((1, 2), (3, 2), (3, 3), (4, 3)):
            for sigma in tg.enumerate_outcomes(all_zero(n, m)):
                orbit = [tuple(relabel[b - 1] for b in sigma) for relabel in permutations(range(1, m + 1))]
                assert min(orbit)[0] == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_reduced_scan_gives_identical_summary(self, seed):
        inst = tie_instance(random.Random(seed))
        inst = tg.Instance(inst.n, inst.m, inst.dist, (inst.perms[0],) * inst.m)
        view = scaled_view(inst)
        assert view.lead == 1
        full = _kernel_py.scan_nash(view.n, view.m, view.dist, view.perms, FCODES, view.m, False)
        summary = nash_summary(inst)
        assert (summary.count, summary.optimum, summary.kept) == full[1:]  # count, optimum, kept
        assert spe_summary(inst).optimum == full[2]


class TestOutcomeSets:
    """Set extremes come from the kernel's integer statistics; here they are
    recomputed as the first min and max over `.outcomes` by `core.social_cost`."""

    @staticmethod
    def check_extremes(inst, found):
        outcomes = found.outcomes
        assert list(outcomes) == sorted(set(outcomes))
        for tag in tg.SOCIAL_TAGS:
            values = [tg.social_cost(inst, sigma, tag) for sigma in outcomes]
            low, high = min(values), max(values)
            assert found.min_social(tag) == (low, outcomes[values.index(low)])
            assert found.max_social(tag) == (high, outcomes[values.index(high)])

    @pytest.mark.parametrize("seed", range(30))
    def test_extremes_match_definitions(self, seed):
        rng = random.Random(seed)
        inst, small = tie_instance(rng), tie_instance(rng, max_n=3, max_m=2)  # small: oracle-sized
        order, small_order = rng.sample(range(1, inst.n + 1), inst.n), rng.sample(range(1, small.n + 1), small.n)
        nash = tg.enumerate_nash(inst)
        assert nash.outcomes == tuple(nash_by_definition(inst))
        if nash:
            self.check_extremes(inst, nash)
        self.check_extremes(inst, tg.spe_outcomes(inst, order))
        self.check_extremes(small, spe_oracle(small, small_order))

    def test_extremes_on_ne_free(self):
        assert not tg.enumerate_nash(NE_FREE)
        self.check_extremes(NE_FREE, tg.spe_outcomes(NE_FREE))
        self.check_extremes(NE_FREE, spe_oracle(NE_FREE, (3, 1, 2)))

    def test_seeds_hold_tied_extremes(self):
        """Some set holds two outcomes at its max, so the witness rule is exercised."""
        tied = 0
        for seed in range(30):
            inst = tie_instance(random.Random(seed))
            found = tg.spe_outcomes(inst)
            values = [tg.social_cost(inst, sigma, "E") for sigma in found]
            tied += values.count(max(values)) > 1
        assert tied >= 5


# ---------------------------------------------------------------------------
# Sweeps: rows built from per-point summaries equal rows recomputed per rule.
# ---------------------------------------------------------------------------

RATIO_FUNCTIONS = {"poa": tg.poa, "pos": tg.pos, "spoa": tg.spoa, "spos": tg.spos}
ROW_ERRORS = (tg.BudgetExceededError, tg.NoEquilibriumError, tg.DegenerateOptimumError, tg.SetOverflowError, ValueError)


def rows_per_rule(spec, budget, node_set_cap):
    """The sweep rows, recomputing every rule through the public ratio functions."""
    rows = []
    for point in spec.points:
        items = tuple(sorted(point.items()))
        try:
            inst = tg.build_family(spec.family, point)
        except (tg.ParameterDomainError, ValueError) as exc:
            rows += [SweepRow(items, r.function, r.measure, None, r.describe(), None, str(exc)) for r in spec.rules]
            continue
        env = {name: to_fraction(value) for name, value in point.items()}
        env.setdefault("n", F(inst.n))
        env.setdefault("m", F(inst.m))
        for rule in spec.rules:
            measured = passed = error = None
            kwargs = {"budget": budget}
            if rule.measure.startswith("sp"):
                kwargs["node_set_cap"] = node_set_cap
            try:
                measured = RATIO_FUNCTIONS[rule.measure](inst, rule.function, **kwargs).ratio
                passed = measured >= eval_bound_expr(rule.expected, env)
            except ROW_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}"
            rows.append(SweepRow(items, rule.function, rule.measure, measured, rule.describe(), passed, error))
    return tuple(rows)


@pytest.fixture
def tie_family(monkeypatch):
    """A sweepable family of tie-heavy games; seed -1 is a game without Nash equilibria."""

    def build(seed):
        return NE_FREE if seed < 0 else tie_instance(random.Random(seed))

    def shape(seed):
        inst = build(seed)
        return inst.n, inst.m

    monkeypatch.setitem(FAMILIES, "ties", Family("ties", shape, (FamilyParam("seed", "int"),), build))


# A sequential rule first builds the SPE summary with its own optimum pass;
# a Nash rule first lets the SPE summary reuse the Nash optimum.
@pytest.mark.parametrize("measures", [("spos", "poa", "pos", "spoa"), ("poa", "pos", "spoa", "spos")])
@pytest.mark.parametrize("budget, node_set_cap", [(10**7, 10**6), (30, 3)])
def test_sweep_rows_equal_per_rule_recomputation(tie_family, measures, budget, node_set_cap):
    rules = [
        {"function": tag, "measure": measure, "relation": "ge", "expected": "1"}
        for measure in measures
        for tag in tg.SOCIAL_TAGS
    ]
    spec = sweep_from_dict({"family": "ties", "points": [{"seed": s} for s in range(-1, 40)], "bounds": rules})
    result = tg.run_verify_bounds(spec, budget=budget, node_set_cap=node_set_cap)
    assert result.rows == rows_per_rule(spec, budget, node_set_cap)
    kinds = {row.error.split(":")[0] for row in result.rows if row.error is not None}
    expected = {"NoEquilibriumError", "DegenerateOptimumError"}
    if budget < 10**7:
        expected |= {"BudgetExceededError", "SetOverflowError"}
    assert expected <= kinds


def test_sweep_bad_point_rows_unchanged():
    spec = sweep_from_dict(
        {
            "family": "uniform-star",
            "points": [{"n": 3, "m": 2, "epsilon": 0}, {"n": 3, "m": 2, "epsilon": 2}],
            "bounds": [{"function": "E", "measure": m, "relation": "ge", "expected": "1"} for m in RATIO_FUNCTIONS],
        }
    )
    assert tg.run_verify_bounds(spec).rows == rows_per_rule(spec, 10**7, 10**6)


@pytest.mark.parametrize("node_set_cap", [10**6, 1])
def test_sweep_builds_each_summary_once_per_point(monkeypatch, node_set_cap):
    """One Nash pass and one SPE induction per point, the SPE summary reusing
    the Nash optimum; an SPE induction that overflows is not retried."""
    from transportgames import _kernel_py

    calls = {"scan_nash": 0, "scan_social": 0, "spe_codes": 0}
    for name in calls:
        original = getattr(_kernel_py, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(_kernel_py, name, counted)
    rules = [
        {"function": tag, "measure": measure, "relation": "ge", "expected": "1"}
        for measure in RATIO_FUNCTIONS
        for tag in tg.SOCIAL_TAGS
    ]
    points = [{"n": 3, "m": 2, "epsilon": 2, "perm_scheme": "reverse"}, {"n": 4, "m": 2, "epsilon": 1}]
    spec = sweep_from_dict({"family": "uniform-star", "points": points, "bounds": rules})
    result = tg.run_verify_bounds(spec, node_set_cap=node_set_cap)
    assert calls == {"scan_nash": 2, "scan_social": 0, "spe_codes": 2}
    overflowed = [row for row in result.rows if row.error is not None]
    assert all(row.error.startswith("SetOverflowError") for row in overflowed)
    assert len(overflowed) == (0 if node_set_cap > 1 else 2 * 2 * 3)
