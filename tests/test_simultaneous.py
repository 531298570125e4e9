"""Simultaneous game: enumeration, Nash filtering, optima, and price ratios."""

import random
from fractions import Fraction as F

import pytest

import transportgames as tg
from transportgames.engine import check_budget

from support import NE_FREE, random_instance


def all_zero(n, m):
    return tg.Instance(n, m, tuple(tuple(F(0) for _ in range(n + 1)) for _ in range(n + 1)),
                       tuple(tuple(range(1, n + 1)) for _ in range(m)))


def definitional_optimum(inst, function):
    """Minimum social value and its lexicographically first minimizer, by enumeration."""
    outcomes = list(tg.enumerate_outcomes(inst))
    values = [tg.social_cost(inst, sigma, function) for sigma in outcomes]
    return min(values), outcomes[values.index(min(values))]


class TestEnumeration:
    def test_two_by_two(self):
        inst = all_zero(2, 2)
        assert list(tg.enumerate_outcomes(inst)) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_count(self):
        assert sum(1 for _ in tg.enumerate_outcomes(tg.gen_five_chain())) == 32

    def test_budget_checked_eagerly(self):
        inst = all_zero(30, 3)
        with pytest.raises(tg.BudgetExceededError):
            tg.enumerate_outcomes(inst)  # 3^30 over the default cap

    def test_space_size(self):
        assert tg.outcome_space_size(all_zero(4, 3)) == 81

    @pytest.mark.parametrize(
        "n, m, budget, message",
        [
            (5, 2, 32, None),
            (5, 2, 31, "2^5 = 32 outcomes exceed the budget of 31"),
            (100, 3, 3**100, None),
            (14280, 2, 10**7, f"2^14280 = {2**14280} outcomes exceed the budget of 10000000"),  # 4,299 digits
            (14300, 2, 10**7, "2^14300 outcomes exceed the budget of 10000000"),  # 4,305 digits
            (10**9, 40, 10**7, "40^1000000000 outcomes exceed the budget of 10000000"),
            (10**400, 2, 10**7, f"2^{10**400} outcomes exceed the budget of 10000000"),
        ],
        ids=["at-budget", "over-budget", "huge-budget", "long-count", "too-long-count", "not-computed", "n-past-float"],
    )
    def test_budget_check_and_text(self, n, m, budget, message):
        if message is None:
            check_budget(n, m, budget)
        else:
            with pytest.raises(tg.BudgetExceededError) as exc:
                check_budget(n, m, budget)
            assert str(exc.value) == message


class TestNashCheck:
    def test_five_chain_deviation(self):
        inst = tg.gen_five_chain()
        dev = tg.find_improving_deviation(inst, (1, 1, 1, 2, 1))
        assert dev == tg.Deviation(player=1, bus=2, old_cost=F(14), new_cost=F(4))
        assert not tg.is_nash_equilibrium(inst, (1, 1, 1, 2, 1))

    def test_five_chain_equilibrium(self):
        inst = tg.gen_five_chain()
        assert tg.is_nash_equilibrium(inst, (2, 1, 1, 2, 1))

    def test_single_player_always_equilibrium(self):
        inst = tg.Instance(1, 3, ((0, 4), (4, 0)), ((1,), (1,), (1,)))
        for sigma in tg.enumerate_outcomes(inst):
            assert tg.is_nash_equilibrium(inst, sigma)


class TestEnumerateNash:
    def test_five_chain_contains_known_equilibrium(self):
        found = tg.enumerate_nash(tg.gen_five_chain())
        assert found.contains((2, 1, 1, 2, 1))

    def test_spike_alone_player(self):
        inst = tg.gen_nonmetric_spike(10)
        lonely = [sigma for sigma in tg.enumerate_nash(inst) if sigma[0] not in (sigma[1], sigma[2])]
        assert lonely and all(tg.player_cost_total(inst, sigma) == 10 for sigma in lonely)

    def test_all_zero_all_equilibria(self):
        inst = all_zero(3, 2)
        assert len(tg.enumerate_nash(inst)) == 8

    def test_matches_definition_filter(self):
        rng = random.Random(5)
        for _ in range(25):
            inst = random_instance(rng)
            via_engine = tg.enumerate_nash(inst).outcomes
            via_definition = tuple(s for s in tg.enumerate_outcomes(inst) if tg.is_nash_equilibrium(inst, s))
            assert via_engine == via_definition

    def test_equilibrium_free_instance(self):
        assert len(tg.enumerate_nash(NE_FREE)) == 0
        assert all(not tg.is_nash_equilibrium(NE_FREE, s) for s in tg.enumerate_outcomes(NE_FREE))

    def test_budget(self):
        with pytest.raises(tg.BudgetExceededError):
            tg.enumerate_nash(tg.gen_five_chain(), budget=10)


class TestOptimalSocial:
    def test_four_line_worst_cost(self):
        value, witness = tg.optimal_social(tg.gen_four_line(), "E")
        assert value == 3
        assert tg.worst_player_cost(tg.gen_four_line(), witness) == 3

    def test_spike_unit_optimum(self):
        inst = tg.gen_nonmetric_spike(10)
        for tag in ("U", "E", "D"):
            assert tg.optimal_social(inst, tag)[0] == 1

    def test_far_cluster_sum(self):
        assert tg.optimal_social(tg.gen_zero_cluster_far(4, 2, F(1, 10)), "U")[0] == F(21, 10)

    def test_matches_definition(self):
        rng = random.Random(11)
        for _ in range(12):
            inst = random_instance(rng)
            for function in tg.SOCIAL_TAGS:
                assert tg.optimal_social(inst, function) == definitional_optimum(inst, function), (inst, function)

    def test_witness_is_lexicographically_smallest(self):
        inst = all_zero(2, 2)
        assert tg.optimal_social(inst, "U")[1] == (1, 1)

    def test_unknown_function(self):
        with pytest.raises(ValueError):
            tg.optimal_social(tg.gen_four_line(), "Q")


class TestRatios:
    def test_spike_unbounded_anarchy(self):
        report = tg.poa(tg.gen_nonmetric_spike(10), "U")
        assert report.ratio == 10
        assert report.measure == "PoA"
        assert tg.is_nash_equilibrium(tg.gen_nonmetric_spike(10), report.equilibrium_witness)

    def test_far_cluster_stability(self):
        report = tg.pos(tg.gen_zero_cluster_far(4, 2, F(1, 10)), "U")
        assert report.ratio == F(20, 7)
        assert report.equilibrium_value == 6
        assert report.optimal_value == F(21, 10)

    def test_poa_at_least_pos(self):
        rng = random.Random(9)
        checked = 0
        for _ in range(30):
            inst = random_instance(rng, metric=True, zero_ok=False)
            try:
                worst = tg.poa(inst, "U")
                best = tg.pos(inst, "U")
            except (tg.NoEquilibriumError, tg.DegenerateOptimumError):
                continue
            assert worst.ratio >= best.ratio >= 1
            checked += 1
        assert checked >= 10

    def test_no_equilibrium_error(self):
        with pytest.raises(tg.NoEquilibriumError):
            tg.poa(NE_FREE, "U")

    def test_degenerate_optimum_error(self):
        inst = all_zero(2, 2)
        with pytest.raises(tg.DegenerateOptimumError):
            tg.poa(inst, "U")
        with pytest.raises(tg.DegenerateOptimumError):
            tg.pos(inst, "U")


def shared_order(inst):
    """`inst` with every bus using bus 1's pickup order."""
    return tg.Instance(inst.n, inst.m, inst.dist, (inst.perms[0],) * inst.m, inst.declared_metric)


SHARED_ORDER_GAMES = [
    tg.gen_uniform_star(3, 3, 2, "identity"),
    tg.gen_uniform_star(4, 2, F(1, 8), "reverse"),
    tg.gen_zero_cluster_far(4, 2, F(1, 10)),
    tg.gen_zero_cluster_far(4, 3, 0),
    tg.gen_group_levels(1, 3, 10),
    tg.gen_five_chain(),
]


def definitional_ratio(inst, function, worst):
    """(ratio, equilibrium witness, optimal witness) from the definitions, ties to the first outcome."""
    nash = [sigma for sigma in tg.enumerate_outcomes(inst) if tg.find_improving_deviation(inst, sigma) is None]
    values = [tg.social_cost(inst, sigma, function) for sigma in nash]
    value = max(values) if worst else min(values)
    optimal_value, optimal_witness = definitional_optimum(inst, function)
    return value / optimal_value, nash[values.index(value)], optimal_witness


class TestSymmetryReduction:
    """Games whose buses share one pickup order, where the scans cover only
    the outcomes with player 1 on bus 1."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equilibrium_set_unchanged(self, seed):
        inst = shared_order(random_instance(random.Random(seed), metric=True))
        expected = [sigma for sigma in tg.enumerate_outcomes(inst) if tg.find_improving_deviation(inst, sigma) is None]
        assert tg.enumerate_nash(inst).outcomes == tuple(expected)

    def test_optimum_value_unchanged(self):
        for inst in SHARED_ORDER_GAMES:
            for function in tg.SOCIAL_TAGS:
                assert tg.optimal_social(inst, function) == definitional_optimum(inst, function), (inst, function)

    def test_ratio_unchanged(self):
        for inst in SHARED_ORDER_GAMES:
            for function in tg.SOCIAL_TAGS:
                for worst, ratio in ((True, tg.poa), (False, tg.pos)):
                    report = ratio(inst, function)
                    got = (report.ratio, report.equilibrium_witness, report.optimal_witness)
                    assert got == definitional_ratio(inst, function, worst), (inst, function, worst)
