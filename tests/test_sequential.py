"""Sequential game: SPE outcome sets, deterministic induction, the profile
oracle, and the sequential ratios."""

import random
import re
from fractions import Fraction as F

import pytest

import transportgames as tg

from support import random_instance


class TestSpeOutcomes:
    def test_four_line_membership(self):
        inst = tg.gen_four_line()
        spe = tg.spe_outcomes(inst)
        assert spe.contains((1, 1, 2, 1))
        assert (1, 1, 2, 1) in spe.outcomes
        assert tg.cost_vector(inst, (1, 1, 2, 1)) == (F(5), F(4), F(2), F(1))

    def test_spike_costs_forced(self):
        for x in (10, 100):
            inst = tg.gen_nonmetric_spike(x)
            spe = tg.spe_outcomes(inst)
            assert {tg.cost_vector(inst, sigma) for sigma in spe} == {(F(x), F(0), F(0))}

    def test_star_identity_pile_up(self):
        inst = tg.gen_uniform_star(3, 3, 2, "identity")
        spe = tg.spe_outcomes(inst)
        assert spe.contains((1, 1, 1))
        assert (1, 1, 1) in spe.outcomes
        assert tg.worst_player_cost(inst, (1, 1, 1)) == 5

    def test_never_empty(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = random_instance(rng)
            assert len(tg.spe_outcomes(inst)) >= 1

    def test_set_overflow_guard(self):
        inst = tg.gen_zero_cluster_single(3)  # all 27 outcomes survive
        with pytest.raises(tg.SetOverflowError):
            tg.spe_outcomes(inst, node_set_cap=5)

    def test_budget_guard(self):
        with pytest.raises(tg.BudgetExceededError):
            tg.spe_outcomes(tg.gen_four_line(), budget=3)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            tg.spe_outcomes(tg.gen_four_line(), order=(1, 2, 3))
        with pytest.raises(ValueError):
            tg.spe_outcomes(tg.gen_four_line(), order=(1, 1, 2, 3))

    @pytest.mark.parametrize(
        "order", [(1.9, 2.5, 3.1, 4.0), (1.0, 2, 3, 4), (True, 2, 3, 4)], ids=["floats", "float", "bool"]
    )
    def test_non_int_order_rejected(self, order):
        message = rf"move order must be a permutation of players 1..4, got {re.escape(repr(order))}"
        with pytest.raises(ValueError, match=message):
            tg.spe_outcomes(tg.gen_four_line(), order=order)
        with pytest.raises(ValueError, match=message):
            tg.zermelo_outcome(tg.gen_four_line(), order=order)
        with pytest.raises(ValueError, match=message):
            tg.analyze(tg.gen_four_line(), "sequential", order=order)


class TestZermelo:
    def test_spike_pairs_followers(self):
        inst = tg.gen_nonmetric_spike(10)
        outcome, costs = tg.zermelo_outcome(inst)
        assert outcome[1] == outcome[2]  # the two cheap players share a bus
        assert costs[0] == 10

    def test_star_reverse_spreads_players(self):
        inst = tg.gen_uniform_star(3, 3, F(1, 4), "reverse")
        outcome, _ = tg.zermelo_outcome(inst)
        assert outcome == (1, 2, 3)
        assert tg.bus_distance_total(inst, outcome) == 3

    def test_all_zero_lowest_bus(self):
        inst = tg.Instance(3, 2, tuple(tuple(F(0) for _ in range(4)) for _ in range(4)),
                           ((1, 2, 3), (1, 2, 3)))
        assert tg.zermelo_outcome(inst)[0] == (1, 1, 1)

    def test_member_of_spe_set(self):
        rng = random.Random(11)
        for _ in range(20):
            inst = random_instance(rng)
            outcome, _ = tg.zermelo_outcome(inst)
            assert tg.spe_outcomes(inst).contains(outcome)


class TestOracle:
    def test_profile_count(self):
        assert tg.sequential.oracle_profile_count(tg.gen_nonmetric_spike(1)) == 128

    def test_matches_backward_induction(self):
        rng = random.Random(17)
        for _ in range(25):
            inst = random_instance(rng, max_n=3, max_m=2)
            assert tg.spe_oracle(inst).outcomes == tg.spe_outcomes(inst).outcomes

    def test_matches_with_shuffled_order(self):
        rng = random.Random(23)
        for _ in range(10):
            inst = random_instance(rng, max_n=3, max_m=2)
            order = list(range(1, inst.n + 1))
            rng.shuffle(order)
            assert tg.spe_oracle(inst, order=order).outcomes == tg.spe_outcomes(inst, order=order).outcomes

    def test_single_player_ties(self):
        inst = tg.Instance(1, 2, ((0, 3), (3, 0)), ((1,), (1,)))
        assert tg.spe_oracle(inst).outcomes == ((1,), (2,))

    def test_budget_guard(self):
        inst = tg.gen_uniform_star(5, 2, 1, "identity")
        with pytest.raises(tg.OracleBudgetExceededError):
            tg.spe_oracle(inst)  # 2^31 profiles


class TestSequentialRatios:
    def test_four_line_worst_case_matches_oracle(self):
        inst = tg.gen_four_line()
        report = tg.spoa(inst, "E")
        assert report.ratio >= F(5, 3)
        oracle = tg.spe_oracle(inst)
        oracle_value, _ = oracle.max_social("E")
        assert report.ratio == oracle_value / report.optimal_value

    def test_spike_stability(self):
        for x in (10, 100):
            inst = tg.gen_nonmetric_spike(x)
            for tag in ("U", "E", "D"):
                assert tg.spos(inst, tag).ratio == x

    def test_single_cluster_worst_case(self):
        for n in (2, 3, 4):
            assert tg.spoa(tg.gen_zero_cluster_single(n), "U").ratio == 2 * n - 1

    def test_worst_at_least_best(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(20):
            inst = random_instance(rng, metric=True, zero_ok=False)
            try:
                worst = tg.spoa(inst, "E")
                best = tg.spos(inst, "E")
            except tg.DegenerateOptimumError:
                continue
            assert worst.ratio >= best.ratio >= 1
            checked += 1
        assert checked >= 10

    def test_degenerate_optimum(self):
        inst = tg.Instance(2, 2, tuple(tuple(F(0) for _ in range(3)) for _ in range(3)), ((1, 2), (1, 2)))
        with pytest.raises(tg.DegenerateOptimumError):
            tg.spoa(inst, "U")


class TestFamilyStructure:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_star_reverse_distinct_buses(self, n):
        inst = tg.gen_uniform_star(n, n, F(1, 8), "reverse")
        spe = tg.spe_outcomes(inst)
        for sigma in spe:
            assert len(set(sigma)) == n
            assert tg.bus_distance_total(inst, sigma) == n

    @pytest.mark.parametrize("k,m,a", [(1, 2, 4), (1, 3, 10), (2, 2, 5)])
    def test_group_levels_one_per_group_per_bus(self, k, m, a):
        inst = tg.gen_group_levels(k, m, a)
        layout = tg.group_level_layout(k, m)
        expected_worst = (2 * k - 1) * (F(a) ** 2 + a) + F(a) ** 2
        spe = tg.spe_outcomes(inst)
        assert len(spe) >= 1
        for sigma in spe:
            for bus in range(1, m + 1):
                members = [layout[p - 1] for p in range(1, inst.n + 1) if sigma[p - 1] == bus]
                for group in ("L", "R"):
                    for level in range(1, k + 1):
                        assert members.count((group, level)) == 1
            assert tg.worst_player_cost(inst, sigma) == expected_worst

    @pytest.mark.parametrize("n,m,eps", [(3, 2, F(1, 7)), (4, 2, F(1, 10)), (5, 3, F(1, 9))])
    def test_far_cluster_costs(self, n, m, eps):
        inst = tg.gen_zero_cluster_far(n, m, eps)
        spe = tg.spe_outcomes(inst)
        for sigma in spe:
            costs = tg.cost_vector(inst, sigma)
            assert all(costs[p - 1] == 1 for p in range(n - m + 1, n + 1))
            assert all(costs[p - 1] == 2 for p in range(1, n - m + 1))
            assert tg.player_cost_total(inst, sigma) == 2 * n - m
