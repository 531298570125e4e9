"""Acceptance suite: one test per criterion, all exact (tolerance zero).

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion; each test also prints an ``ACCEPTANCE`` line (visible with ``-s``).
"""

import random
from fractions import Fraction as F

import transportgames as tg

from support import random_instance, spe_oracle


def _passed(number, label):
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_c01_five_chain_costs_and_equilibrium():
    inst = tg.gen_five_chain()
    assert tg.cost_vector(inst, (1, 1, 1, 2, 1)) == (F(14), F(8), F(5), F(3), F(3))
    deviation = tg.find_improving_deviation(inst, (1, 1, 1, 2, 1))
    assert not tg.is_nash_equilibrium(inst, (1, 1, 1, 2, 1))
    assert deviation.player == 1
    assert tg.is_nash_equilibrium(inst, (2, 1, 1, 2, 1))
    assert tg.player_cost(inst, (2, 1, 1, 2, 1), 1) == 4
    _passed(1, "five-chain golden costs and equilibrium")


def test_c02_four_line_sequential_vs_oracle():
    inst = tg.gen_four_line()
    spe = tg.spe_outcomes(inst)
    assert spe.contains((1, 1, 2, 1))
    assert tg.cost_vector(inst, (1, 1, 2, 1)) == (F(5), F(4), F(2), F(1))
    optimal_value, _ = tg.optimal_social(inst, "E")
    assert optimal_value == 3
    report = tg.spoa(inst, "E")
    assert report.ratio >= F(5, 3)
    oracle = spe_oracle(inst)
    assert oracle.outcomes == spe.outcomes
    oracle_worst, _ = oracle.max_social("E")
    assert report.ratio == oracle_worst / optimal_value
    _passed(2, "four-line SPE set, optimum, and oracle-matched worst ratio")


def test_c03_spike_family_unbounded_ratios():
    for x in (10, 100, 1000):
        inst = tg.gen_nonmetric_spike(x)
        assert not tg.check_metric(inst).is_metric
        spe = tg.spe_outcomes(inst)
        assert {tg.cost_vector(inst, sigma) for sigma in spe} == {(F(x), F(0), F(0))}
        for tag in ("U", "E", "D"):
            assert tg.spos(inst, tag).ratio == x
        equilibria = tg.enumerate_nash(inst)
        lonely = [sigma for sigma in equilibria if sigma[0] != sigma[1] and sigma[0] != sigma[2]]
        assert lonely and any(tg.player_cost_total(inst, sigma) == x for sigma in lonely)
        assert tg.poa(inst, "U").ratio == x  # grows without bound in x
    _passed(3, "spike family: forced costs, stability ratio x, unbounded anarchy")


def test_c04_star_reverse_spread_and_global_bound():
    for n in (2, 3, 4):
        inst = tg.gen_uniform_star(n, n, F(1, 8), "reverse")
        spe = tg.spe_outcomes(inst)
        for sigma in spe:
            assert len(set(sigma)) == n
            assert tg.bus_distance_total(inst, sigma) == n
        assert tg.spos(inst, "D").ratio == F(n) / (1 + F(n - 1, 8))
        best_d, _ = tg.optimal_social(inst, "D")
        for sigma in tg.enumerate_outcomes(inst):
            assert tg.bus_distance_total(inst, sigma) <= n * best_d
    _passed(4, "reverse star: distinct buses, exact stability ratio, n*optimum bound")


def test_c05_star_identity_worst_case():
    for n in (2, 3, 4):
        inst = tg.gen_uniform_star(n, n, 2, "identity")
        report = tg.spoa(inst, "E")
        assert report.ratio == 2 * n - 1
        assert report.equilibrium_witness == (1,) * n
        worst_anywhere = max(tg.worst_player_cost(inst, sigma) for sigma in tg.enumerate_outcomes(inst))
        assert worst_anywhere == 2 * n - 1
    _passed(5, "identity star: worst ratio 2n-1 via the single-bus pile-up")


def test_c06_group_levels_structure_and_ratio():
    inst = tg.gen_group_levels(1, 2, 10)
    layout = tg.group_level_layout(1, 2)
    spe = tg.spe_outcomes(inst)
    for sigma in spe:
        for bus in (1, 2):
            members = [layout[p - 1][0] for p in range(1, 5) if sigma[p - 1] == bus]
            assert sorted(members) == ["L", "R"]
        assert tg.worst_player_cost(inst, sigma) == 210
    assert tg.optimal_social(inst, "E")[0] == 101
    assert tg.spos(inst, "E").ratio == F(210, 101)
    _passed(6, "group levels: one L and one R per bus, ratio 210/101")


def test_c07_far_cluster_utilitarian():
    n, m, eps = 4, 2, F(1, 10)
    inst = tg.gen_zero_cluster_far(n, m, eps)
    spe = tg.spe_outcomes(inst)
    assert {tg.player_cost_total(inst, sigma) for sigma in spe} == {F(6)}
    assert tg.optimal_social(inst, "U")[0] == F(21, 10)
    stability = tg.spos(inst, "U")
    assert stability.ratio == F(2 * n - m) / (m + F(m * (m - 1), 2) * eps)
    assert stability.ratio == F(20, 7)
    simultaneous = tg.pos(inst, "U")
    print(f"  recorded simultaneous pos(U) = {simultaneous.ratio}")
    assert simultaneous.ratio >= 1
    # every equilibrium respects the metric cost-sum guarantee
    best_u, _ = tg.optimal_social(inst, "U")
    for sigma in tg.enumerate_nash(inst):
        assert tg.player_cost_total(inst, sigma) <= (F(2 * n, m) + 1) * best_u
    _passed(7, "far cluster: SPE sum 2n-m, exact stability ratio 20/7")


def test_c08_single_cluster_and_global_sum_bound():
    for n in (2, 3, 4):
        assert tg.spoa(tg.gen_zero_cluster_single(n), "U").ratio == 2 * n - 1
    rng = random.Random(88)
    for _ in range(200):
        inst = random_instance(rng, max_n=5, max_m=3, metric=True)
        best_u, _ = tg.optimal_social(inst, "U")
        bound = (2 * inst.n - 1) * best_u
        for sigma in tg.enumerate_outcomes(inst):
            assert tg.player_cost_total(inst, sigma) <= bound
    _passed(8, "single cluster worst ratio 2n-1; (2n-1)*optimum sum bound on 200 randoms")


def test_c09_equilibrium_sum_bound_on_random_metrics():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        inst = random_instance(rng, max_n=5, max_m=3, metric=True)
        equilibria = tg.enumerate_nash(inst)
        if len(equilibria) == 0:
            continue
        best_u, _ = tg.optimal_social(inst, "U")
        bound = (F(2 * inst.n, inst.m) + 1) * best_u
        for sigma in equilibria:
            assert tg.player_cost_total(inst, sigma) <= bound
        checked += 1
    _passed(9, "equilibrium sum bound (2n/m+1)*optimum on 200 random metric instances")


def test_c10_oracle_equivalence_on_random_instances():
    rng = random.Random(1010)
    for _ in range(100):
        n, m = 3, 2
        dist = [[F(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                dist[i][j] = dist[j][i] = F(rng.randint(0, 8), rng.randint(1, 4))
        perms = []
        for _ in range(m):
            order = [1, 2, 3]
            rng.shuffle(order)
            perms.append(tuple(order))
        inst = tg.Instance(n, m, tuple(tuple(row) for row in dist), tuple(perms))
        spe = tg.spe_outcomes(inst)
        assert spe_oracle(inst).outcomes == spe.outcomes
        outcome, _ = tg.zermelo_outcome(inst)
        assert spe.contains(outcome)
    _passed(10, "oracle equivalence and induction membership on 100 random instances")


def test_c11_structural_properties_pool():
    rng = random.Random(1111)
    pool = [
        tg.gen_five_chain(),
        tg.gen_four_line(),
        tg.gen_nonmetric_spike(10),
        tg.gen_uniform_star(3, 3, 2, "identity"),
        tg.gen_uniform_star(3, 3, F(1, 8), "reverse"),
        tg.gen_group_levels(1, 2, 10),
        tg.gen_zero_cluster_far(4, 2, F(1, 10)),
        tg.gen_zero_cluster_single(3),
    ] + [random_instance(rng, max_n=4, max_m=3, metric=bool(i % 2)) for i in range(50)]
    alpha = F(3, 7)
    for inst in pool:
        metric = tg.check_metric(inst).is_metric
        scaled = tg.Instance(
            inst.n,
            inst.m,
            tuple(tuple(x * alpha for x in row) for row in inst.dist),
            inst.perms,
            inst.declared_metric,
        )
        for sigma in tg.enumerate_outcomes(inst):
            costs = tg.cost_vector(inst, sigma)
            # route recursion
            for bus in range(1, inst.m + 1):
                route = tg.bus_route(inst, sigma, bus)
                for idx in range(len(route)):
                    nxt_cost = costs[route[idx + 1] - 1] if idx + 1 < len(route) else F(0)
                    nxt = route[idx + 1] if idx + 1 < len(route) else "t"
                    assert costs[route[idx] - 1] == inst.d(route[idx], nxt) + nxt_cost
            d = tg.bus_distance_total(inst, sigma)
            e = max(costs)
            u = sum(costs, F(0))
            first_total = sum(
                (costs[tg.bus_route(inst, sigma, bus)[0] - 1] for bus in range(1, inst.m + 1)
                 if tg.bus_route(inst, sigma, bus)),
                F(0),
            )
            assert d == first_total
            assert e <= d <= inst.m * e
            assert e <= u <= inst.n * e
            if metric:
                for player in range(1, inst.n + 1):
                    assert costs[player - 1] >= inst.d(player, "t")
            assert tg.cost_vector(scaled, sigma) == tuple(alpha * c for c in costs)
        # scaling preserves equilibrium structure and ratios
        assert tg.enumerate_nash(inst).outcomes == tg.enumerate_nash(scaled).outcomes
        assert tg.spe_outcomes(inst).outcomes == tg.spe_outcomes(scaled).outcomes
        for tag in tg.SOCIAL_TAGS:
            try:
                before = tg.poa(inst, tag).ratio
            except (tg.NoEquilibriumError, tg.DegenerateOptimumError) as exc:
                before = type(exc)
            try:
                after = tg.poa(scaled, tag).ratio
            except (tg.NoEquilibriumError, tg.DegenerateOptimumError) as exc:
                after = type(exc)
            assert before == after
            try:
                seq_before = tg.spos(inst, tag).ratio
            except tg.DegenerateOptimumError:
                seq_before = None
            try:
                seq_after = tg.spos(scaled, tag).ratio
            except tg.DegenerateOptimumError:
                seq_after = None
            assert seq_before == seq_after
    _passed(11, "route recursion, social identities/orderings, metric bound, scaling")
