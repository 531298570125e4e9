"""Instance generators: golden distances, closure behavior, parameter domains."""

import random
from fractions import Fraction as F

import pytest

import transportgames as tg
from transportgames import shortest_path_closure

from support import brute_shortest_paths, fraction_closure


class TestClosure:
    def test_five_chain_matches_path_oracle(self):
        edges = {(0, 3): 1, (3, 2): 2, (2, 4): 2, (4, 1): 1}
        for p in range(5):
            edges[(p, 5)] = 3
        matrix = [[None] * 6 for _ in range(6)]
        for i in range(6):
            matrix[i][i] = 0
        for (u, v), w in edges.items():
            matrix[u][v] = matrix[v][u] = w
        closed = shortest_path_closure(matrix)
        oracle = brute_shortest_paths(6, edges)
        assert [[x for x in row] for row in closed] == oracle

    def test_five_chain_goldens(self):
        inst = tg.gen_five_chain()
        assert inst.d(1, 2) == 6
        assert inst.d(2, 3) == 3
        assert inst.d(1, 4) == 1

    def test_metric_matrix_unchanged(self):
        inst = tg.gen_four_line()
        assert shortest_path_closure(inst.dist) == inst.dist

    def test_idempotent(self):
        inst = tg.gen_random_metric(4, 2, seed=42)
        assert shortest_path_closure(inst.dist) == inst.dist

    def test_two_vertices(self):
        assert shortest_path_closure([[0, "5/2"], ["5/2", 0]]) == ((F(0), F(5, 2)), (F(5, 2), F(0)))

    def test_disconnected(self):
        with pytest.raises(tg.DisconnectedGraphError):
            shortest_path_closure([[0, 1, None], [1, 0, None], [None, None, 0]])

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            shortest_path_closure([[0, 1], [2, 0]])

    def test_zero_denominator_names_the_entry(self):
        with pytest.raises(ValueError, match=r"zero denominator at \(0, 1\): '1/0'"):
            shortest_path_closure([[0, "1/0"], ["1/0", 0]])


def closure_result(closure, partial):
    """The closed matrix, or the type and message of the error raised."""
    try:
        return closure(partial)
    except (ValueError, tg.DisconnectedGraphError) as exc:
        return type(exc), str(exc)


def partial_matrix(rng: random.Random, size: int, unknown: float):
    """Random partial matrix with mixed denominators, zeros and `None` entries;
    some pairs are given in one direction only."""
    values = (0, 0, 1, 2, 7, "1/2", "2/3", "5/4", "7/6", F(3, 8))
    matrix = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < unknown:
                continue
            value = rng.choice(values)
            side = rng.random()
            if side < 0.6:
                matrix[i][j] = matrix[j][i] = value
            elif side < 0.8:
                matrix[i][j] = value
            else:
                matrix[j][i] = value
    return matrix


class TestClosureAgainstReference:
    """The integer closure against the `Fraction` Floyd-Warshall in support."""

    @pytest.mark.parametrize("seed", range(40))
    def test_partial_inputs(self, seed):
        rng = random.Random(seed)
        matrix = partial_matrix(rng, rng.randint(1, 8), unknown=0.4)
        assert closure_result(shortest_path_closure, matrix) == closure_result(fraction_closure, matrix)

    @pytest.mark.parametrize("seed", range(20))
    def test_disconnected_inputs(self, seed):
        rng = random.Random(seed)
        matrix = partial_matrix(rng, rng.randint(3, 8), unknown=0.85)
        expected = closure_result(fraction_closure, matrix)
        assert closure_result(shortest_path_closure, matrix) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_asymmetric_and_negative_inputs(self, seed):
        rng = random.Random(seed)
        size = rng.randint(2, 7)
        matrix = partial_matrix(rng, size, unknown=0.2)
        i, j = rng.sample(range(size), 2)
        if seed % 2:
            matrix[i][j], matrix[j][i] = "1/5", "2/5"
        else:
            matrix[i][j] = rng.choice((-1, "-1/3"))
        expected = closure_result(fraction_closure, matrix)
        assert isinstance(expected, tuple) and expected[0] is ValueError
        assert closure_result(shortest_path_closure, matrix) == expected

    def test_known_error_messages(self):
        cases = [
            ([[0, 1, None], [1, 0, None], [None, None, 0]], (tg.DisconnectedGraphError, "no path between vertices 0 and 2")),
            ([[0, 1], [2, 0]], (ValueError, "asymmetric input at (0, 1): 1 vs 2")),
            ([[0, "-1/2"], [None, 0]], (ValueError, "negative distance at (0, 1): -1/2")),
        ]
        for matrix, expected in cases:
            assert closure_result(shortest_path_closure, matrix) == expected
            assert closure_result(fraction_closure, matrix) == expected


class TestGeneratorsValidateAndMetric:
    METRIC_BUILDERS = [
        tg.gen_five_chain,
        tg.gen_four_line,
        lambda: tg.gen_uniform_star(3, 2, 2, "identity"),
        lambda: tg.gen_uniform_star(4, 4, F(1, 8), "reverse"),
        lambda: tg.gen_group_levels(1, 2, 10),
        lambda: tg.gen_group_levels(2, 3, F(7, 2)),
        lambda: tg.gen_zero_cluster_far(4, 2, F(1, 10)),
        lambda: tg.gen_zero_cluster_far(5, 3, 0),
        lambda: tg.gen_zero_cluster_single(4),
        lambda: tg.gen_random_metric(4, 3, seed=0),
    ]

    @pytest.mark.parametrize("build", METRIC_BUILDERS)
    def test_metric_families(self, build):
        inst = build()
        assert tg.check_metric(inst).is_metric
        # file-format round trip revalidates everything
        assert tg.loads_instance(tg.dumps_instance(inst)) == inst

    def test_spike_fails_metric(self):
        assert not tg.check_metric(tg.gen_nonmetric_spike(F(1, 2))).is_metric

    def test_wide_star_not_metric(self):
        inst = tg.gen_uniform_star(3, 2, 3, "identity")
        ok, witness = tg.check_metric(inst)
        assert not ok and witness is not None


class TestGoldenValues:
    def test_star_reverse_pile_distance(self):
        inst = tg.gen_uniform_star(4, 4, F(1, 8), "reverse")
        assert tg.bus_distance_total(inst, (1, 1, 1, 1)) == 1 + F(3, 8)

    def test_star_identity_optimum(self):
        inst = tg.gen_uniform_star(3, 3, 2, "identity")
        assert tg.optimal_social(inst, "E")[0] == 1

    def test_group_distances(self):
        inst = tg.gen_group_levels(1, 2, 10)
        layout = tg.group_level_layout(1, 2)
        left = [p for p in range(1, 5) if layout[p - 1][0] == "L"]
        right = [p for p in range(1, 5) if layout[p - 1][0] == "R"]
        assert inst.d(left[0], "t") == 100 and inst.d(right[0], "t") == 10
        assert inst.d(left[0], right[0]) == 110
        assert inst.d(left[0], left[1]) == 1

    def test_group_optimum(self):
        inst = tg.gen_group_levels(1, 2, 10)
        assert tg.optimal_social(inst, "E")[0] == 101

    def test_far_cluster_optimum(self):
        inst = tg.gen_zero_cluster_far(4, 2, F(1, 10))
        assert tg.optimal_social(inst, "U")[0] == F(21, 10)

    def test_single_cluster_values(self):
        inst = tg.gen_zero_cluster_single(3)
        assert tg.player_cost_total(inst, (1, 1, 1)) == 5
        assert tg.optimal_social(inst, "U")[0] == 1

    def test_group_pad_players_sit_at_destination(self):
        inst = tg.gen_group_levels(1, 2, 10, pad=2)
        assert inst.n == 6
        layout = tg.group_level_layout(1, 2, pad=2)
        assert layout[0] is None and layout[1] is None
        assert inst.d(1, "t") == 0 and inst.d(2, "t") == 0
        assert inst.perms[0] == (6, 5, 4, 3, 2, 1)
        assert tg.check_metric(inst).is_metric


class TestParameterDomains:
    def test_spike_needs_positive(self):
        with pytest.raises(tg.NonPositiveParameterError):
            tg.gen_nonmetric_spike(0)

    def test_star_needs_positive_epsilon(self):
        with pytest.raises(tg.NonPositiveParameterError):
            tg.gen_uniform_star(3, 2, 0)

    def test_star_scheme_checked(self):
        with pytest.raises(tg.ParameterDomainError):
            tg.gen_uniform_star(3, 2, 1, "sideways")

    def test_group_domain(self):
        with pytest.raises(tg.ParameterDomainError):
            tg.gen_group_levels(0, 2, 10)
        with pytest.raises(tg.ParameterDomainError):
            tg.gen_group_levels(1, 2, 1)

    def test_far_cluster_domain(self):
        with pytest.raises(tg.ParameterDomainError):
            tg.gen_zero_cluster_far(2, 2, 0)
        with pytest.raises(tg.ParameterDomainError):
            tg.gen_zero_cluster_far(4, 2, -1)

    def test_single_cluster_domain(self):
        with pytest.raises(tg.ParameterDomainError):
            tg.gen_zero_cluster_single(1)

    def test_random_domain(self):
        with pytest.raises(tg.ParameterDomainError):
            tg.gen_random_metric(0, 2, seed=1)
        with pytest.raises(tg.ParameterDomainError):
            tg.gen_random_metric(3, 2, seed=1, value_range=(5, 1))


class TestRandomMetric:
    def test_deterministic_per_seed(self):
        a = tg.gen_random_metric(4, 3, seed=123)
        b = tg.gen_random_metric(4, 3, seed=123)
        assert a == b
        assert tg.dumps_instance(a) == tg.dumps_instance(b)

    def test_different_seeds_differ(self):
        assert tg.gen_random_metric(4, 3, seed=1) != tg.gen_random_metric(4, 3, seed=2)

    def test_always_metric(self):
        for seed in range(10):
            assert tg.check_metric(tg.gen_random_metric(3, 2, seed=seed)).is_metric


class TestRegistry:
    def test_tags_build(self):
        assert tg.build_family("five-chain", {}) == tg.gen_five_chain()
        inst = tg.build_family("uniform-star", {"n": 3, "m": 2, "epsilon": "1/4"})
        assert inst == tg.gen_uniform_star(3, 2, F(1, 4), "identity")

    def test_unknown_family(self):
        with pytest.raises(tg.ParameterDomainError):
            tg.build_family("mystery", {})

    def test_missing_parameter(self):
        with pytest.raises(tg.ParameterDomainError):
            tg.build_family("uniform-star", {"n": 3, "m": 2})

    def test_unknown_parameter(self):
        with pytest.raises(tg.ParameterDomainError):
            tg.build_family("five-chain", {"n": 5})

    def test_bad_kind(self):
        with pytest.raises(tg.ParameterDomainError):
            tg.build_family("uniform-star", {"n": "three", "m": 2, "epsilon": 1})
