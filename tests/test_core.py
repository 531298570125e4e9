"""Model-level tests: validation, metric checks, routes, costs, social values,
and the instance file format."""

import json
import random
import tracemalloc
from fractions import Fraction as F

import pytest

import transportgames as tg
from transportgames import core, engine
from transportgames.core import rational_repr, scaled_rows, to_fraction

from support import NE_FREE, fraction_closure, fraction_triangle_witness


def violation_kinds(exc_info):
    return {v.kind for v in exc_info.value.violations}


class TestRationals:
    def test_parsing(self):
        assert to_fraction(3) == F(3)
        assert to_fraction("3/4") == F(3, 4)
        assert to_fraction(F(5, 2)) == F(5, 2)

    @pytest.mark.parametrize("bad", [1.5, True, None, "x", [1]])
    def test_rejects_inexact(self, bad):
        with pytest.raises(ValueError):
            to_fraction(bad)

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^zero denominator: '1/0'$"):
            to_fraction("1/0")
        with pytest.raises(ValueError, match=r"zero denominator"):
            tg.Instance(1, 2, ((0, "1/0"), ("1/0", 0)), ((1,), (1,)))

    def test_repr_roundtrip(self):
        assert rational_repr(F(6, 2)) == 3
        assert rational_repr(F(5, 3)) == "5/3"
        assert to_fraction(rational_repr(F(5, 3))) == F(5, 3)


class TestValidation:
    def test_five_chain_dict_is_valid(self):
        raw = tg.dumps_instance(tg.gen_five_chain())
        inst = tg.loads_instance(raw)
        assert inst == tg.gen_five_chain()

    def test_asymmetric_matrix(self):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.Instance(2, 2, ((0, 1, 2), (2, 0, 1), (2, 1, 0)), ((1, 2), (1, 2)))
        assert "asymmetry" in violation_kinds(exc)

    def test_nonzero_diagonal(self):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.Instance(1, 2, ((1, 0), (0, 0)), ((1,), (1,)))
        assert "nonzero-diagonal" in violation_kinds(exc)

    def test_negative_distance(self):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.Instance(1, 2, ((0, -1), (-1, 0)), ((1,), (1,)))
        assert "negative-distance" in violation_kinds(exc)

    def test_repeated_permutation_entry(self):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.Instance(3, 2, tuple(tuple(F(0) for _ in range(4)) for _ in range(4)), ((1, 1, 2), (1, 2, 3)))
        assert "not-a-permutation" in violation_kinds(exc)

    @pytest.mark.parametrize("entry", [1.7, True], ids=["float", "bool"])
    def test_non_int_pickup_entry_rejected(self, entry):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.Instance(1, 2, ((0, 1), (1, 0)), ((entry,), (1,)))
        assert [(v.kind, v.message) for v in exc.value.violations] == [
            ("not-a-permutation", f"permutation of bus 1 is not a bijection on 1..1: ({entry!r},)")
        ]

    def test_dimension_mismatch(self):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.Instance(2, 2, ((0, 0), (0, 0)), ((1, 2), (2, 1)))
        assert "dimension-mismatch" in violation_kinds(exc)

    def test_single_bus_rejected(self):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.Instance(1, 1, ((0, 0), (0, 0)), ((1,),))
        assert "bus-count" in violation_kinds(exc)

    def test_false_metric_declaration_rejected(self):
        spike = tg.gen_nonmetric_spike(10)
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.Instance(3, 2, spike.dist, spike.perms, declared_metric=True)
        assert "metric-mismatch" in violation_kinds(exc)

    def test_missing_permutations_field(self):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.validate_instance({"n": 1, "m": 2, "distances": [[0, 0], [0, 0]]})
        assert "missing-field" in violation_kinds(exc)

    def test_float_entry_rejected(self):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.validate_instance(
                {"n": 1, "m": 2, "distances": [[0, 1.5], [1.5, 0]], "permutations": [[1], [1]]}
            )
        assert "bad-entry" in violation_kinds(exc)

    def test_zero_denominator_entry_rejected(self):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.validate_instance(
                {"n": 1, "m": 2, "distances": [[0, "1/0"], [1, 0]], "permutations": [[1], [1]]}
            )
        assert [str(v) for v in exc.value.violations if v.kind == "bad-entry"] == [
            "bad-entry: distances[0][1] = '1/0' is not exact"
        ]

    def test_all_violations_reported_at_once(self):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.Instance(2, 2, ((0, 1, 2), (1, 0, 3), (2, 4, 0)), ((1, 1), (2, 1)))
        kinds = violation_kinds(exc)
        assert {"asymmetry", "not-a-permutation"} <= kinds


# Malformed documents and the exact violation lists `loads_instance` reports,
# in order. The texts print the original rationals, not the scaled integers.
MALFORMED_DOCUMENTS = [
    (
        {"n": 1, "m": 2, "distances": [[0, 0], [0, 0]]},
        [("missing-field", "required field 'permutations' is absent")],
    ),
    (
        {"n": 1, "m": 2, "distances": [[0, 1.5], [1.5, 0]], "permutations": [[1], [1]]},
        [
            ("bad-entry", "distances[0][1] = 1.5 is not exact"),
            ("bad-entry", "distances[1][0] = 1.5 is not exact"),
        ],
    ),
    (
        {"n": 1, "m": 2, "vertices": [1, 2], "distances": [[0, 0], [0, 0]], "permutations": [[1], [1]]},
        [("bad-vertices", "vertices must be [1, 't']")],
    ),
    (
        {"n": 2, "m": 2, "distances": [[0, 1, 2], [2, 0, 1], [2, 1, 0]], "permutations": [[1, 2], [1, 2]]},
        [("asymmetry", "dist[0][1] = 1 differs from dist[1][0] = 2")],
    ),
    (
        {"n": 1, "m": 2, "distances": [[1, 0], [0, 0]], "permutations": [[1], [1]]},
        [("nonzero-diagonal", "dist[0][0] = 1 != 0")],
    ),
    (
        {"n": 1, "m": 2, "distances": [[0, -1], [-1, 0]], "permutations": [[1], [1]]},
        [("negative-distance", "dist[0][1] = -1 < 0"), ("negative-distance", "dist[1][0] = -1 < 0")],
    ),
    (
        {"n": 3, "m": 2, "distances": [[0] * 4] * 4, "permutations": [[1, 1, 2], [1, 2, 3]]},
        [("not-a-permutation", "permutation of bus 1 is not a bijection on 1..3: (1, 1, 2)")],
    ),
    (
        {"n": 2, "m": 2, "distances": [[0, 0], [0, 0]], "permutations": [[1, 2], [2, 1]]},
        [("dimension-mismatch", "distance matrix must be 3x3 (players 1..2 plus the destination)")],
    ),
    (
        {"n": 1, "m": 1, "distances": [[0, 0], [0, 0]], "permutations": [[1]]},
        [("bus-count", "m must be an integer >= 2, got 1")],
    ),
    (
        {"n": "2", "m": 2, "distances": [[0, 0, 0]] * 3, "permutations": [[1, 2], [2, 1]]},
        [("player-count", "n must be an integer >= 1, got '2'")],
    ),
    (
        {"n": 2, "m": 2, "distances": [[0, 1, 2], [1, 0, 3], [2, 4, 0]], "permutations": [[1, 1], [2, 1]]},
        [
            ("asymmetry", "dist[1][2] = 3 differs from dist[2][1] = 4"),
            ("not-a-permutation", "permutation of bus 1 is not a bijection on 1..2: (1, 1)"),
        ],
    ),
    (
        {
            "n": 3,
            "m": 2,
            "distances": [[0, 10, 0, 1], [10, 0, 0, 1], [0, 0, 0, 0], [1, 1, 0, 0]],
            "permutations": [[1, 2, 3], [3, 2, 1]],
            "metric": True,
        },
        [("metric-mismatch", "declared metric but d(0,1) > d(0,2) + d(2,1)")],
    ),
    (
        {
            "n": 2,
            "m": 2,
            "distances": [[0, "1/2", 5], ["1/2", 0, "3/4"], [5, "3/4", 0]],
            "permutations": [[1, 2], [2, 1]],
            "metric": True,
        },
        [("metric-mismatch", "declared metric but d(0,2) > d(0,1) + d(1,2)")],
    ),
    (
        {"n": 1, "m": 2, "distances": [[0, 1], [1, 0]], "permutations": [[1], [1]], "metric": "yes"},
        [("bad-metric-flag", "metric flag must be a boolean, got 'yes'")],
    ),
    (
        {
            "n": 2,
            "m": 2,
            "distances": [[0, "1/3", -2], ["1/2", 1, 0], [-2, 0, 0]],
            "permutations": [[1, 2]],
            "metric": True,
        },
        [
            ("nonzero-diagonal", "dist[1][1] = 1 != 0"),
            ("asymmetry", "dist[0][1] = 1/3 differs from dist[1][0] = 1/2"),
            ("negative-distance", "dist[0][2] = -2 < 0"),
            ("negative-distance", "dist[2][0] = -2 < 0"),
            ("permutation-count", "expected 2 pickup permutations, got 1"),
        ],
    ),
    (
        {"n": 1, "m": 2, "vertices": 5, "distances": [[0, 0], [0, 0]], "permutations": [[1], [1]]},
        [("bad-vertices", "vertices must be an array of 1..1 and 't'")],
    ),
    (
        {"n": 2, "m": 2, "vertices": [1, "t"], "distances": [[0] * 3] * 3, "permutations": [[1, 2], [2, 1]]},
        [("bad-vertices", "vertices must be an array of 1..2 and 't'")],
    ),
]


class TestViolationReports:
    @pytest.mark.parametrize("doc, expected", MALFORMED_DOCUMENTS)
    def test_text_and_order(self, doc, expected):
        with pytest.raises(tg.MalformedInstanceError) as exc:
            tg.loads_instance(json.dumps(doc))
        assert [(v.kind, v.message) for v in exc.value.violations] == expected

    @pytest.mark.parametrize("vertices", [None, 5, [1, "t"]])
    def test_memory_follows_the_data_not_the_declared_size(self, vertices):
        doc = {"n": 10**6, "m": 2, "distances": [[0, 1], [1, 0]], "permutations": [[1], [1]]}
        if vertices is not None:
            doc["vertices"] = vertices
        tracemalloc.start()
        try:
            with pytest.raises(tg.MalformedInstanceError):
                tg.validate_instance(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @pytest.mark.parametrize("declared", [True, False, None])
    def test_load_runs_one_metric_check(self, monkeypatch, declared):
        text = tg.dumps_instance(tg.Instance(5, 2, tg.gen_five_chain().dist, ((1, 2, 3, 4, 5),) * 2, declared))
        calls = []
        witness = core._triangle_witness

        def counting(rows):
            calls.append(rows)
            return witness(rows)

        monkeypatch.setattr(core, "_triangle_witness", counting)
        tg.loads_instance(text)
        assert len(calls) == (1 if declared else 0)


def tie_heavy_matrix(rng: random.Random, size: int):
    """Symmetric matrix from a few values with mixed denominators; zeros and
    exact ties d(x,w) == d(x,y) + d(y,w) are common, and so are violations."""
    values = (F(0), F(0), F(1, 2), F(1, 3), F(5, 6), F(1), F(3, 2), F(7, 4), F(2))
    dist = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            dist[i][j] = dist[j][i] = rng.choice(values)
    return dist


def line_matrix(rng: random.Random, size: int):
    """Points on a line at rational positions: a metric in which every triple
    with the middle point between the others is an exact tie."""
    pos = sorted(F(k, 12) for k in rng.sample(range(40), size))
    rng.shuffle(pos)
    return [[abs(a - b) for b in pos] for a in pos]


class TestIntegerMetricCheck:
    """The integer triangle check against the `Fraction` reference in support."""

    @staticmethod
    def assert_matches_reference(dist):
        expected = fraction_triangle_witness(dist)
        assert core._triangle_witness(scaled_rows(dist)[1]) == expected
        inst = tg.Instance(len(dist) - 1, 2, tuple(map(tuple, dist)), (tuple(range(1, len(dist))),) * 2)
        labels = inst.vertices()
        check = tg.check_metric(inst)
        assert check.is_metric == (expected is None)
        assert check.witness == (None if expected is None else tuple(labels[i] for i in expected))
        return expected

    @pytest.mark.parametrize("seed", range(60))
    def test_random_matrices(self, seed):
        rng = random.Random(seed)
        self.assert_matches_reference(tie_heavy_matrix(rng, rng.randint(2, 7)))

    @pytest.mark.parametrize("seed", range(20))
    def test_closed_matrices_are_metric(self, seed):
        rng = random.Random(seed)
        closed = [list(row) for row in fraction_closure(tie_heavy_matrix(rng, rng.randint(2, 7)))]
        assert self.assert_matches_reference(closed) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_ties_are_not_flagged(self, seed):
        rng = random.Random(seed)
        dist = line_matrix(rng, rng.randint(3, 7))
        assert self.assert_matches_reference(dist) is None
        # raising the distance between the two end points by the smallest
        # amount breaks the ties through every point between them
        far = max(map(max, dist))
        x, w = next((i, j) for i, row in enumerate(dist) for j, d in enumerate(row) if d == far)
        dist[x][w] = dist[w][x] = far + F(1, 997)
        assert self.assert_matches_reference(dist) is not None


class TestIntegerForm:
    """`Instance.scale` and `Instance.rows`: computed once, and canonical."""

    def test_scaled_once_per_construction(self, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(matrix)
            return scaled_rows(matrix)

        text = tg.dumps_instance(tg.gen_random_metric(4, 3, seed=5))
        monkeypatch.setattr(core, "scaled_rows", counting)
        monkeypatch.setattr(engine, "scaled_rows", counting, raising=False)
        inst = tg.loads_instance(text)
        assert len(calls) == 1
        assert tg.Instance(inst.n, inst.m, inst.dist, inst.perms, True) == inst
        assert len(calls) == 2
        tg.check_metric(inst)
        engine.scaled_view.cache_clear()
        view = engine.scaled_view(inst)
        assert len(calls) == 2
        assert inst.scale > 1 and view.scale == inst.scale
        assert view.dist == tuple(v for row in inst.rows for v in row)

    def test_equal_values_in_any_spelling_are_equal(self):
        spellings = [
            ((F(0), F(1, 2), F(3)), (F(1, 2), F(0), F(5, 2)), (F(3), F(5, 2), F(0))),
            ((0, F(1, 2), 3), (F(1, 2), 0, F(5, 2)), (3, F(5, 2), 0)),
            (("0", "1/2", "3"), ("1/2", "0", "5/2"), ("3", "5/2", "0")),
            (("0/7", "2/4", "6/2"), ("3/6", "0", "10/4"), ("9/3", "15/6", "0/1")),
        ]
        insts = [tg.Instance(2, 2, dist, ((1, 2), (2, 1))) for dist in spellings]
        assert all(inst == insts[0] and hash(inst) == hash(insts[0]) for inst in insts)
        assert {inst.scale for inst in insts} == {2}
        # the same integers over another scale are another instance
        doubled = tg.Instance(2, 2, ((0, 1, 6), (1, 0, 5), (6, 5, 0)), ((1, 2), (2, 1)))
        assert doubled.rows == insts[0].rows and doubled != insts[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_equal_exactly_when_the_fractions_are(self, seed):
        rng = random.Random(seed)
        insts = [tg.Instance(2, 2, tie_heavy_matrix(rng, 3), ((1, 2), (1, 2))) for _ in range(40)]
        equal_pairs = 0
        for a in insts:
            for b in insts:
                assert (a == b) == (a.dist == b.dist)
                if a == b:
                    assert hash(a) == hash(b)
                    equal_pairs += 1
        assert equal_pairs > len(insts)  # some draws repeat


class TestMetric:
    def test_five_chain_is_metric(self):
        assert tg.check_metric(tg.gen_five_chain()) == (True, None)

    def test_spike_witness(self):
        ok, witness = tg.check_metric(tg.gen_nonmetric_spike(10))
        assert not ok
        x, y, w = witness
        inst = tg.gen_nonmetric_spike(10)
        assert inst.d(x, w) > inst.d(x, y) + inst.d(y, w)
        assert witness == (1, 2, 3)

    def test_single_player_trivially_metric(self):
        inst = tg.Instance(1, 2, ((0, 5), (5, 0)), ((1,), (1,)))
        assert tg.check_metric(inst).is_metric


class TestRoutesAndCosts:
    def test_five_chain_routes(self):
        inst = tg.gen_five_chain()
        sigma = (1, 1, 1, 2, 1)
        assert tg.bus_route(inst, sigma, 2) == (4,)
        assert tg.bus_route(inst, sigma, 1) == (1, 2, 3, 5)

    def test_empty_bus(self):
        inst = tg.gen_five_chain()
        assert tg.bus_route(inst, (1,) * 5, 2) == ()

    def test_bus_out_of_range(self):
        inst = tg.gen_five_chain()
        with pytest.raises(tg.BusOutOfRangeError):
            tg.bus_route(inst, (1,) * 5, 3)
        with pytest.raises(tg.BusOutOfRangeError):
            tg.cost_vector(inst, (1, 1, 1, 3, 1))

    def test_five_chain_costs(self):
        inst = tg.gen_five_chain()
        sigma = (1, 1, 1, 2, 1)
        assert tg.cost_vector(inst, sigma) == (F(14), F(8), F(5), F(3), F(3))
        assert tg.player_cost(inst, (2, 1, 1, 2, 1), 1) == 4

    def test_player_out_of_range(self):
        inst = tg.gen_five_chain()
        with pytest.raises(tg.PlayerOutOfRangeError):
            tg.player_cost(inst, (1,) * 5, 6)

    def test_last_pickup_pays_direct_distance(self):
        inst = tg.gen_five_chain()
        # player 5 is picked up last on bus 1 under this outcome
        assert tg.player_cost(inst, (1, 1, 1, 2, 1), 5) == inst.d(5, "t")

    def test_four_line_leaves(self):
        inst = tg.gen_four_line()
        leaves = {
            (1, 1, 1, 1): (7, 6, 2, 3),
            (1, 1, 1, 2): (7, 6, 2, 1),
            (1, 1, 2, 1): (5, 4, 2, 1),
            (1, 1, 2, 2): (3, 2, 2, 3),
            (1, 2, 1, 1): (5, 2, 2, 3),
            (1, 2, 1, 2): (5, 4, 2, 1),
            (1, 2, 2, 1): (3, 6, 2, 1),
            (1, 2, 2, 2): (1, 6, 2, 3),
        }
        for sigma, expected in leaves.items():
            assert tg.cost_vector(inst, sigma) == tuple(F(v) for v in expected)

    def test_spike_cost_vector(self):
        inst = tg.gen_nonmetric_spike(10)
        assert tg.cost_vector(inst, (1, 2, 2)) == (F(10), F(0), F(0))

    def test_zero_distances_zero_costs(self):
        inst = tg.Instance(2, 2, tuple(tuple(F(0) for _ in range(3)) for _ in range(3)), ((1, 2), (1, 2)))
        assert tg.cost_vector(inst, (1, 2)) == (F(0), F(0))


class TestSocialValues:
    def test_bus_distance_total(self):
        inst = tg.gen_five_chain()
        assert tg.bus_distance_total(inst, (1, 1, 1, 2, 1)) == 17

    def test_star_singletons(self):
        inst = tg.gen_uniform_star(3, 3, F(1, 4), "reverse")
        assert tg.bus_distance_total(inst, (1, 2, 3)) == 3

    def test_worst_player_cost(self):
        inst = tg.gen_four_line()
        assert tg.worst_player_cost(inst, (1, 1, 2, 1)) == 5
        assert tg.worst_player_cost(inst, (1, 1, 2, 2)) == 3

    def test_cost_sum(self):
        assert tg.player_cost_total(tg.gen_five_chain(), (1, 1, 1, 2, 1)) == 33
        assert tg.player_cost_total(tg.gen_zero_cluster_single(3), (1, 1, 1)) == 5

    def test_social_dispatch(self):
        inst = tg.gen_five_chain()
        sigma = (1, 1, 1, 2, 1)
        assert tg.social_cost(inst, sigma, "D") == 17
        assert tg.social_cost(inst, sigma, "E") == 14
        assert tg.social_cost(inst, sigma, "U") == 33
        with pytest.raises(ValueError):
            tg.social_cost(inst, sigma, "Z")


class TestFileFormat:
    def test_roundtrip_five_chain(self):
        inst = tg.gen_five_chain()
        assert tg.loads_instance(tg.dumps_instance(inst)) == inst

    def test_roundtrip_preserves_fractions(self):
        inst = tg.gen_zero_cluster_far(4, 2, F(1, 10))
        again = tg.loads_instance(tg.dumps_instance(inst))
        assert again.dist == inst.dist
        assert again == inst

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "inst.json"
        inst = tg.gen_nonmetric_spike(F(7, 3))
        tg.save_instance(inst, path)
        assert tg.load_instance(path) == inst

    def test_vertices_field_checked(self):
        raw = {
            "n": 1,
            "m": 2,
            "vertices": [1, 2],
            "distances": [[0, 0], [0, 0]],
            "permutations": [[1], [1]],
        }
        with pytest.raises(tg.MalformedInstanceError):
            tg.validate_instance(raw)

    def test_invalid_json_is_malformed(self):
        with pytest.raises(tg.MalformedInstanceError):
            tg.loads_instance("{not json")

    def test_digest_stable_across_roundtrip(self):
        inst = tg.gen_four_line()
        again = tg.loads_instance(tg.dumps_instance(inst))
        assert tg.instance_digest(inst) == tg.instance_digest(again)
        assert len(tg.instance_digest(inst)) == 64


class TestEvaluations:
    def test_evaluate_outcome_consistent(self):
        inst = tg.gen_four_line()
        single = tg.evaluate_outcomes(inst, [(1, 1, 2, 1)])
        assert single.outcomes == ((1, 1, 2, 1),)
        for tag in tg.SOCIAL_TAGS:
            value = tg.social_cost(inst, (1, 1, 2, 1), tag)
            assert single.min_social(tag) == single.max_social(tag) == (value, (1, 1, 2, 1))
        assert tg.social_cost(inst, (1, 1, 2, 1), "D") == tg.bus_distance_total(inst, (1, 1, 2, 1))
        assert single.max_social("E")[0] == 5
        assert single.max_social("U")[0] == 12

    def test_outcome_set_contains_exactly_its_members(self):
        inst = tg.gen_four_line()
        spe = tg.spe_outcomes(inst)
        members = set(spe)
        assert (1, 1, 2, 1) in members
        for sigma in tg.enumerate_outcomes(inst):
            assert spe.contains(sigma) == (sigma in members)
        # (1, 1, 1, 3) has the code of (1, 1, 2, 1); the others have the wrong length or a bad bus.
        for bad in ((1, 1, 1, 3), (1, 1, 2), (1, 1, 2, 1, 1), (0, 1, 2, 1), ("1", 1, 2, 1), (True, 1, 2, 1)):
            assert not spe.contains(bad)

    def test_evaluate_outcomes_dedupes_sorts_and_checks(self):
        inst = tg.gen_four_line()
        group = tg.evaluate_outcomes(inst, [(2, 1, 1, 1), (1, 1, 2, 2), (2, 1, 1, 1)])
        assert group.outcomes == ((1, 1, 2, 2), (2, 1, 1, 1))
        assert list(group) == list(group.outcomes) and len(group) == 2
        for bad in ((1, 1, 1, 3), (0, 1, 1, 1), (True, 1, 1, 1)):
            with pytest.raises(tg.BusOutOfRangeError):
                tg.evaluate_outcomes(inst, [(1, 1, 2, 2), bad])
        with pytest.raises(ValueError, match="outcome has 3 entries"):
            tg.evaluate_outcomes(inst, [(1, 1, 2)])

    def test_empty_set_has_no_extremes(self):
        for empty in (tg.enumerate_nash(NE_FREE), tg.evaluate_outcomes(tg.gen_four_line(), [])):
            assert not empty and empty.outcomes == ()
            for read in (empty.min_social, empty.max_social):
                with pytest.raises(ValueError, match="empty outcome set"):
                    read("U")

    def test_outcome_set_helpers(self):
        inst = tg.gen_four_line()
        group = tg.evaluate_outcomes(inst, [(1, 1, 2, 1), (1, 1, 2, 2)])
        assert len(group) == 2
        assert group.contains((1, 1, 2, 2))
        assert not group.contains((2, 2, 2, 2))
        assert group.min_social("E") == (F(3), (1, 1, 2, 2))
        assert group.max_social("E") == (F(5), (1, 1, 2, 1))

    def test_ne_free_fixture_is_valid(self):
        assert NE_FREE.n == 3 and NE_FREE.m == 2
