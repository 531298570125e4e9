"""Backend plumbing: scaled views, selection rules, and pure/compiled parity."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

import transportgames as tg
from transportgames import _kernel_py, engine
from transportgames.analysis import serialize_report
from transportgames.engine import resolve_backend, scaled_view

from support import random_instance

compiled = pytest.mark.skipif(not tg.compiled_available(), reason="compiled kernels not built")


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
    return scale, dist, perms, max(dist)


class TestScaledView:
    def test_matches_recomputation_for_every_family(self):
        assert set(FAMILY_PARAMS) == set(tg.FAMILIES)
        for tag, param_sets in FAMILY_PARAMS.items():
            for params in param_sets:
                inst = tg.build_family(tag, params)
                view = scaled_view(inst)
                assert (view.scale, view.dist, view.perms, view.max_entry) == recomputed_view(inst), (tag, params)

    def test_common_denominator(self):
        inst = tg.gen_zero_cluster_far(4, 2, F(1, 10))
        view = scaled_view(inst)
        assert view.scale == 10
        assert view.to_fraction(21) == F(21, 10)
        assert len(view.dist) == 25
        assert max(view.dist) == view.max_entry

    def test_big_values_fall_back_to_pure(self):
        huge = 2**70
        inst = tg.Instance(1, 2, ((0, huge), (huge, 0)), ((1,), (1,)))
        view = scaled_view(inst)
        assert not view.fits_int64()
        assert engine.backend_name(resolve_backend(view)) == "pure"
        # results stay exact far beyond int64
        assert tg.optimal_social(inst, "U")[0] == huge

    def test_forced_backend_names(self):
        view = scaled_view(tg.gen_four_line())
        assert engine.backend_name(resolve_backend(view, "pure")) == "pure"
        with pytest.raises(ValueError):
            resolve_backend(view, "fastest")

    def test_env_forces_pure(self, monkeypatch):
        monkeypatch.setenv(engine.ENV_FORCE_PURE, "1")
        view = scaled_view(tg.gen_four_line())
        assert engine.backend_name(resolve_backend(view)) == "pure"


@compiled
class TestBackendParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_kernels_agree(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng, metric=bool(seed % 2))
        view = scaled_view(inst)
        fast = resolve_backend(view, "compiled")
        order = tuple(range(view.n))
        for fcodes in ((0, 1, 2), (2,), ()):
            args = (view.n, view.m, view.dist, view.perms, fcodes, view.m)
            assert _kernel_py.scan_social(*args) == fast.scan_social(*args)
            for collect in (True, False):
                assert _kernel_py.scan_nash(*args, collect) == fast.scan_nash(*args, collect)
        assert _kernel_py.spe_codes(view.n, view.m, view.dist, view.perms, order, 10**6) == list(
            fast.spe_codes(view.n, view.m, view.dist, view.perms, order, 10**6)
        )
        assert _kernel_py.zermelo_code(view.n, view.m, view.dist, view.perms, order) == fast.zermelo_code(
            view.n, view.m, view.dist, view.perms, order
        )

    def test_public_api_agrees_across_backends(self):
        inst = tg.gen_group_levels(1, 2, 10)
        assert tg.spe_outcomes(inst, backend="pure").outcomes == tg.spe_outcomes(inst, backend="compiled").outcomes
        assert tg.enumerate_nash(inst, backend="pure").outcomes == tg.enumerate_nash(inst, backend="compiled").outcomes
        assert (
            tg.optimal_social(inst, "E", backend="pure") == tg.optimal_social(inst, "E", backend="compiled")
        )
        for mode in ("simultaneous", "sequential"):
            pure = tg.analyze(inst, mode, backend="pure")
            fast = tg.analyze(inst, mode, backend="compiled")
            assert serialize_report(pure) == serialize_report(fast)

    def test_compiled_set_overflow(self):
        inst = tg.gen_zero_cluster_single(3)
        with pytest.raises(tg.SetOverflowError):
            tg.spe_outcomes(inst, node_set_cap=5, backend="compiled")

    def test_compiled_refuses_overflowing_values(self):
        huge = 2**70
        inst = tg.Instance(1, 2, ((0, huge), (huge, 0)), ((1,), (1,)))
        with pytest.raises(RuntimeError):
            resolve_backend(scaled_view(inst), "compiled")
