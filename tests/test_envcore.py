import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvacrl import envcore
from hvacrl.envcore import (
    RewardParams,
    compute_reward,
    datacenter_act_spec,
    datacenter_obs_spec,
    datacenter_reward_params,
    denormalize_action,
    mixeduse_act_spec,
    mixeduse_obs_spec,
    mixeduse_reward_params,
    normalize_action,
    normalize_obs,
)
from hvacrl.errors import DataError, SpecError


def reward_oracle(temps, power_w, params):
    """Direct closed-form evaluation, kept independent of compute_reward."""
    r_t = 0.0
    for i, t in enumerate(temps):
        gauss = math.exp(-params.lambda_shape * (t - params.target[i]) ** 2)
        trap = max(t - params.band_high[i], 0.0) + max(params.band_low[i] - t, 0.0)
        r_t += gauss - params.lambda_trapezoid * trap
    return r_t + params.lambda_power * (-power_w)


# The array formulas that the per-float code in `envcore` replaced; the
# functions must reproduce them bit for bit, NaN included.

def normalize_obs_array(obs, spec):
    values = np.asarray(obs, dtype=np.float64)
    return np.clip((values - spec.lows) / spec.span, 0.0, 1.0)


def denormalize_action_array(act_n, spec):
    unit = np.clip(np.asarray(act_n, dtype=np.float64), -1.0, 1.0)
    phys = spec.lows + (unit + 1.0) * 0.5 * spec.span
    return np.clip(phys, spec.lows, spec.highs)


def reward_array(temps, power_w, params):
    temps = np.asarray(temps, dtype=np.float64)
    target, low, high = map(np.asarray, (params.target, params.band_low,
                                         params.band_high))
    gauss = np.exp(-params.lambda_shape * (temps - target) ** 2)
    trap = np.maximum(temps - high, 0.0) + np.maximum(low - temps, 0.0)
    r_temp = float((gauss - params.lambda_trapezoid * trap).sum())
    return r_temp + params.lambda_power * -float(power_w)


def probe_vectors(spec, rng, n=500):
    """In-range, out-of-range and edge vectors for ``spec``."""
    lo, hi = spec.lows, spec.highs
    rows = list(rng.uniform(lo, hi, (n, spec.size)))
    rows += list(rng.uniform(lo - (hi - lo), hi + (hi - lo), (n, spec.size)))
    rows += [lo, hi, lo - 1e-9, hi + 1e-9, np.nextafter(lo, -np.inf),
             np.nextafter(hi, np.inf), (lo + hi) / 2, np.zeros(spec.size),
             np.full(spec.size, -0.0)]
    return rows


ALL_SPECS = [datacenter_obs_spec, mixeduse_obs_spec, datacenter_act_spec,
             mixeduse_act_spec]


class TestArrayFormulaBits:
    @pytest.mark.parametrize("make_spec", ALL_SPECS[:2])
    def test_normalize_obs_matches_array_formula(self, make_spec):
        spec = make_spec()
        for row in probe_vectors(spec, np.random.default_rng(0)):
            got = normalize_obs(row, spec)
            assert got.dtype == np.float64
            assert got.tobytes() == normalize_obs_array(row, spec).tobytes()
        for bad in (np.nan, np.inf, -np.inf):
            row = spec.lows.copy()
            row[-1] = bad
            with pytest.raises(DataError):
                normalize_obs(row, spec)

    @pytest.mark.parametrize("make_spec", ALL_SPECS[2:])
    def test_denormalize_action_matches_array_formula(self, make_spec):
        spec = make_spec()
        rng = np.random.default_rng(1)
        unit_spec = envcore.VectorSpec("act", tuple(
            envcore.DimSpec(d.name, -1.0, 1.0) for d in spec.dims))
        rows = probe_vectors(unit_spec, rng)
        rows += [r.astype(np.float32) for r in rows[:50]]
        for special in (np.nan, np.inf, -np.inf, 1.0 + 1e-12, -1.0 - 1e-12):
            row = rng.uniform(-1.0, 1.0, spec.size)
            row[rng.integers(spec.size)] = special
            rows += [row, np.full(spec.size, special)]
        for row in rows:
            got = denormalize_action(row, spec)
            assert got.dtype == np.float64
            assert got.tobytes() == denormalize_action_array(row, spec).tobytes()

    @pytest.mark.parametrize("make_params", [datacenter_reward_params,
                                             mixeduse_reward_params])
    def test_reward_matches_array_formula(self, make_params):
        params = make_params()
        rng = np.random.default_rng(2)
        rows = list(rng.uniform(10.0, 35.0, (500, params.n_zones)))
        rows += [np.array(v) for v in (params.band_low, params.band_high,
                                       params.target)]
        for temps in rows:
            power = float(rng.uniform(0.0, 2e5))
            got = compute_reward(temps, power, params).total
            assert got.hex() == reward_array(temps, power, params).hex()


class TestSpecs:
    def test_table_dimensions(self):
        assert mixeduse_obs_spec().size == 8
        assert datacenter_obs_spec().size == 8
        assert mixeduse_act_spec().size == 5
        assert datacenter_act_spec().size == 4

    def test_ranges_low_below_high(self):
        for spec in (mixeduse_obs_spec(), datacenter_obs_spec(),
                     mixeduse_act_spec(), datacenter_act_spec()):
            assert np.all(spec.lows < spec.highs)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SpecError):
            envcore.VectorSpec("obs", (envcore.DimSpec("a", 0, 1), envcore.DimSpec("a", 0, 2)))

    def test_bad_range_rejected(self):
        with pytest.raises(SpecError):
            envcore.DimSpec("x", 2.0, 2.0)

    def test_fingerprint_stable_and_distinct(self):
        assert datacenter_obs_spec().fingerprint() == datacenter_obs_spec().fingerprint()
        assert datacenter_obs_spec().fingerprint() != mixeduse_obs_spec().fingerprint()


class TestNormalizeObs:
    def test_outdoor_temp_example(self):
        spec = mixeduse_obs_spec()
        obs = np.array([0, 0, 0, 50, 25.0, 20, 20, 20], dtype=float)
        unit = normalize_obs(obs, spec)
        assert unit[spec.names.index("outdoor_temp")] == pytest.approx(0.7)

    def test_boundaries(self):
        spec = datacenter_obs_spec()
        assert normalize_obs(spec.lows.copy(), spec) == pytest.approx(np.zeros(8))
        assert normalize_obs(spec.highs.copy(), spec) == pytest.approx(np.ones(8))

    def test_clipping_counts(self):
        spec = mixeduse_obs_spec()
        values = spec.lows.copy()
        values[spec.names.index("outdoor_temp")] = 60.0  # above the [-10, 40] range
        unit = normalize_obs(values, spec)
        assert unit[spec.names.index("outdoor_temp")] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(SpecError):
            normalize_obs(np.zeros(3), datacenter_obs_spec())

    def test_non_finite(self):
        values = datacenter_obs_spec().lows.copy()
        values[0] = np.nan
        with pytest.raises(DataError):
            normalize_obs(values, datacenter_obs_spec())


class TestActionNormalization:
    def test_flow_low_maps_to_minus_one(self):
        spec = datacenter_act_spec()
        unit = normalize_action(np.array([25.0, 25.0, 1.75, 1.75]), spec)
        assert unit.dtype == np.float64 and unit.shape == (4,)
        assert unit[2] == pytest.approx(-1.0)
        assert unit[3] == pytest.approx(-1.0)

    def test_midpoint_maps_to_zero(self):
        spec = datacenter_act_spec()
        unit = normalize_action(np.array([25.0, 25.0, 4.375, 4.375]), spec)
        assert unit[0] == pytest.approx(0.0)

    def test_roundtrip_random_actions(self):
        spec = mixeduse_act_spec()
        rng = np.random.default_rng(0)
        phys = spec.lows + rng.random((10_000, spec.size)) * (spec.highs - spec.lows)
        for row in phys[:200]:  # full affine-composition oracle on a slice
            expected = spec.lows + (2 * (row - spec.lows) / (spec.highs - spec.lows) - 1 + 1) / 2 \
                * (spec.highs - spec.lows)
            np.testing.assert_allclose(expected, row, atol=1e-9)
        back = np.array([
            denormalize_action(normalize_action(row, spec), spec)
            for row in phys
        ])
        np.testing.assert_allclose(back, phys, atol=1e-6)

    def test_out_of_range_physical_rejected(self):
        with pytest.raises(DataError):
            normalize_action(np.array([5.0, 25.0, 4.0, 4.0]), datacenter_act_spec())

    def test_denormalize_clips_into_range(self):
        spec = datacenter_act_spec()
        phys = denormalize_action(np.array([2.0, -2.0, 0.0, 0.0]), spec)
        assert phys[0] == spec.highs[0]
        assert phys[1] == spec.lows[1]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, seed):
        spec = datacenter_act_spec()
        rng = np.random.default_rng(seed)
        phys = spec.lows + rng.random(spec.size) * (spec.highs - spec.lows)
        back = denormalize_action(normalize_action(phys, spec), spec)
        np.testing.assert_allclose(back, phys, atol=1e-6)
        unit = normalize_action(phys, spec)
        assert np.all(unit >= -1.0) and np.all(unit <= 1.0)


class TestReward:
    def test_both_zones_on_target_zero_power(self):
        terms = compute_reward(np.array([22.0, 22.0]), 0.0, datacenter_reward_params())
        assert terms.total == pytest.approx(2.0)
        assert terms.temperature == pytest.approx(2.0)
        assert terms.power == 0.0

    def test_documented_datacenter_case(self):
        # T_west=24, T_east=22, 120 kW draw, Table-of-defaults constants.
        terms = compute_reward(np.array([24.0, 22.0]), 120_000.0, datacenter_reward_params())
        expected_rt = (math.exp(-2.0) - 0.1 * 1.0) + 1.0
        assert terms.temperature == pytest.approx(expected_rt, abs=1e-12)
        assert terms.total == pytest.approx(expected_rt - 1.2, abs=1e-12)

    def test_band_boundary_has_zero_trapezoid(self):
        params = datacenter_reward_params()
        at_upper = compute_reward(np.array([23.0, 22.0]), 0.0, params)
        gauss_only = math.exp(-0.5 * 1.0) + 1.0
        assert at_upper.temperature == pytest.approx(gauss_only, abs=1e-12)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(123)
        for params in (datacenter_reward_params(), mixeduse_reward_params()):
            for _ in range(500):
                temps = rng.uniform(5.0, 45.0, size=params.n_zones)
                power = rng.uniform(0.0, 2e5)
                got = compute_reward(temps, power, params)
                assert got.total == pytest.approx(reward_oracle(temps, power, params), abs=1e-9)

    def test_zone_permutation_symmetry(self):
        params = datacenter_reward_params()
        a = compute_reward(np.array([24.5, 20.0]), 1000.0, params)
        b = compute_reward(np.array([20.0, 24.5]), 1000.0, params)
        assert a.total == pytest.approx(b.total, abs=1e-12)

    def test_power_gradient_is_minus_lambda(self):
        params = mixeduse_reward_params()
        temps = np.array([22.0, 23.9, 25.0])
        eps = 100.0
        up = compute_reward(temps, 50_000.0 + eps, params).total
        down = compute_reward(temps, 50_000.0 - eps, params).total
        assert (up - down) / (2 * eps) == pytest.approx(-params.lambda_power, rel=1e-9)

    @given(st.lists(st.floats(-10, 60), min_size=2, max_size=2),
           st.floats(0, 3e5))
    @settings(max_examples=100, deadline=None)
    def test_term_ranges(self, temps, power):
        params = datacenter_reward_params()
        terms = compute_reward(np.array(temps), power, params)
        # Gaussian part per zone is in (0, 1]; trapezoid part is >= 0.
        assert terms.temperature <= params.n_zones + 1e-12
        assert terms.power <= 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            compute_reward(np.array([np.inf, 22.0]), 0.0, datacenter_reward_params())
        with pytest.raises(DataError):
            compute_reward(np.array([22.0, 22.0]), float("nan"), datacenter_reward_params())

