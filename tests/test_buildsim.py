"""Surrogate environment tests: weather generation, hand-evaluated Euler
steps, conservation properties, the rule controller, and trajectory I/O."""
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvacrl import buildsim
from hvacrl.buildsim import (
    BUILDINGS,
    WEATHER_PRESETS,
    BuildingEnv,
    EnvConfig,
    EnvState,
    EpisodeDriver,
    GainSchedule,
    PowerBreakdown,
    SyntheticWeather,
    WeatherTrace,
    load_weather_trace,
    read_trajectory_csv,
    rule_controller,
    run_episode,
    weather_at,
    write_trajectory_csv,
)
from hvacrl.errors import DataError, SimulationFault, SpecError

DC, MU = BUILDINGS["dc"], BUILDINGS["mu"]


def flat_weather(mean_c, dt_s=600.0, rh=50.0):
    """Constant weather: zero amplitudes, zero noise."""
    return SyntheticWeather(name="flat", mean_c=mean_c, annual_amp_c=0.0,
                            diurnal_amp_c=0.0, mean_rh=rh, rh_amp=0.0,
                            dt_s=dt_s, noise_scale=0.0)


def with_thermal(building, **changes):
    """``building`` with those thermal parameters changed."""
    return dataclasses.replace(
        building, thermal=dataclasses.replace(building.thermal, **changes))


def dc_state(temps, step=0):
    return EnvState(zone_temps_c=np.asarray(temps, dtype=float),
                    gain_phase=0.0, step_index=step)


class TestWeather:
    def test_zero_amplitude_zero_noise_is_constant(self):
        model = flat_weather(21.5)
        for step in (0, 7, 144, 10_000):
            t, rh = weather_at(model, step)
            assert t == 21.5
            assert rh == 50.0

    def test_trace_lookup_is_bit_exact(self):
        trace = WeatherTrace(name="t", t_out_c=(1.25, -3.5, 20.0625),
                             rh_pct=(10.0, 20.0, 30.0), dt_s=600.0)
        assert weather_at(trace, 1) == (-3.5, 20.0)
        assert weather_at(trace, 2) == (20.0625, 30.0)

    def test_trace_hold_last_extrapolation(self):
        trace = WeatherTrace(name="t", t_out_c=(1.0, 2.0), rh_pct=(5.0, 6.0),
                             dt_s=600.0)
        assert weather_at(trace, 99) == (2.0, 6.0)

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=30, deadline=None)
    def test_synthetic_deterministic_and_in_range(self, step):
        model = WEATHER_PRESETS["chicago"]
        first = weather_at(model, step)
        second = weather_at(model, step)
        assert first == second
        assert model.t_min_c <= first[0] <= model.t_max_c
        assert 0.0 <= first[1] <= 100.0

    def test_negative_step_rejected(self):
        with pytest.raises(SpecError):
            weather_at(flat_weather(20.0), -1)

    def test_presets_cover_both_facilities(self):
        for b in BUILDINGS.values():
            for name in b.train_presets + (b.eval_preset,):
                assert name in WEATHER_PRESETS

    @pytest.mark.parametrize("name", sorted(WEATHER_PRESETS))
    def test_noise_path_matches_scalar_recursion(self, name, monkeypatch):
        monkeypatch.setattr(buildsim, "_NOISE_PATHS", {})
        model = WEATHER_PRESETS[name]
        path = buildsim._noise_path(model, 52_560)     # one year of steps
        # reference: the OU recursion stepped on numpy scalars
        z = np.random.default_rng(model.seed).standard_normal(len(path) + 1)
        theta, sigma = model.noise_rate, model.noise_scale
        shock_scale = sigma * math.sqrt(max(2.0 * theta - theta * theta, 0.0))
        ref = np.empty(len(path))
        x = sigma * z[0]
        for k in range(len(path)):
            x = (1.0 - theta) * x + shock_scale * z[k + 1]
            ref[k] = x
        assert path.dtype == np.float64
        assert path.tobytes() == ref.tobytes()

    def test_trace_csv_roundtrip_and_validation(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("step,t_out_c,rh_pct\n0,10.5,55\n1,11.25,56\n")
        trace = load_weather_trace(path, dt_s=600.0)
        assert trace.t_out_c == (10.5, 11.25)
        bad = tmp_path / "bad.csv"
        bad.write_text("step,temp,rh\n0,1,2\n")
        with pytest.raises(DataError):
            load_weather_trace(bad, dt_s=600.0)
        gap = tmp_path / "gap.csv"
        gap.write_text("step,t_out_c,rh_pct\n0,1,2\n2,3,4\n")
        with pytest.raises(DataError):
            load_weather_trace(gap, dt_s=600.0)
        odd = tmp_path / "nonfinite.csv"
        for row in ("0,nan,50", "0,10,inf"):
            odd.write_text(f"step,t_out_c,rh_pct\n{row}\n")
            with pytest.raises(DataError, match="finite"):
                load_weather_trace(odd, dt_s=600.0)


class TestStepDatacenter:
    def quiet(self, **changes):
        # default fabric but no internal gains
        return with_thermal(DC, gains=GainSchedule((0.0, 0.0), (0.0, 0.0)),
                            **changes)

    def test_equilibrium_state_is_fixed_point(self):
        state = dc_state([22.0, 22.0])
        act = np.array([22.0, 22.0, 1.75, 1.75])
        new, obs, power = self.quiet().step(state, act, flat_weather(22.0))
        assert np.array_equal(new.zone_temps_c, [22.0, 22.0])
        assert power.coil_w == 0.0

    def test_insulated_unforced_zones_hold_temperature(self):
        building = self.quiet(outdoor_r_k_per_w=(math.inf, math.inf))
        state = dc_state([24.0, 24.0])
        act = np.array([24.0, 24.0, 1.75, 1.75])
        new, _, _ = building.step(state, act, flat_weather(35.0))
        assert np.array_equal(new.zone_temps_c, [24.0, 24.0])

    def test_one_step_matches_hand_evaluated_update(self):
        # worked example on the frozen defaults: both zones at 22 degC,
        # outdoor 30 degC, supply 16 degC at 4 kg/s, gains at their base
        state = dc_state([22.0, 22.0])
        act = np.array([16.0, 16.0, 4.0, 4.0])
        new, obs, power = DC.step(state, act, flat_weather(30.0))

        flux = (30.0 - 22.0) / 0.05 + 35000.0 + 4.0 * 1005.0 * (16.0 - 22.0)
        assert flux == 11040.0
        expected_temp = 22.0 + 600.0 * flux / 6.4e7
        assert expected_temp == pytest.approx(22.1035, abs=1e-12)
        assert new.zone_temps_c == pytest.approx([expected_temp] * 2, abs=1e-9)

        cop = 3.5 - 0.05 * (30.0 - 15.0)
        coil = 2 * 4.0 * 1005.0 * (22.0 - 16.0) / cop
        fan = 2 * 30.0 * 4.0 ** 3
        assert cop == 2.75
        assert power.fan_w == pytest.approx(fan)          # 3840 W
        assert power.coil_w == pytest.approx(coil)        # 17541.82 W
        assert power.building_w == pytest.approx(70000.0)
        assert power.total_w == pytest.approx(70000.0 + fan + coil)
        assert power.pue == pytest.approx((70000.0 + fan + coil) / 70000.0)

        # observation is the projection of the new state and breakdown
        assert obs[5] == pytest.approx(expected_temp, abs=1e-9)
        assert obs[0] == pytest.approx(power.total_w / 1000.0)
        assert obs[7] == pytest.approx(power.pue)

    def test_cop_floor_at_one(self):
        params = DC.thermal
        assert params.cop(15.0) == 3.5
        assert params.cop(100.0) == 1.0

    def test_nan_input_raises_simulation_fault(self):
        from hvacrl.errors import SimulationFault
        state = dc_state([np.nan, 22.0])
        act = np.array([16.0, 16.0, 4.0, 4.0])
        with pytest.raises(SimulationFault) as exc:
            DC.step(state, act, flat_weather(30.0))
        assert exc.value.state_dump is not None


class TestStepMixeduse:
    def test_zero_flow_means_zero_hvac_power(self):
        state = EnvState(zone_temps_c=np.array([25.0, 25.0, 25.0]),
                         gain_phase=0.0, step_index=0)
        act = np.array([22.0, 15.0, 15.0, 0.0, 0.0])
        new, _, power = MU.step(state, act, flat_weather(30.0, dt_s=900.0))
        assert power.fan_w == 0.0
        assert power.coil_w == 0.0
        # temperatures still move with envelope and gains
        assert not np.array_equal(new.zone_temps_c, state.zone_temps_c)

    def test_zone4_ignores_commanded_setpoint(self):
        act_low = np.array([16.0, 14.0, 14.0, 0.7, 0.7])
        act_high = np.array([26.0, 14.0, 14.0, 0.7, 0.7])
        outs = []
        for act in (act_low, act_high):
            state = EnvState(zone_temps_c=np.array([25.0, 25.0, 25.0]),
                             gain_phase=0.0, step_index=0)
            new, _, _ = MU.step(state, act, flat_weather(30.0, dt_s=900.0))
            outs.append(new.zone_temps_c.copy())
        assert outs[0][0] == outs[1][0]          # zone 4 unaffected
        assert outs[0][1] != outs[1][1]          # zone 5 follows the command

    def test_one_step_matches_hand_evaluated_update(self):
        # worked example: all zones 25 degC, outdoor 30 degC, both AHUs at
        # 15 degC supply and half flow, commanded zone setpoint 22 degC;
        # every damper saturates fully open
        state = EnvState(zone_temps_c=np.array([25.0, 25.0, 25.0]),
                         gain_phase=0.0, step_index=0)
        act = np.array([22.0, 15.0, 15.0, 0.5, 0.5])
        new, _, power = MU.step(state, act, flat_weather(30.0, dt_s=900.0))

        q4 = 0.5 * 0.2 * 1005.0 * (15.0 - 25.0)     # -1005 W
        q5 = 0.5 * 1.2 * 1005.0 * (15.0 - 25.0)     # -6030 W
        q6 = 0.5 * 1.8 * 1005.0 * (15.0 - 25.0)     # -9045 W
        t4 = 25.0 + 900.0 * ((30.0 - 25.0) / 0.08 + 600.0 + q4) / 4.0e6
        t5 = 25.0 + 900.0 * ((30.0 - 25.0) / 0.06 + 2500.0 + q5) / 1.2e7
        t6 = 25.0 + 900.0 * ((30.0 - 25.0) / 0.015 + 3000.0 + q6) / 4.8e7
        assert new.zone_temps_c == pytest.approx([t4, t5, t6], abs=1e-9)
        assert t4 == pytest.approx(24.9229375, abs=1e-6)
        assert t5 == pytest.approx(24.741500, abs=1e-6)
        assert t6 == pytest.approx(24.8929062, abs=1e-6)

        cop = 2.75
        fan = 80.0 * (0.5 * 1.2) ** 3 + 80.0 * (0.5 * 2.0) ** 3
        assert power.fan_w == pytest.approx(fan)              # 97.28 W
        assert power.coil_w == pytest.approx(-(q4 + q5 + q6) / cop)
        assert power.building_w == pytest.approx(6100.0)

    def test_damper_admits_warm_air_when_too_cold(self):
        state = EnvState(zone_temps_c=np.array([18.0, 18.0, 18.0]),
                         gain_phase=0.0, step_index=0)
        # zone 5 below its 24 degC setpoint, supply warmer than the zone
        act = np.array([24.0, 28.0, 28.0, 1.0, 0.0])
        new, _, power = MU.step(state, act, flat_weather(18.0, dt_s=900.0))
        assert new.zone_temps_c[1] > 18.0
        assert power.coil_w > 0.0


class TestInvariants:
    def test_insulated_network_conserves_thermal_energy(self):
        # no envelope, no gains, no flow: sum(C_i T_i) must stay constant
        building = with_thermal(
            MU, outdoor_r_k_per_w=(math.inf,) * 3,
            gains=GainSchedule((0.0,) * 3, (0.0,) * 3))
        state = EnvState(zone_temps_c=np.array([28.0, 19.0, 23.0]),
                         gain_phase=0.0, step_index=0)
        act = np.array([22.0, 15.0, 15.0, 0.0, 0.0])
        weather = flat_weather(35.0, dt_s=900.0)
        caps = np.array(building.thermal.capacity_j_per_k)
        initial = float(caps @ state.zone_temps_c)
        for _ in range(10_000):
            state, _, _ = building.step(state, act, weather)
        final = float(caps @ state.zone_temps_c)
        assert abs(final - initial) / abs(initial) <= 1e-6
        # and the zones equilibrate toward each other
        assert np.ptp(state.zone_temps_c) < np.ptp([28.0, 19.0, 23.0])

    def test_euler_stability_guard_rejects_bad_dt(self):
        # wide-open flow gives G = 1/R_out + 1/R_coupling + m_max c_p
        # ~= 7105 W/K per zone, so dt must stay below C/G ~= 9008 s
        base = DC.thermal
        with pytest.raises(SpecError, match="unstable"):
            dataclasses.replace(base, dt_s=10800.0)
        dataclasses.replace(base, dt_s=3600.0)   # still fine

    def test_gain_schedule_validation(self):
        with pytest.raises(SpecError):
            GainSchedule(base_w=(100.0,), amplitude_w=(200.0,))

    @pytest.mark.parametrize("kind", ["dc", "mu"])
    def test_random_admissible_actions_keep_temps_bounded(self, kind):
        env = BuildingEnv(EnvConfig(kind=kind, days=2.0))
        rng = np.random.default_rng(0)
        lo, hi = env.act_spec.lows, env.act_spec.highs
        env.reset(seed=1)
        for _ in range(min(env.horizon, 250)):
            act = rng.uniform(lo, hi)
            _, _, done, info = env.step(act)
            temps = info["zone_temps"]
            assert np.all(np.isfinite(temps))
            assert np.all(temps > -50.0) and np.all(temps < 100.0)
            assert info["power"].pue >= 1.0
            if done:
                break


class TestRuleController:
    def test_on_target_gives_neutral_action(self):
        obs = np.array([90.0, 20.0, 70.0, 30.0, 60.0, 22.0, 22.0, 1.3])
        act = rule_controller(obs, "dc")
        assert np.array_equal(act, [22.0, 22.0, 1.75, 1.75])

        obs_mu = np.array([8.0, 3.0, 5.0, 55.0, 20.0, 23.5, 23.5, 23.5])
        act_mu = rule_controller(obs_mu, "mu")
        assert np.array_equal(act_mu, [23.5, 23.5, 23.5, 0.0, 0.0])

    def test_large_error_saturates_at_the_action_bounds(self):
        obs = np.array([90.0, 20.0, 70.0, 30.0, 60.0, 27.0, 27.0, 1.3])
        act = rule_controller(obs, "dc")
        assert np.array_equal(act, [10.0, 10.0, 7.0, 7.0])

    def test_deadband_boundary(self):
        inside = np.array([90.0, 20.0, 70.0, 30.0, 60.0, 22.5, 21.5, 1.3])
        act = rule_controller(inside, "dc")
        assert np.array_equal(act, [22.0, 22.0, 1.75, 1.75])
        outside = np.array([90.0, 20.0, 70.0, 30.0, 60.0, 22.6, 22.0, 1.3])
        act2 = rule_controller(outside, "dc")
        assert act2[0] < 22.0 and act2[2] > 1.75

    def test_heating_side_symmetric(self):
        obs = np.array([90.0, 20.0, 70.0, 30.0, 60.0, 19.0, 22.0, 1.3])
        act = rule_controller(obs, "dc")
        assert act[0] > 22.0     # warm supply air for the cold zone
        assert act[2] > 1.75


class TestEpisodes:
    def test_horizon_one_yields_single_transition(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=1.0)).variant(days=1 / 144)
        assert env.horizon == 1
        [traj] = run_episode([(env, 3)], lambda o: rule_controller(o, "dc"))
        assert len(traj) == 1
        assert traj.terminals[-1]
        assert traj.obs.shape[0] == 2

    def test_same_seed_is_bit_identical(self):
        env = BuildingEnv(EnvConfig(kind="mu", days=1.0))
        [a] = run_episode([(env, 11)], lambda o: rule_controller(o, "mu"))
        [b] = run_episode([(env, 11)], lambda o: rule_controller(o, "mu"))
        assert np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)
        [c] = run_episode([(env, 12)], lambda o: rule_controller(o, "mu"))
        assert not np.array_equal(a.obs, c.obs)

    # sha256 of the obs, actions, rewards, zone_temps and total_power_w
    # bytes of a one-day and a 30-day rule-controlled episode from seed 3;
    # the path runs no BLAS, so the bytes do not depend on the thread count
    GOLDEN = {
        ("dc", 1.0): "df04e1729f4261a071841029d4662c08749a75b8ec90d624cd2f7a5e19e049e6",
        ("mu", 1.0): "4d11677c719f6e7f1fd50dd681a0c154cd9835e5abcff78fd5e1d9380ec72451",
        ("dc", 30.0): "9004e301fc9486fffe431d2a55ae1cc9f18ce28f6e92a7731b4a4dd8c7400aed",
        ("mu", 30.0): "3e3d9ddc5761f74e78baff0f433464737d2a9939818213ca5befe46ca3506253",
    }

    @pytest.mark.parametrize("kind, days", list(GOLDEN),
                             ids=["dc", "mu", "dc-30d", "mu-30d"])
    def test_rule_trajectory_bytes_are_pinned(self, kind, days):
        env = BuildingEnv(EnvConfig(kind=kind, days=days))
        [traj] = run_episode([(env, 3)], lambda o: rule_controller(o, kind))
        assert len(traj) == env.horizon
        digest = hashlib.sha256()
        for name in ("obs", "actions", "rewards", "zone_temps",
                     "total_power_w"):
            arr = getattr(traj, name)
            assert arr.dtype == np.float64
            digest.update(arr.tobytes())
        assert digest.hexdigest() == self.GOLDEN[kind, days]

    @pytest.mark.parametrize("kind", ["dc", "mu"])
    def test_fault_on_first_step_raises(self, kind):
        env = BuildingEnv(EnvConfig(kind=kind, days=1.0))
        nan_action = np.full(env.act_spec.size, np.nan)
        with pytest.raises(SimulationFault, match="non-finite"):
            run_episode([(env, 3)], lambda o: nan_action)
        # the fault leaves nothing behind in the env: a rerun is unchanged
        rule = lambda o: rule_controller(o, kind)
        [a] = run_episode([(env, 3)], rule)
        [b] = run_episode([(BuildingEnv(EnvConfig(kind=kind, days=1.0)), 3)],
                          rule)
        assert np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.actions, b.actions)

    @pytest.mark.parametrize("kind", ["dc", "mu"])
    def test_fault_in_one_lane_raises(self, kind):
        env = BuildingEnv(EnvConfig(kind=kind, days=0.25))
        rule = lambda o: rule_controller(o, kind)
        nan_action = np.full(env.act_spec.size, np.nan)
        calls = iter(range(10 ** 6))

        def controller(obs):
            # lanes are called in lane order: the second lane's sixth step
            return nan_action if next(calls) == 3 * 5 + 1 else rule(obs)

        with pytest.raises(SimulationFault, match="non-finite"):
            run_episode([(env, s) for s in (3, 4, 5)], controller)

    def test_lanes_of_two_horizons_are_rejected(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.25))
        with pytest.raises(SpecError, match="one horizon"):
            EpisodeDriver([(env, 3), (env.variant(days=0.5), 4)],
                          lambda o: rule_controller(o, "dc"))

    def test_recording_holds_about_one_copy_of_the_trajectory(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=30.0))
        rule = lambda o: rule_controller(o, "dc")
        run_episode([(env, 3)], rule)   # builds the weather's noise path
        tracemalloc.start()
        [traj] = run_episode([(env, 3)], rule)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        held = sum(getattr(traj, name).nbytes for name in (
            "obs", "actions", "rewards", "zone_temps", "total_power_w",
            "terminals"))
        assert peak <= 1.5 * held, peak / held

    def test_env_fingerprint_tracks_config(self):
        f1 = BuildingEnv(EnvConfig(kind="dc", days=2.0)).fingerprint()
        f2 = BuildingEnv(EnvConfig(kind="dc", days=2.0)).fingerprint()
        f3 = BuildingEnv(EnvConfig(kind="dc", days=3.0)).fingerprint()
        assert f1 == f2 != f3

    # each kind's environment, observation and action fingerprints: every
    # parameter, name, unit and range of both buildings reaches a pin
    FINGERPRINTS = {"dc": ("ad7b9b755e3c", "ef4e1cbd9b45", "fc08a471f0c8"),
                    "mu": ("d6aef95e92a5", "7423fa2b3f12", "ddeff7aca019")}

    @pytest.mark.parametrize("kind", sorted(FINGERPRINTS))
    def test_env_and_spec_fingerprints_are_pinned(self, kind):
        env = BuildingEnv(EnvConfig(kind=kind))
        assert (env.fingerprint(), env.obs_spec.fingerprint(),
                env.act_spec.fingerprint()) == self.FINGERPRINTS[kind]

    def test_variant_keeps_parameters_and_reuses_unchanged_env(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=1.0))
        assert env.variant() is env
        assert env.variant(weather="", days=1.0) is env
        other = env.variant(weather="chicago", days=0.5)
        assert other.config.weather == "preset:chicago"
        assert other.horizon == env.horizon // 2
        assert other.building is env.building
        assert other.reward_params == env.reward_params
        assert other.variant(weather="preset:chicago") is other

    def test_trajectory_csv_roundtrip_is_exact(self, tmp_path):
        env = BuildingEnv(EnvConfig(kind="dc", days=1.0)).variant(days=25 / 144)
        assert env.horizon == 25
        [traj] = run_episode([(env, 5)], lambda o: rule_controller(o, "dc"))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back["obs"], traj.obs[1:])
        assert np.array_equal(back["actions"], traj.actions)
        assert np.array_equal(back["rewards"], traj.rewards)
        assert np.array_equal(back["terminals"], traj.terminals)

    def test_trajectory_csv_roundtrip_keeps_negative_zero_and_one_row(
            self, tmp_path):
        env = BuildingEnv(EnvConfig(kind="dc", days=1.0)).variant(days=1 / 144)
        [traj] = run_episode([(env, 3)], lambda o: rule_controller(o, "dc"))
        assert len(traj) == 1
        traj.obs[1, 0] = -0.0
        traj.actions[0, 1] = -0.0
        traj.rewards[0] = 5e-324       # the smallest subnormal
        path = tmp_path / "one.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert back["obs"].shape == (1, env.obs_spec.size)
        for name, want in (("obs", traj.obs[1:]), ("actions", traj.actions),
                           ("rewards", traj.rewards)):
            assert back[name].tobytes() == want.tobytes()
        assert np.array_equal(back["terminals"], [True])

    def test_config_validation(self):
        with pytest.raises(SpecError):
            EnvConfig(kind="xx")
        with pytest.raises(SpecError):
            EnvConfig(days=0)
        with pytest.raises(SpecError):
            BuildingEnv(EnvConfig(weather="preset:nowhere"))
        with pytest.raises(SpecError):
            BuildingEnv(EnvConfig(weather="tape:xyz"))
