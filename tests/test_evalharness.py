"""Evaluation harness tests: metric oracles, report plumbing, atomic
result directories, and a miniature end-to-end sweep checked for
determinism and cache reuse."""
import json
import os
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvacrl.agents import AgentConfig, make_agent
from hvacrl.buildsim import (EVAL_PRESET, TRAIN_PRESETS, BuildingEnv,
                             EnvConfig, rule_controller)
from hvacrl.datagen import read_dataset
from hvacrl.errors import DataError, FingerprintMismatchError, UsageError
from hvacrl.evalharness import (
    RQ4_NOISE,
    TEMP_CHANNELS,
    HarnessConfig,
    RunReport,
    SweepResult,
    _write_cell,
    audit_violation_from_csv,
    base_env,
    ensure_expert,
    evaluate_policy,
    load_cell,
    rule_baseline_report,
    run_rq1,
    run_rq2,
    run_rq3,
    run_rq4,
    run_rq5,
    spearman_rho,
    temperature_quantiles,
    violation_fraction,
)


class TestViolationFraction:
    def test_all_inside_band_counts_zero(self):
        temps = np.full((50, 2), 22.0)
        assert violation_fraction(temps, (21.0, 21.0), (23.0, 23.0)) == 0.0

    def test_one_zone_always_outside_gives_half(self):
        temps = np.column_stack([np.full(40, 22.0), np.full(40, 25.0)])
        assert violation_fraction(temps, (21.0, 21.0), (23.0, 23.0)) == 0.5

    def test_hand_counted_example(self):
        # zone 0: 3 hot steps; zone 1: 2 cold steps -> 5 of 20 zone-steps
        z0 = np.array([22.0, 23.5, 22.0, 24.0, 22.0, 22.0, 25.0, 22.0,
                       22.0, 22.0])
        z1 = np.array([22.0, 22.0, 20.0, 22.0, 22.0, 20.9, 22.0, 22.0,
                       22.0, 22.0])
        temps = np.column_stack([z0, z1])
        assert violation_fraction(temps, (21.0, 21.0), (23.0, 23.0)) == \
            pytest.approx(5 / 20)

    def test_band_edges_are_not_violations(self):
        temps = np.array([[21.0, 23.0], [23.0, 21.0]])
        assert violation_fraction(temps, (21.0, 21.0), (23.0, 23.0)) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            violation_fraction(np.zeros((10, 3)), (21.0,) * 2, (23.0,) * 2)
        with pytest.raises(DataError):
            violation_fraction(np.zeros(10), (21.0,), (23.0,))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_zone_average(self, seed):
        rng = np.random.default_rng(seed)
        temps = rng.uniform(18.0, 27.0, size=(rng.integers(1, 60), 2))
        lo, hi = (21.0, 21.0), (23.0, 23.0)
        whole = violation_fraction(temps, lo, hi)
        per_zone = [violation_fraction(temps[:, [z]], (21.0,), (23.0,))
                    for z in range(2)]
        assert 0.0 <= whole <= 1.0
        assert whole == pytest.approx(np.mean(per_zone))


class TestTemperatureQuantiles:
    def test_five_number_summary(self):
        temps = np.column_stack([np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                                 np.array([10.0, 10.0, 10.0, 10.0, 10.0])])
        q = temperature_quantiles(temps)
        assert q[0] == {"min": 1.0, "q25": 2.0, "median": 3.0, "q75": 4.0,
                        "max": 5.0, "iqr": 2.0}
        assert q[1]["iqr"] == 0.0 and q[1]["median"] == 10.0


class TestRunReport:
    def good_kwargs(self):
        return dict(avg_reward=0.5, violation=0.1, avg_power_kw=80.0,
                    episode_return=50.0, zone_quantiles=[], seed=0,
                    config_fingerprint="abc")

    def test_rejects_violation_outside_unit_interval(self):
        with pytest.raises(DataError):
            RunReport(**{**self.good_kwargs(), "violation": 1.2})
        with pytest.raises(DataError):
            RunReport(**{**self.good_kwargs(), "violation": -0.1})

    def test_rejects_negative_power(self):
        with pytest.raises(DataError):
            RunReport(**{**self.good_kwargs(), "avg_power_kw": -3.0})

    def test_jsonable_roundtrip(self):
        rep = RunReport(**self.good_kwargs())
        back = RunReport.from_jsonable(json.loads(json.dumps(rep.to_jsonable())))
        assert asdict(back) == asdict(rep)


class TestEvaluatePolicy:
    def rule(self, kind="dc"):
        fn = lambda obs: rule_controller(obs, kind)
        fn.__name__ = "rule"
        return fn

    def test_one_report_per_seed_with_consistent_totals(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.5))
        reports = evaluate_policy(self.rule(), env, seeds=(0, 1))
        assert len(reports) == 2
        for rep in reports:
            assert rep.steps == env.horizon
            assert rep.episode_return == pytest.approx(
                rep.avg_reward * rep.steps, rel=1e-9)
            assert 0.0 <= rep.violation <= 1.0
            assert rep.avg_power_kw > 0.0
            assert len(rep.zone_quantiles) == 2

    def test_repeat_evaluation_is_identical(self):
        env = BuildingEnv(EnvConfig(kind="mu", days=0.5))
        a = evaluate_policy(self.rule("mu"), env, seeds=(3,))[0]
        b = evaluate_policy(self.rule("mu"), env, seeds=(3,))[0]
        assert asdict(a) == asdict(b)

    def test_weather_override_reaches_report(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.5))
        rep = evaluate_policy(self.rule(), env, weather="hong_kong",
                              seeds=(0,))[0]
        assert rep.weather == "hong_kong"

    def test_csv_audit_recount_matches_report(self, tmp_path):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.5))
        rep = evaluate_policy(self.rule(), env, seeds=(0,),
                              out_dir=tmp_path)[0]
        rp = env.reward_params
        recount = audit_violation_from_csv(tmp_path / "trajectory_seed0.csv",
                                           "dc", rp.band_low, rp.band_high)
        assert recount == rep.violation

    def test_checkpoint_dimension_mismatch_rejected(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.5))
        wrong = make_agent(AgentConfig(algo="sac"), obs_dim=8, act_dim=5)
        with pytest.raises(FingerprintMismatchError):
            evaluate_policy(wrong, env, seeds=(0,))

    def test_observed_temperature_channels_track_state(self):
        for kind in ("dc", "mu"):
            env = BuildingEnv(EnvConfig(kind=kind, days=0.5))
            obs = env.reset(seed=0)
            act = rule_controller(obs, kind)
            obs, _, _, info = env.step(act)
            assert obs.values[TEMP_CHANNELS[kind]] == pytest.approx(
                info["zone_temps"])


class TestRuleBaseline:
    def test_covers_training_and_holdout_presets(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.5))
        reports = rule_baseline_report(env, horizon=0.5, seeds=(0,))
        expected = list(TRAIN_PRESETS["dc"]) + [EVAL_PRESET["dc"]]
        assert [r.weather for r in reports] == expected

    def test_explicit_preset_list(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.5))
        reports = rule_baseline_report(env, presets=["tampa"], seeds=(0, 1))
        assert [r.weather for r in reports] == ["tampa", "tampa"]


class TestHarnessConfig:
    def test_validation(self):
        with pytest.raises(UsageError):
            HarnessConfig(env_kind="office")
        with pytest.raises(UsageError):
            HarnessConfig(seeds=-1)
        with pytest.raises(UsageError):
            HarnessConfig(jobs=0)

    def test_fingerprint_ignores_location_and_workers(self):
        a = HarnessConfig(out_dir="x", jobs=1, skip_existing=True)
        b = HarnessConfig(out_dir="y", jobs=8, skip_existing=False)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != HarnessConfig(env_kind="mu").fingerprint()

    def test_noise_point_defined_per_environment(self):
        for kind in ("dc", "mu"):
            eps, sigma = RQ4_NOISE[kind]
            assert 0.0 < eps <= 1.0 and sigma > 0.0


class TestCellArtifacts:
    def test_write_then_load_roundtrip(self, tmp_path):
        report = {"rq": "rq9", "cell": "k", "seeds": [{"seed": 0}]}
        rows = [{"epoch": 1, "avg_reward": 0.5}, {"epoch": 2, "avg_reward": 0.6}]
        cell_dir = _write_cell(tmp_path, "rq9", "fp123", report, rows,
                               {"note": 1})
        assert (cell_dir / "report.json").exists()
        assert (cell_dir / "curve.csv").read_text().splitlines()[0] == \
            "avg_reward,epoch"
        assert (cell_dir / "quality.json").exists()
        assert load_cell(tmp_path, "rq9", "fp123") == report

    def test_missing_cell_loads_none(self, tmp_path):
        assert load_cell(tmp_path, "rq9", "nope") is None

    def test_rewrite_is_byte_identical(self, tmp_path):
        report = {"b": 2, "a": 1}
        first = _write_cell(tmp_path, "rq9", "fp", report, [], None)
        blob = (first / "report.json").read_bytes()
        again = _write_cell(tmp_path, "rq9", "fp", dict(report), [], None)
        assert (again / "report.json").read_bytes() == blob


class TestSpearman:
    def test_monotone_extremes(self):
        x = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5]
        y_up = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert spearman_rho(x, y_up) == pytest.approx(1.0)
        assert spearman_rho(x, y_up[::-1]) == pytest.approx(-1.0)

    def test_hand_computed_permutation(self):
        # ranks differ by (1,1,1,1) -> rho = 1 - 6*4/(4*15) = 0.6
        assert spearman_rho([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)

    def test_constant_input_yields_zero(self):
        assert spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0


def tiny_config(out_dir, **overrides) -> HarnessConfig:
    base = dict(
        out_dir=str(out_dir), seeds=1, eval_seed=5, eval_days=0.25,
        data_days=0.5, dataset_steps=360, train_steps=8, epoch_steps=4,
        batch_size=16, expert_steps=40, expert_seq_len=2, expert_batch=16,
        rq5_seq_lens=(1, 2), rq5_batch=16, rq5_train_steps=6)
    base.update(overrides)
    return HarnessConfig(**base)


class TestZeroSeedGrids:
    def test_empty_result_keeps_axes(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=0)
        for runner, rq in ((run_rq1, "rq1"), (run_rq2, "rq2"),
                           (run_rq3, "rq3"), (run_rq4, "rq4"),
                           (run_rq5, "rq5")):
            res = runner(cfg)
            assert res.rq == rq
            assert res.cells == {} and res.curves == {}
            assert res.axes["seeds"] == 0
            assert os.path.exists(res.summary_path)
            assert open(res.summary_path).read() == ""
        # nothing to train, so no expert or dataset is built
        assert not (tmp_path / "datasets").exists()
        assert not (tmp_path / "experts").exists()

    def test_validate_flags_missing_seeds(self):
        res = SweepResult(rq="rq5", axes={})
        res.cells["k"] = []
        with pytest.raises(DataError):
            res.validate(min_seeds=1)


class TestExpertCache:
    def test_checkpoint_reused_across_calls(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = ensure_expert(cfg)
        assert os.path.exists(path)
        stamp = os.path.getmtime(path)
        assert ensure_expert(cfg) == path
        assert os.path.getmtime(path) == stamp

    def test_explicit_path_must_exist(self, tmp_path):
        cfg = tiny_config(tmp_path, expert_path=str(tmp_path / "none.ckpt"))
        with pytest.raises(DataError):
            ensure_expert(cfg)


class TestMiniatureSweep:
    def test_sequence_sweep_end_to_end(self, tmp_path):
        cfg = tiny_config(tmp_path / "a")
        res = run_rq5(cfg)
        assert sorted(res.cells) == ["len01", "len02"]
        res.validate(min_seeds=1)
        for key in res.cells:
            assert len(res.cells[key]) == 1
            assert res.curves[key], "learning curve should not be empty"
            assert os.path.isdir(res.cell_dirs[key])
        assert res.median_metric("len01") == res.cells["len01"][0].avg_reward
        rows = open(res.summary_path).read().splitlines()
        assert len(rows) == 3                        # header + 2 cells
        assert "axis_seq_len" in rows[0]

    def test_rerun_reuses_existing_cells(self, tmp_path):
        cfg = tiny_config(tmp_path / "a")
        first = run_rq5(cfg)
        stamps = {k: os.path.getmtime(os.path.join(d, "report.json"))
                  for k, d in first.cell_dirs.items()}
        second = run_rq5(cfg)
        for key in first.cells:
            assert os.path.getmtime(
                os.path.join(second.cell_dirs[key], "report.json")) == \
                stamps[key]
            assert asdict(second.cells[key][0]) == asdict(first.cells[key][0])

    def test_results_do_not_depend_on_output_location(self, tmp_path):
        blobs = {}
        for name in ("a", "b"):
            cfg = tiny_config(tmp_path / name, jobs=2 if name == "b" else 1)
            res = run_rq5(cfg)
            blobs[name] = {
                key: open(os.path.join(d, "report.json"), "rb").read()
                for key, d in res.cell_dirs.items()}
        assert blobs["a"] == blobs["b"]

    def test_online_mode_cells(self, tmp_path):
        cfg = tiny_config(tmp_path, rq2_modes=("sac",), rq2_seq_len=2,
                          rq2_batch=16, rq2_online_steps=8)
        res = run_rq2(cfg)
        assert sorted(res.cells) == ["sac-flat", "sac-hist"]
        for key in res.cells:
            assert res.cells[key][0].steps == base_env(cfg).horizon

    def test_offline_algorithms_on_both_scenarios(self, tmp_path):
        cfg = tiny_config(tmp_path, rq1_algos=("td3", "cql"))
        res = run_rq1(cfg)
        assert sorted(res.cells) == ["final_buffer-cql", "final_buffer-td3",
                                     "trained-cql", "trained-td3"]
        res.validate(min_seeds=1)
        names = sorted(p.name for p in (tmp_path / "datasets").iterdir())
        assert [n.split("-")[0] for n in names] == ["final", "trained"]
        rows = open(res.summary_path).read().splitlines()
        assert len(rows) == 5 and "axis_scenario" in rows[0]

    def test_quality_grid_writes_quality_per_cell(self, tmp_path):
        cfg = tiny_config(tmp_path, rq3_epsilons=(0.0, 0.2),
                          rq3_sigmas=(0.1,), rq3_dataset_steps=144,
                          rq3_train_steps=8)
        res = run_rq3(cfg)
        assert sorted(res.cells) == ["eps0-sigma0.1", "eps0.2-sigma0.1"]
        assert sorted(res.quality) == sorted(res.cells)
        for key, d in res.cell_dirs.items():
            with open(os.path.join(d, "quality.json")) as f:
                assert json.load(f) == res.quality[key]

    def test_quantity_sweep_subsamples_each_smaller_size(self, tmp_path):
        cfg = tiny_config(tmp_path, rq4_sizes=(72, 360))
        res = run_rq4(cfg)
        assert sorted(res.cells) == ["size360", "size72"]
        subsets = sorted((tmp_path / "datasets").glob("rq4-size72-*.hvds"))
        assert len(subsets) == 1
        assert 72 <= len(read_dataset(subsets[0])) < 360
        assert not list((tmp_path / "datasets").glob("rq4-size360-*"))
