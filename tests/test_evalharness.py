"""Evaluation harness tests: metric oracles, report plumbing, cell result
files, and a miniature end-to-end sweep checked for determinism, cache
reuse and resuming after a failed job."""
import csv
import hashlib
import json
import os
import shutil
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvacrl import evalharness
from hvacrl.agents import AgentConfig, make_agent
from hvacrl.buildsim import BUILDINGS, BuildingEnv, EnvConfig, rule_controller
from hvacrl.cli import main
from hvacrl.datagen import read_dataset
from hvacrl.errors import (DataError, DivergenceError,
                           FingerprintMismatchError, SimulationFault,
                           UsageError)
from hvacrl.evalharness import (
    RQ4_NOISE,
    HarnessConfig,
    CellResult,
    RunReport,
    SeedResult,
    SweepResult,
    _finished_cell,
    _write_cell,
    audit_violation_from_csv,
    base_env,
    claim_lines,
    ensure_expert,
    evaluate_policy,
    expert_config,
    load_sweep,
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
from hvacrl.fingerprint import canonical_json

from test_datagen import nan_on_first_call


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

    def test_history_window_does_not_leak_across_seeds(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.25))
        agent = make_agent(AgentConfig(algo="sac", history=True, seq_len=4,
                                       enc_feat=16, enc_heads=2,
                                       enc_hidden=24, hidden=32, seed=2),
                           env.obs_spec.size, env.act_spec.size)
        both = evaluate_policy(agent, env, seeds=(0, 1))
        alone = evaluate_policy(agent, env, seeds=(1,))
        assert asdict(both[1]) == asdict(alone[0])

    # sha256 of the canonical JSON of three seeds' reports followed by their
    # trajectory CSV bytes, for a flat TD3 and a history SAC (L=4) agent
    EVAL_BYTES = {
        "td3-flat":
            "abe8008c0bd53674b5c1560537facea4c6c1f6d620f31ec2133a30e847f81a7a",
        "sac-history":
            "75b94a391d77f98617897b069c13cd04740b3570548589d4ae4e80b013e1c047"}

    @pytest.mark.parametrize("name", list(EVAL_BYTES))
    def test_report_and_trajectory_bytes_are_pinned(self, name, tmp_path):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.25))
        cfg = (AgentConfig(algo="td3", seed=4) if name == "td3-flat" else
               AgentConfig(algo="sac", history=True, seq_len=4, enc_feat=16,
                           enc_heads=2, enc_hidden=24, hidden=32, seed=2))
        agent = make_agent(cfg, env.obs_spec.size, env.act_spec.size)
        reports = evaluate_policy(agent, env, seeds=(0, 1, 2),
                                  out_dir=tmp_path)
        digest = hashlib.sha256(canonical_json(
            [r.to_jsonable() for r in reports]).encode())
        for seed in (0, 1, 2):
            digest.update((tmp_path / f"trajectory_seed{seed}.csv"
                           ).read_bytes())
        assert digest.hexdigest() == self.EVAL_BYTES[name]

    def test_fault_raises_before_any_csv_is_written(self, tmp_path):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.25))
        agent = nan_on_first_call(make_agent(
            AgentConfig(algo="td3", seed=4), env.obs_spec.size,
            env.act_spec.size))
        with pytest.raises(SimulationFault):
            evaluate_policy(agent, env, seeds=(0, 1, 2), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_dimension_mismatch_rejected(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.5))
        wrong = make_agent(AgentConfig(algo="sac"), obs_dim=8, act_dim=5)
        with pytest.raises(FingerprintMismatchError):
            evaluate_policy(wrong, env, seeds=(0,))

    def test_observed_temperature_channels_track_state(self):
        for kind, building in BUILDINGS.items():
            env = BuildingEnv(EnvConfig(kind=kind, days=0.5))
            obs = env.reset(seed=0)
            act = rule_controller(obs, kind)
            obs, _, _, info = env.step(act)
            assert obs[building.temp_slots] == pytest.approx(
                info["zone_temps"])


class TestRuleBaseline:
    def test_covers_training_and_holdout_presets(self):
        env = BuildingEnv(EnvConfig(kind="dc", days=0.5))
        reports = rule_baseline_report(env.variant(days=0.5), seeds=(0,))
        dc = BUILDINGS["dc"]
        expected = [*dc.train_presets, dc.eval_preset]
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

    def test_noise_point_defined_per_environment(self):
        for kind in BUILDINGS:
            eps, sigma = RQ4_NOISE[kind]
            assert 0.0 < eps <= 1.0 and sigma > 0.0


def cell_record(seeds=(0,)) -> CellResult:
    """A hand-built rq5 cell with one entry per seed."""
    report = RunReport(
        avg_reward=-1.0, violation=0.25, avg_power_kw=3.0,
        episode_return=-36.0, seed=5, config_fingerprint="fp", steps=36,
        zone_quantiles=[dict.fromkeys(evalharness.QUANTILES, 21.5)])
    curve = [{"epoch": 1, "seed": 0, "avg_reward": -1.0, "violation": 0.25,
              "avg_power_kw": 3.0}]
    return CellResult("rq5", "len01", {"seq_len": 1}, "fp123", [
        SeedResult(seed=s, best_epoch=1, report=report, curve=curve)
        for s in seeds])


class TestCellArtifacts:
    def test_write_then_load_roundtrip(self, tmp_path):
        cell = cell_record()
        cell_dir = _write_cell(tmp_path, cell, {"note": 1})
        assert sorted(p.name for p in cell_dir.iterdir()) == \
            ["quality.json", "report.json"]
        assert json.loads((cell_dir / "report.json").read_text()) == \
            cell.to_jsonable()
        assert _finished_cell(tmp_path, "rq5", "len01", "fp123") == cell

    def test_rewrite_is_byte_identical(self, tmp_path):
        first = _write_cell(tmp_path, cell_record(), None)
        blob = (first / "report.json").read_bytes()
        again = _write_cell(tmp_path, cell_record(), None)
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


def claim_report(avg_reward, iqrs=(1.0, 1.0)) -> RunReport:
    return RunReport(avg_reward=avg_reward, violation=0.0, avg_power_kw=1.0,
                     episode_return=avg_reward,
                     zone_quantiles=[{"iqr": q} for q in iqrs], seed=0,
                     config_fingerprint="fp")


def hand_result(rq, cells) -> SweepResult:
    """A SweepResult from ``{key: (cell axes, [RunReport, ...])}``, one
    seed per report."""
    res = SweepResult(rq=rq)
    for key, (axes, reports) in cells.items():
        res.cells[key] = CellResult(rq, key, axes, "fp", [
            SeedResult(seed, 1, report, [])
            for seed, report in enumerate(reports)])
    return res


class TestClaims:
    @pytest.mark.parametrize("sac,line", [
        (-1.2, "rq1 trained       cql=-1.0000  sac=-1.2000  td3bc=-1.1000"
               "  offline>baseline: yes"),
        (-1.05, "rq1 trained       cql=-1.0000  sac=-1.0500  td3bc=-1.1000"
                "  offline>baseline: NO"),
    ])
    def test_rq1_offline_must_beat_every_baseline(self, sac, line):
        res = hand_result("rq1", {
            f"trained-{algo}": ({"scenario": "trained", "algo": algo}, reps)
            for algo, reps in (
                ("cql", [claim_report(r) for r in (-1.5, -1.0, -0.8)]),
                ("td3bc", [claim_report(-1.1)]),
                ("sac", [claim_report(sac)]))})
        assert claim_lines(res) == [line]

    def test_rq1_without_a_baseline_prints_no_verdict(self):
        res = hand_result("rq1", {
            "trained-cql": ({"scenario": "trained", "algo": "cql"},
                            [claim_report(-1.0)])})
        assert claim_lines(res) == ["rq1 trained       cql=-1.0000"]

    @pytest.mark.parametrize("hist_iqrs,pairs,verdict", [
        ([(1.0, 2.0), (2.0, 3.0)], "z0: 1.500<2.000  z1: 2.500<3.000",
         "yes"),
        ([(1.0, 3.0), (2.0, 4.0)], "z0: 1.500<2.000  z1: 3.500>=3.000",
         "NO"),
    ])
    def test_rq2_history_must_tighten_every_zone(self, hist_iqrs, pairs,
                                                 verdict):
        res = hand_result("rq2", {
            "cql-flat": ({"mode": "cql", "history": False, "seq_len": 1},
                         [claim_report(-1.0, (2.0, 3.0))]),
            "cql-hist": ({"mode": "cql", "history": True, "seq_len": 8},
                         [claim_report(-0.9, q) for q in hist_iqrs])})
        assert claim_lines(res) == [
            "rq2 cql   flat=-1.0000 hist=-0.9000  gain=+0.1000",
            f"rq2 cql zone-temp IQR {pairs}  all tighter: {verdict}"]

    @pytest.mark.parametrize("meds,lines", [
        ((-1.2, -1.1, -1.0), ["rq5 L1: -1.2000  L5: -1.1000  L10: -1.0000",
                              "rq5 non-decreasing: yes  "
                              "change over last step: 9.1%"]),
        ((-1.2, -1.0, -1.1), ["rq5 L1: -1.2000  L5: -1.0000  L10: -1.1000",
                              "rq5 non-decreasing: NO  "
                              "change over last step: 10.0%"]),
    ])
    def test_rq5_longer_windows_must_not_hurt(self, meds, lines):
        res = hand_result("rq5", {
            f"len{L:02d}": ({"seq_len": L}, [claim_report(m)])
            for L, m in zip((10, 1, 5), (meds[2], meds[0], meds[1]))})
        assert claim_lines(res) == lines

    def test_no_cells_check_nothing(self):
        for rq in ("rq1", "rq2", "rq3", "rq4", "rq5"):
            assert claim_lines(SweepResult(rq=rq)) == []


def tiny_config(out_dir, **overrides) -> HarnessConfig:
    base = dict(
        out_dir=str(out_dir), seeds=1, eval_seed=5, eval_days=0.25,
        data_days=0.5, dataset_steps=360, train_steps=8, epoch_steps=4,
        batch_size=16, expert_steps=40, expert_seq_len=2, expert_batch=16,
        rq5_seq_lens=(1, 2), rq5_batch=16, rq5_train_steps=6)
    base.update(overrides)
    return HarnessConfig(**base)


def cell_dirs(res: SweepResult) -> dict:
    """Each cell's directory, as its summary.csv row names it."""
    with open(res.summary_path, newline="") as f:
        return {row["cell"]: Path(res.summary_path).parent /
                row["cell_fingerprint"] for row in csv.DictReader(f)}


def count_cell_runs(monkeypatch) -> list:
    """The key of every job `_run_cell` trains from now on, in order."""
    calls = []
    real = evalharness._run_cell
    monkeypatch.setattr(evalharness, "_run_cell",
                        lambda job: calls.append(job["key"]) or real(job))
    return calls


class TestZeroSeedGrids:
    def test_empty_result_writes_empty_summary(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=0)
        for runner, rq in ((run_rq1, "rq1"), (run_rq2, "rq2"),
                           (run_rq3, "rq3"), (run_rq4, "rq4"),
                           (run_rq5, "rq5")):
            res = runner(cfg)
            assert res.rq == rq
            assert res.cells == {}
            assert os.path.exists(res.summary_path)
            assert open(res.summary_path).read() == ""
            assert claim_lines(res) == []
            assert load_sweep(tmp_path, rq).cells == {}
        # nothing to train, so no expert or dataset is built
        assert not (tmp_path / "datasets").exists()
        assert not (tmp_path / "experts").exists()

    def test_no_rq4_sizes_is_an_empty_sweep(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"harness": {
            "seeds": 1, "expert_steps": 4, "expert_batch": 2,
            "rq4_sizes": [], "out_dir": str(tmp_path / "results")}}))
        assert main(["--config", str(cfg), "sweep", "--rq", "4"],
                    env_vars={}) == 0
        assert (tmp_path / "results" / "rq4" / "summary.csv").read_text() == ""
        assert not (tmp_path / "results" / "experts").exists()


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
        for key, d in cell_dirs(res).items():
            assert len(res.cells[key].seeds) == 1
            seeds = json.loads((d / "report.json").read_text())["seeds"]
            assert seeds[0]["curve"], "learning curve should not be empty"
        assert res.median_metric("len01") == \
            res.reports("len01")[0].avg_reward
        rows = open(res.summary_path).read().splitlines()
        assert len(rows) == 3                        # header + 2 cells
        assert "axis_seq_len" in rows[0]
        assert len(claim_lines(res)) == 2
        assert claim_lines(res) == claim_lines(load_sweep(tmp_path / "a",
                                                          "rq5"))

    def test_rerun_reuses_existing_cells(self, tmp_path):
        cfg = tiny_config(tmp_path / "a")
        first = run_rq5(cfg)
        stamps = {k: os.path.getmtime(d / "report.json")
                  for k, d in cell_dirs(first).items()}
        second = run_rq5(cfg)
        for key, d in cell_dirs(second).items():
            assert os.path.getmtime(d / "report.json") == stamps[key]
            assert asdict(second.cells[key]) == asdict(first.cells[key])

    def test_cells_hold_one_report_with_a_curve_per_seed(self, tmp_path):
        res = run_rq5(tiny_config(tmp_path))
        for d in cell_dirs(res).values():
            assert [p.name for p in d.iterdir()] == ["report.json"]
            for s in json.loads((d / "report.json").read_text())["seeds"]:
                assert s.keys() == {"seed", "best_epoch", "curve", "report"}
                assert [row["epoch"] for row in s["curve"]] == \
                    list(range(1, 7))
                for row in s["curve"]:
                    assert row.keys() == {"epoch", "seed", "avg_reward",
                                          "violation", "avg_power_kw"}
                    assert type(row["seed"]) is int
                    assert row["seed"] == s["seed"]
                best = s["curve"][s["best_epoch"] - 1]
                assert best["avg_reward"] == s["report"]["avg_reward"]

    def test_cells_with_curve_csv_reused_not_with_final_report(
            self, tmp_path):
        cfg = tiny_config(tmp_path)
        first = run_rq5(cfg)
        stamps = {}
        for d in cell_dirs(first).values():
            (d / "curve.csv").write_text(
                "avg_power_kw,avg_reward,epoch,seed,violation\n")
            stamps[d] = os.path.getmtime(d / "report.json")
        second = run_rq5(cfg)
        assert second.cells == first.cells
        for d, stamp in stamps.items():
            assert os.path.getmtime(d / "report.json") == stamp
            assert (d / "curve.csv").exists()
        # a seed entry is a closed record: a field it does not declare is
        # damage, not an older layout to skip over
        d = next(iter(stamps))
        doc = json.loads((d / "report.json").read_text())
        doc["seeds"][0]["final_report"] = doc["seeds"][0]["report"]
        (d / "report.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match="seeds.0.final_report"):
            run_rq5(cfg)

    @pytest.mark.parametrize("seeds", [[0, 0], [0], [1, 0], []])
    def test_reused_cell_must_hold_the_configured_seeds(self, tmp_path,
                                                       monkeypatch, seeds):
        cfg = tiny_config(tmp_path, seeds=2, rq5_seq_lens=(1,))
        report = next(iter(cell_dirs(run_rq5(cfg)).values())) / "report.json"
        doc = json.loads(report.read_text())
        by_seed = {s["seed"]: s for s in doc["seeds"]}
        doc["seeds"] = [by_seed[s] for s in seeds]
        report.write_text(json.dumps(doc))
        calls = count_cell_runs(monkeypatch)
        with pytest.raises(DataError, match="are not the configured"):
            run_rq5(cfg)
        assert calls == []

    def test_records_round_trip_and_derive_the_summary(self, tmp_path):
        res = run_rq5(tiny_config(tmp_path, seeds=2))
        derived = []
        for key, d in sorted(cell_dirs(res).items()):
            doc = json.loads((d / "report.json").read_text())
            cell = CellResult.from_jsonable(doc, "rq5")
            assert cell.to_jsonable() == doc
            assert cell == res.cells[key]
            derived += cell.summary_rows()
        with open(res.summary_path, newline="") as f:
            assert list(csv.DictReader(f)) == [
                {k: str(v) for k, v in row.items()} for row in derived]
        assert res.rows == [{k: str(v) for k, v in row.items()}
                            for row in derived]

    def test_results_do_not_depend_on_output_location(self, tmp_path):
        blobs = {}
        for name in ("a", "b"):
            cfg = tiny_config(tmp_path / name, jobs=2 if name == "b" else 1)
            res = run_rq5(cfg)
            blobs[name] = {key: (d / "report.json").read_bytes()
                           for key, d in cell_dirs(res).items()}
        assert blobs["a"] == blobs["b"]

    def test_grid_value_named_twice_runs_once(self, tmp_path, monkeypatch):
        calls = count_cell_runs(monkeypatch)
        res = run_rq5(tiny_config(tmp_path, seeds=2, rq5_seq_lens=(1, 1, 2)))
        assert sorted(calls) == ["len01", "len01", "len02", "len02"]
        with open(res.summary_path, newline="") as f:
            assert [(row["cell"], row["seed"]) for row in csv.DictReader(f)] \
                == [("len01", "0"), ("len01", "1"), ("len02", "0"),
                    ("len02", "1")]
        # the grid that names each value once has the same cells
        calls.clear()
        twice = cell_dirs(res)
        once = run_rq5(tiny_config(tmp_path, seeds=2))
        assert calls == []
        assert cell_dirs(once) == twice

    def test_another_runners_grid_retrains_nothing(self, tmp_path,
                                                   monkeypatch):
        first = cell_dirs(run_rq5(tiny_config(tmp_path)))
        calls = count_cell_runs(monkeypatch)
        again = run_rq5(tiny_config(tmp_path, rq1_algos=("td3",),
                                    rq3_epsilons=(0.5,), rq4_sizes=(7,)))
        assert calls == []
        assert cell_dirs(again) == first

    def test_new_grid_value_trains_only_its_cell(self, tmp_path,
                                                 monkeypatch):
        first = cell_dirs(run_rq5(tiny_config(tmp_path)))
        calls = count_cell_runs(monkeypatch)
        grown = cell_dirs(run_rq5(tiny_config(tmp_path,
                                              rq5_seq_lens=(1, 2, 3))))
        assert calls == ["len03"]
        assert {k: d for k, d in grown.items() if k != "len03"} == first

    def test_other_expert_weights_get_new_datasets_and_cells(
            self, tmp_path, monkeypatch):
        # two experts of one config, and so one fingerprint, whose weights
        # differ; and a copy of the first at another path
        cfg = tiny_config(tmp_path / "out")
        env = base_env(cfg)
        first, second = (make_agent(expert_config(cfg), env.obs_spec.size,
                                    env.act_spec.size) for _ in range(2))
        params = dict(second.named_parameters())
        params[min(params)].data += 0.01
        assert first.fingerprint() == second.fingerprint()
        first.save(tmp_path / "a.ckpt", epoch=0, step=0)
        second.save(tmp_path / "b.ckpt", epoch=0, step=0)
        shutil.copy(tmp_path / "a.ckpt", tmp_path / "a-copy.ckpt")

        def sweep(expert):
            return run_rq5(replace(cfg, expert_path=str(tmp_path / expert)))

        first_cells = cell_dirs(sweep("a.ckpt"))
        calls = count_cell_runs(monkeypatch)
        assert cell_dirs(sweep("a-copy.ckpt")) == first_cells
        assert calls == []
        second_cells = cell_dirs(sweep("b.ckpt"))
        assert sorted(calls) == ["len01", "len02"]
        assert not set(second_cells.values()) & set(first_cells.values())
        datasets = list((tmp_path / "out" / "datasets").glob("trained-*"))
        assert len(datasets) == 2

    def test_failed_sweep_keeps_finished_cells_and_resumes(self, tmp_path,
                                                           monkeypatch):
        real = evalharness._run_cell

        def diverge_on_len02(job):
            if job["key"] == "len02":
                raise DivergenceError("forced")
            return real(job)

        cfg = tiny_config(tmp_path / "a")
        monkeypatch.setattr(evalharness, "_run_cell", diverge_on_len02)
        with pytest.raises(DivergenceError):
            run_rq5(cfg)
        [kept] = (tmp_path / "a" / "rq5").glob("*/report.json")
        assert json.loads(kept.read_text())["cell"] == "len01"
        stamp = os.path.getmtime(kept)
        monkeypatch.undo()
        run_rq5(cfg)
        assert os.path.getmtime(kept) == stamp
        run_rq5(tiny_config(tmp_path / "b"))

        def files(root):
            return {str(p.relative_to(root)): p.read_bytes()
                    for p in (root / "rq5").rglob("*") if p.is_file()}

        assert files(tmp_path / "a") == files(tmp_path / "b")

    def test_online_mode_cells(self, tmp_path):
        cfg = tiny_config(tmp_path, rq2_modes=("sac",), rq2_seq_len=2,
                          rq2_batch=16, rq2_online_steps=8)
        res = run_rq2(cfg)
        assert sorted(res.cells) == ["sac-flat", "sac-hist"]
        for key in res.cells:
            assert res.reports(key)[0].steps == base_env(cfg).horizon

    def test_offline_algorithms_on_both_scenarios(self, tmp_path):
        cfg = tiny_config(tmp_path, rq1_algos=("td3", "cql"))
        res = run_rq1(cfg)
        assert sorted(res.cells) == ["final_buffer-cql", "final_buffer-td3",
                                     "trained-cql", "trained-td3"]
        names = sorted(p.name for p in (tmp_path / "datasets").iterdir())
        assert [n.split("-")[0] for n in names] == ["final", "trained"]
        rows = open(res.summary_path).read().splitlines()
        assert len(rows) == 5 and "axis_scenario" in rows[0]
        assert len(claim_lines(res)) == 2
        assert claim_lines(res) == claim_lines(load_sweep(tmp_path, "rq1"))

    def test_quality_grid_writes_quality_per_cell(self, tmp_path):
        cfg = tiny_config(tmp_path, rq3_epsilons=(0.0, 0.2),
                          rq3_sigmas=(0.1,), rq3_dataset_steps=144,
                          rq3_train_steps=8)
        res = run_rq3(cfg)
        assert sorted(res.cells) == ["eps0-sigma0.1", "eps0.2-sigma0.1"]
        assert sorted(res.quality) == sorted(res.cells)
        for key, d in cell_dirs(res).items():
            assert sorted(p.name for p in d.iterdir()) == \
                ["quality.json", "report.json"]
            assert json.loads((d / "quality.json").read_text()) == \
                res.quality[key]
        assert len(claim_lines(res)) == 2
        assert claim_lines(res) == claim_lines(load_sweep(tmp_path, "rq3"))

    def test_quality_grid_loads_expert_once(self, tmp_path, monkeypatch):
        loads = []
        real = evalharness.load_agent
        monkeypatch.setattr(evalharness, "load_agent",
                            lambda path: loads.append(path) or real(path))
        cfg = tiny_config(tmp_path, rq3_epsilons=(0.0, 0.2),
                          rq3_sigmas=(0.1,), rq3_dataset_steps=144,
                          rq3_train_steps=8)
        run_rq3(cfg)
        assert loads == [ensure_expert(cfg)]

    def test_quality_grid_scores_only_the_cells_it_runs(self, tmp_path,
                                                        monkeypatch):
        scored = []
        real = evalharness.build_quality_report
        monkeypatch.setattr(evalharness, "build_quality_report",
                            lambda *args: scored.append(1) or real(*args))
        cfg = tiny_config(tmp_path, rq3_epsilons=(0.0, 0.2),
                          rq3_sigmas=(0.1,), rq3_dataset_steps=144,
                          rq3_train_steps=8)
        first = run_rq3(cfg)
        assert len(scored) == 2                 # one report per cell
        scored.clear()
        # a rerun reuses both finished cells and scores neither
        assert run_rq3(cfg).quality == first.quality
        assert scored == []

    @pytest.mark.parametrize("runner,overrides", [
        (run_rq3, dict(rq3_epsilons=(0.0, 0.2), rq3_sigmas=(0.1,),
                       rq3_dataset_steps=144, rq3_train_steps=8)),
        (run_rq4, dict(rq4_sizes=(72, 360))),
    ], ids=["rq3", "rq4"])
    def test_fresh_datasets_are_read_only_to_train(self, tmp_path,
                                                   monkeypatch, runner,
                                                   overrides):
        calls = []

        def counting(name):
            real = getattr(evalharness, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("write_dataset", "read_dataset"):
            monkeypatch.setattr(evalharness, name, counting(name))
        runner(tiny_config(tmp_path, **overrides))
        # two datasets built and written; each read once by its training job
        assert sorted(calls) == ["read_dataset"] * 2 + ["write_dataset"] * 2

    @pytest.mark.parametrize("env_kind", ["dc", "mu"])
    def test_quantity_sweep_subsamples_each_smaller_size(self, tmp_path,
                                                         env_kind):
        cfg = tiny_config(tmp_path, env_kind=env_kind, rq4_sizes=(72, 360))
        res = run_rq4(cfg)
        assert sorted(res.cells) == ["size360", "size72"]
        subsets = sorted((tmp_path / "datasets").glob("rq4-size72-*.hvds"))
        assert len(subsets) == 1
        assert 72 <= len(read_dataset(subsets[0])) < 360
        assert not list((tmp_path / "datasets").glob("rq4-size360-*"))
        assert len(claim_lines(res)) == 2
        assert claim_lines(res) == claim_lines(load_sweep(tmp_path, "rq4"))
