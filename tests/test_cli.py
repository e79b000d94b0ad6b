"""Command-line contract tests: exit codes, config plumbing, output
artifacts, byte determinism, and environment-variable overrides."""
import csv
import json
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hvacrl.agents import AgentConfig, load_agent, make_agent
from hvacrl.buildsim import EVAL_PRESET, BuildingEnv, EnvConfig
from hvacrl.cli import ENV_MAX_JOBS, ENV_OUT_DIR, default_config, main
from hvacrl.datagen import (REFERENCE_SEED, expert_reference_return,
                            read_dataset, write_dataset)
from hvacrl.evalharness import (_AXES, CellResult, claim_lines, load_sweep,
                                run_rq1)

from container_cases import rewrite_header
from test_datagen import MISTYPED_HEADER_FIELDS
from test_evalharness import tiny_config


def run(argv, env=None):
    return main(argv, env_vars=env or {})


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny dataset and checkpoint shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "environment": {"days": 0.5},
        "agent": {"algo": "cql", "train_steps": 10, "epoch_steps": 5,
                  "batch_size": 16},
        "data": {"steps": 200, "days": 0.5, "scenario": "final-buffer"},
        "seed": 1,
    }
    cfg_path = root / "tiny.json"
    cfg_path.write_text(json.dumps(cfg))
    data = root / "data.hvds"
    assert run(["--config", str(cfg_path), "collect",
                "--scenario", "final-buffer", "--out", str(data)]) == 0
    train_dir = root / "trained"
    assert run(["--config", str(cfg_path), "train", "--algo", "cql",
                "--data", str(data), "--out", str(train_dir)]) == 0
    return {"root": root, "config": cfg_path, "data": data,
            "ckpt": train_dir / "agent.ckpt"}


@pytest.fixture(scope="module")
def swept_rq1(tmp_path_factory):
    """The harness of a finished tiny rq1 sweep: one TD3 cell on each
    scenario's dataset."""
    cfg = tiny_config(tmp_path_factory.mktemp("rq1") / "results",
                      rq1_algos=("td3",))
    run_rq1(cfg)
    return cfg


class TestConfigPlumbing:
    def test_print_config_dumps_complete_defaults(self, capsys):
        assert run(["--print-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for block in ("environment", "agent", "data", "harness"):
            assert isinstance(doc[block], dict) and doc[block]
        assert doc["fingerprint"]
        assert doc["agent"]["algo"] == default_config()["agent"]["algo"]

    def test_print_config_is_deterministic(self, capsys):
        run(["--print-config"])
        first = capsys.readouterr().out
        run(["--print-config"])
        assert capsys.readouterr().out == first

    def test_config_override_reaches_dump(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"agent": {"algo": "sac"}, "seed": 9}))
        assert run(["--config", str(p), "--print-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agent"]["algo"] == "sac" and doc["seed"] == 9
        assert doc["agent"]["gamma"] == 0.9          # untouched default

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        # a typo, then one deleted key per block
        for override in ({"agent": {"algos": "sac"}},
                         {"agent": {"literal_bc_bonus": True}},
                         {"environment": {"literal_trapezoid_sign": True}},
                         {"harness": {"skip_existing": False}}):
            p = tmp_path / "c.json"
            p.write_text(json.dumps(override))
            assert run(["--config", str(p), "--print-config"]) == 2
            assert "UsageError" in capsys.readouterr().err

    def test_missing_config_file_is_data_error(self, capsys):
        assert run(["--config", "nope.json", "--print-config"]) == 3
        assert "DataError" in capsys.readouterr().err

    def test_malformed_json_is_data_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert run(["--config", str(p), "--print-config"]) == 3

    @pytest.mark.parametrize("override, argv, code", [
        ({"harness": {"seeds": "1"}}, ["sweep", "--rq", "1"], 2),
        ({"environment": {"days": "2"}}, ["simulate", "--out", "sim"], 2),
        ({"seed": True}, ["--print-config"], 2),
        ({"data": {"steps": 1.5}}, ["--print-config"], 2),
        ({"harness": {"rq1_algos": "td3"}}, ["--print-config"], 2),
        ({"agent": {"gamma": None}}, ["--print-config"], 2),
        ({"environment": {"days": 2}}, ["--print-config"], 0),
        ({"harness": {"rq3_epsilons": ["a"]}}, ["sweep", "--rq", "3"], 2),
        ({"harness": {"rq4_sizes": [1.5]}}, ["sweep", "--rq", "4"], 2),
        ({"harness": {"rq3_epsilons": [0, 0.5]}}, ["--print-config"], 0),
        ({}, ["simulate", "--seed", "-1", "--out", "sim"], 2),
        ({"seed": -1}, ["collect", "--scenario", "final-buffer", "--steps",
                        "10", "--out", "sim/d.hvds"], 2),
        ({"seed": -1}, ["collect", "--scenario", "trained", "--expert",
                        "{ckpt}", "--steps", "10", "--out", "sim/d.hvds"], 2),
        ({}, ["collect", "--scenario", "final-buffer", "--sigma", "-1",
              "--steps", "10", "--out", "sim/d.hvds"], 2),
        ({}, ["collect", "--scenario", "final-buffer", "--sigma", "nan",
              "--steps", "300", "--out", "sim/d.hvds"], 2),
        ({}, ["collect", "--scenario", "final-buffer", "--sigma", "inf",
              "--steps", "300", "--out", "sim/d.hvds"], 2),
        ({}, ["collect", "--scenario", "trained", "--expert", "{ckpt}",
              "--sigma", "nan", "--steps", "10", "--out", "sim/d.hvds"], 2),
        ({}, ["collect", "--scenario", "trained", "--expert", "{ckpt}",
              "--sigma", "inf", "--steps", "10", "--out", "sim/d.hvds"], 2),
        ({"data": {"scenario": "final_buffer"}}, ["collect", "--expert",
         "{ckpt}", "--steps", "10", "--out", "sim/d.hvds"], 2),
        ({"environment": {"kind": "xx"}}, ["simulate", "--out", "sim"], 2),
        ({"environment": {"weather": "preset:nowhere"}},
         ["simulate", "--out", "sim"], 2),
        ({"data": {"days": 1e308}}, ["collect", "--scenario", "final-buffer",
                                     "--out", "sim/d.hvds"], 2),
        ({"data": {"days": 0.25}}, ["collect", "--scenario", "final-buffer",
                                    "--steps", "10", "--out", "sim/d.hvds"], 2),
        ({}, ["collect", "--scenario", "final-buffer", "--epsilon", "5",
              "--steps", "300", "--out", "sim/d.hvds"], 2),
    ], ids=["str-for-int", "str-for-float", "bool-for-int", "float-for-int",
            "str-for-list", "null-for-float", "int-for-float",
            "str-item-for-float", "float-item-for-int", "int-items-for-float",
            "simulate-seed-negative", "final-buffer-seed-negative",
            "trained-seed-negative", "final-buffer-sigma-negative",
            "final-buffer-sigma-nan", "final-buffer-sigma-inf",
            "trained-sigma-nan", "trained-sigma-inf", "scenario-unknown",
            "environment-kind-unknown", "weather-preset-unknown",
            "collect-days-too-long", "final-buffer-under-one-episode",
            "final-buffer-epsilon-above-1"])
    def test_config_value_types(self, workspace, tmp_path, monkeypatch,
                                capsys, override, argv, code):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(override))
        argv = [a.format(ckpt=workspace["ckpt"]) for a in argv]
        assert run(["--config", str(p), *argv]) == code
        assert not (tmp_path / "sim").exists()
        if code == 2:
            assert "UsageError" in capsys.readouterr().err
            assert not (tmp_path / "results").exists()


class TestArgumentErrors:
    def test_unknown_flag(self):
        assert run(["simulate", "--frobnicate"]) == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_no_subcommand(self, capsys):
        assert run([]) == 2
        assert "subcommand" in capsys.readouterr().err

    def test_zero_days_simulation_writes_nothing(self, workspace, tmp_path,
                                                 capsys):
        out = tmp_path / "sim"
        for command in (["simulate"],
                        ["eval", "--ckpt", str(workspace["ckpt"])]):
            assert run([*command, "--env", "dc", "--days", "0",
                        "--out", str(out)]) == 2
            assert "UsageError" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("days", ["-1", "nan", "inf", "1e-9", "1e308"])
    def test_bad_days_is_usage_error(self, workspace, tmp_path, capsys, days):
        # negative, non-finite, too long to count in steps and shorter
        # than one control step alike
        out = tmp_path / "sim"
        for command in (["simulate"],
                        ["eval", "--ckpt", str(workspace["ckpt"])]):
            assert run([*command, "--env", "dc", "--days", days,
                        "--out", str(out)]) == 2
            assert "UsageError" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{tmp}/gone.hvds"],
        ["regret", "--data", "{tmp}/gone.hvds", "--expert", "{ckpt}"],
        ["eval", "--ckpt", "{tmp}", "--days", "0.25"],
    ], ids=["train-missing-data", "regret-missing-data", "eval-ckpt-is-dir"])
    def test_unopenable_input_file_is_data_error(self, workspace, tmp_path,
                                                  capsys, argv):
        argv = [a.format(tmp=tmp_path, ckpt=workspace["ckpt"]) for a in argv]
        assert run(argv + ["--out", str(tmp_path / "o")]) == 3
        assert "DataError" in capsys.readouterr().err

    @pytest.mark.parametrize("agent", [
        {"history": True, "seq_len": 2, "enc_heads": 0},
        {"hidden": -1},
        {"hidden": 0},
        {"seed": -1},
    ], ids=["enc-heads-0", "hidden-negative", "hidden-0", "seed-negative"])
    def test_bad_network_size_is_spec_error(self, workspace, tmp_path, capsys,
                                            agent):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"agent": agent}))
        assert run(["--config", str(p), "train", "--data",
                    str(workspace["data"]), "--out", str(tmp_path / "t")]) == 3
        assert "SpecError" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_eval_needs_positive_seed_count(self, workspace, tmp_path):
        assert run(["eval", "--ckpt", str(workspace["ckpt"]), "--seeds", "0",
                    "--out", str(tmp_path / "e")]) == 2


class TestSimulate:
    def test_writes_report_trajectory_and_audit(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run(["simulate", "--env", "dc", "--weather", "tampa",
                    "--days", "0.25", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert (out / "trajectory_seed3.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["run_fingerprint"]
        assert report["reports"][0]["weather"] == "tampa"
        lines = (out / "audit.jsonl").read_text().splitlines()
        row = json.loads(lines[-1])
        assert row["subcommand"] == "simulate"
        assert row["seeds"] == [3]
        assert row["config_fingerprint"] == report["run_fingerprint"]
        assert "avg_reward" in capsys.readouterr().out

    def test_identical_invocations_identical_bytes(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["simulate", "--env", "dc", "--days", "0.25",
                        "--seed", "0", "--out", str(out)]) == 0
            blobs.append(((out / "report.json").read_bytes(),
                          (out / "trajectory_seed0.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_checkpoint_controller(self, workspace, tmp_path):
        out = tmp_path / "sim"
        assert run(["--config", str(workspace["config"]), "simulate",
                    "--env", "dc", "--controller",
                    f"ckpt:{workspace['ckpt']}", "--days", "0.25",
                    "--out", str(out)]) == 0
        assert (out / "report.json").exists()

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        assert run(["simulate", "--env", "dc", "--controller", "ckpt:gone",
                    "--days", "0.25", "--out", str(tmp_path / "s")]) == 3

    def test_env_var_overrides_output_dir(self, tmp_path):
        flag_dir = tmp_path / "flagged"
        env_dir = tmp_path / "enved"
        assert run(["simulate", "--env", "dc", "--days", "0.25",
                    "--out", str(flag_dir)],
                   env={ENV_OUT_DIR: str(env_dir)}) == 0
        assert env_dir.exists() and not flag_dir.exists()


class TestCollect:
    def test_dataset_is_valid_and_carries_fingerprint(self, workspace):
        ds = read_dataset(workspace["data"])
        assert ds.metadata["run_fingerprint"]
        assert ds.metadata["scenario"] == "final_buffer"
        assert ds.num_episodes == 2          # 200 requested, 72-step episodes

    def test_collect_bytes_are_reproducible(self, workspace, tmp_path):
        again = tmp_path / "again.hvds"
        assert run(["--config", str(workspace["config"]), "collect",
                    "--scenario", "final-buffer", "--out", str(again)]) == 0
        assert again.read_bytes() == workspace["data"].read_bytes()

    def test_trained_scenario_requires_expert(self, tmp_path, capsys):
        assert run(["collect", "--scenario", "trained", "--steps", "100",
                    "--out", str(tmp_path / "d.hvds")]) == 2
        assert "expert" in capsys.readouterr().err

    def test_missing_expert_checkpoint(self, tmp_path):
        assert run(["collect", "--scenario", "trained", "--steps", "100",
                    "--expert", "gone.ckpt",
                    "--out", str(tmp_path / "d.hvds")]) == 3

    def test_trained_scenario_with_expert(self, workspace, tmp_path, capsys):
        out = tmp_path / "t.hvds"
        assert run(["--config", str(workspace["config"]), "collect",
                    "--scenario", "trained", "--steps", "144",
                    "--epsilon", "0.2", "--sigma", "0.3",
                    "--expert", str(workspace["ckpt"]),
                    "--out", str(out)]) == 0
        ds = read_dataset(out)
        assert ds.metadata["scenario"] == "trained"
        assert ds.metadata["epsilon"] == 0.2

    def test_env_var_overrides_an_absolute_out_directory(self, workspace,
                                                         tmp_path):
        env_dir = tmp_path / "enved"
        flagged = tmp_path / "flagged" / "d.hvds"
        assert run(["--config", str(workspace["config"]), "collect",
                    "--scenario", "final-buffer", "--out", str(flagged)],
                   env={ENV_OUT_DIR: str(env_dir)}) == 0
        assert (env_dir / "d.hvds").read_bytes() == \
            workspace["data"].read_bytes()
        assert (env_dir / "audit.jsonl").exists()
        assert not flagged.parent.exists()

    @pytest.mark.parametrize("scenario", ["final-buffer", "trained"])
    def test_collect_rebuilds_a_sweep_dataset_from_its_recipe(
            self, swept_rq1, tmp_path, scenario):
        # the sweep's seed 0, epsilon, sigma, steps, days and expert, as
        # config values: the same arrays and metadata, bar the run's
        results = Path(swept_rq1.out_dir)
        (expert,) = (results / "experts").glob("*.ckpt")
        (swept,) = (results / "datasets").glob(f"{scenario}-*.hvds")
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"data": {
            "days": swept_rq1.data_days, "steps": swept_rq1.dataset_steps,
            "epsilon": swept_rq1.epsilon, "sigma": swept_rq1.sigma,
            "expert": str(expert)}, "seed": 0}))
        out = tmp_path / "d.hvds"
        assert run(["--config", str(p), "collect", "--scenario", scenario,
                    "--out", str(out)]) == 0
        mine, theirs = read_dataset(out), read_dataset(swept)
        for (name, col), (_, want) in zip(mine.columns(), theirs.columns()):
            np.testing.assert_array_equal(col, want, err_msg=name)
        assert mine.metadata.pop("run_fingerprint")
        assert mine.header_dict() == theirs.header_dict()


class TestTrain:
    def test_outputs_and_summary(self, workspace):
        out = workspace["ckpt"].parent
        assert workspace["ckpt"].exists()
        assert (out / "train_log.jsonl").exists()
        assert list((out / "checkpoints").glob("epoch_*.ckpt"))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["algo"] == "cql"
        assert summary["dataset_fingerprint"] == \
            read_dataset(workspace["data"]).fingerprint()

    def test_checkpoint_bytes_reproducible(self, workspace, tmp_path):
        out = tmp_path / "t2"
        assert run(["--config", str(workspace["config"]), "train",
                    "--algo", "cql", "--data", str(workspace["data"]),
                    "--out", str(out)]) == 0
        assert (out / "agent.ckpt").read_bytes() == \
            workspace["ckpt"].read_bytes()

    def test_seq_len_without_history_rejected(self, workspace, tmp_path):
        assert run(["train", "--algo", "cql", "--data",
                    str(workspace["data"]), "--history", "off",
                    "--seq-len", "4", "--out", str(tmp_path / "t")]) == 2

    def test_corrupt_dataset_rejected(self, workspace, tmp_path):
        bad = tmp_path / "bad.hvds"
        blob = bytearray(workspace["data"].read_bytes())
        blob[-10] ^= 0xFF
        bad.write_bytes(bytes(blob))
        assert run(["train", "--algo", "cql", "--data", str(bad),
                    "--out", str(tmp_path / "t")]) == 3

    @pytest.mark.parametrize("edit", [
        lambda h: {**h, "collected_by": "someone"},
        lambda h: {k: v for k, v in h.items() if k != "horizon"},
    ], ids=["unknown", "missing"])
    def test_bad_header_fields_rejected(self, workspace, tmp_path, edit,
                                        capsys):
        bad = tmp_path / "bad.hvds"
        bad.write_bytes(workspace["data"].read_bytes())
        rewrite_header(bad, edit)
        assert run(["train", "--algo", "cql", "--data", str(bad),
                    "--out", str(tmp_path / "t")]) == 3
        assert "DataError" in capsys.readouterr().err


    @pytest.mark.parametrize("field,value", MISTYPED_HEADER_FIELDS)
    def test_mistyped_header_fields_exit_3(self, workspace, tmp_path, field,
                                           value, capsys):
        bad = tmp_path / "bad.hvds"
        bad.write_bytes(workspace["data"].read_bytes())
        rewrite_header(bad, lambda h: {**h, field: value})
        assert run(["train", "--algo", "cql", "--data", str(bad),
                    "--out", str(tmp_path / "t")]) == 3
        assert "DataError" in capsys.readouterr().err

    def test_malformed_container_header_exits_3(self, workspace, tmp_path,
                                                capsys):
        bad = tmp_path / "bad.hvds"
        bad.write_bytes(workspace["data"].read_bytes())
        rewrite_header(bad, lambda h: {k: v for k, v in h.items()
                                       if k != "columns"})
        assert run(["train", "--algo", "cql", "--data", str(bad),
                    "--out", str(tmp_path / "t")]) == 3
        assert "DataError" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        {"env_kind": "xx"}, {"obs_lows": [0.0]}, {"horizon": 0},
        {"days": -1}, {"act_highs": [1.0] * 9},
        {"metadata": {"reset_seeds": ["x", "y", "z"]}},
        {"metadata": {"weather_presets": [1, 2, 3]}},
        {"metadata": {"reset_seeds": [1.5, 2.5, 3.5]}},
        {"metadata": {"reset_seeds": [1]}},
        {"metadata": {"weather_presets": ["hong_kong"]}},
        {"days": 1e308}, {"days": 1.0},
        {"metadata": {"reset_seeds": [-1, -1]}},
    ], ids=["env-kind", "obs-lows-length", "horizon-zero", "days-negative",
            "act-highs-length", "reset-seeds-str", "weather-presets-int",
            "reset-seeds-float", "reset-seeds-short", "weather-presets-short",
            "days-overflow", "days-horizon-disagree", "reset-seeds-negative"])
    def test_header_values_that_do_not_fit_exit_3(self, workspace, tmp_path,
                                                  edit, capsys):
        # right types, wrong values: both readers of a dataset refuse them
        bad = tmp_path / "bad.hvds"
        bad.write_bytes(workspace["data"].read_bytes())
        rewrite_header(bad, lambda h: {
            **h, **edit, "metadata": {**h["metadata"],
                                      **edit.get("metadata", {})}})
        assert run(["--config", str(workspace["config"]), "train", "--data",
                    str(bad), "--out", str(tmp_path / "t")]) == 3
        assert run(["regret", "--data", str(bad),
                    "--expert", str(workspace["ckpt"]),
                    "--out", str(tmp_path / "q.json")]) == 3
        assert capsys.readouterr().err.count("DataError") == 2


class TestEval:
    def test_reports_per_seed_with_median(self, workspace, tmp_path):
        out = tmp_path / "e"
        assert run(["--config", str(workspace["config"]), "eval",
                    "--ckpt", str(workspace["ckpt"]), "--env", "dc",
                    "--days", "0.25", "--seeds", "2",
                    "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["reports"]) == 2
        assert set(report["median"]) == {"avg_reward", "violation",
                                         "avg_power_kw"}
        assert (out / "trajectory_seed0.csv").exists()
        assert (out / "trajectory_seed1.csv").exists()

    def test_env_checkpoint_mismatch_exit_code(self, workspace, tmp_path,
                                               capsys):
        assert run(["eval", "--ckpt", str(workspace["ckpt"]), "--env", "mu",
                    "--days", "0.25", "--out", str(tmp_path / "e")]) == 3
        assert "FingerprintMismatchError" in capsys.readouterr().err
        # an expert whose dims fit neither building, for the dc dataset
        wrong = tmp_path / "wrong.ckpt"
        make_agent(AgentConfig(algo="sac"), 8, 5).save(wrong, epoch=0, step=0)
        assert run(["collect", "--scenario", "trained", "--expert", str(wrong),
                    "--steps", "10", "--out", str(tmp_path / "d.hvds")]) == 3
        assert "FingerprintMismatchError" in capsys.readouterr().err
        assert run(["regret", "--data", str(workspace["data"]),
                    "--expert", str(wrong),
                    "--out", str(tmp_path / "q.json")]) == 3
        assert "FingerprintMismatchError" in capsys.readouterr().err


    @pytest.mark.parametrize("edit", [
        lambda h: {k: v for k, v in h.items() if k != "meta"},
        lambda h: {**h, "meta": {**h["meta"], "agent_config": {
            **h["meta"]["agent_config"], "bogus": 1}}},
        lambda h: {**h, "meta": {**h["meta"], "obs_dim": "x"}},
        lambda h: {**h, "meta": {**h["meta"], "epoch": "x"}},
        lambda h: {**h, "meta": {**h["meta"], "obs_dim": 0}},
    ], ids=["no-meta", "unknown-agent-config-key", "obs-dim-str", "epoch-str",
            "obs-dim-zero"])
    def test_damaged_checkpoint_header_is_data_error(self, tmp_path, capsys,
                                                     edit):
        ckpt = tmp_path / "a.ckpt"
        make_agent(AgentConfig(algo="sac"), 8, 4).save(ckpt, epoch=0, step=0)
        rewrite_header(ckpt, edit)
        assert run(["eval", "--ckpt", str(ckpt), "--env", "dc", "--days",
                    "0.05", "--out", str(tmp_path / "e")]) == 3
        assert "DataError" in capsys.readouterr().err

    def test_policy_emitting_nan_is_simulation_fault(self, tmp_path, capsys):
        # the fault comes on the first step, so the rollout has no rows
        agent = make_agent(AgentConfig(algo="sac"), 8, 4)
        agent.actor.head.layers[-1].b.data[...] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        agent.save(ckpt, epoch=0, step=0)
        assert run(["eval", "--ckpt", str(ckpt), "--env", "dc", "--days", "1",
                    "--out", str(tmp_path / "e")]) == 4
        assert "SimulationFault" in capsys.readouterr().err

    def test_truncated_checkpoint_is_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(b"HVCK0002\x00")
        assert run(["eval", "--ckpt", str(ckpt), "--days", "0.25",
                    "--out", str(tmp_path / "e")]) == 3
        assert "DataError" in capsys.readouterr().err


class TestRegret:
    def test_quality_file_shape(self, workspace, tmp_path):
        out = tmp_path / "quality.json"
        assert run(["regret", "--data", str(workspace["data"]),
                    "--expert", str(workspace["ckpt"]),
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["run_fingerprint"] and doc["dataset_fingerprint"]
        assert len(doc["deltas"]) == 2
        assert set(doc["groups"]) == set(doc["r_opt_by_preset"])

    def test_dataset_without_episode_presets(self, workspace, tmp_path):
        # no per-episode presets or seeds: one reference rollout on the
        # template environment's own (default) weather
        ds = read_dataset(workspace["data"])
        del ds.metadata["weather_presets"], ds.metadata["reset_seeds"]
        data = tmp_path / "bare.hvds"
        write_dataset(ds, data)
        out = tmp_path / "quality.json"
        assert run(["regret", "--data", str(data),
                    "--expert", str(workspace["ckpt"]),
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["deltas"]) == 2
        env = BuildingEnv(EnvConfig(kind="dc", days=ds.days))
        (r_opt,) = expert_reference_return(
            env, load_agent(workspace["ckpt"])[0], [EVAL_PRESET["dc"]],
            ds.days, [REFERENCE_SEED])
        assert doc["r_opt_by_preset"] == {EVAL_PRESET["dc"]: r_opt}

    def test_env_var_overrides_an_absolute_out_directory(self, workspace,
                                                         tmp_path):
        env_dir = tmp_path / "enved"
        flagged = tmp_path / "flagged" / "q.json"
        assert run(["regret", "--data", str(workspace["data"]),
                    "--expert", str(workspace["ckpt"]),
                    "--out", str(flagged)],
                   env={ENV_OUT_DIR: str(env_dir)}) == 0
        assert len(json.loads((env_dir / "q.json").read_text())["deltas"]) == 2
        assert (env_dir / "audit.jsonl").exists()
        assert not flagged.parent.exists()


class TestSweepAndReport:
    def sweep_config(self, tmp_path, **harness) -> Path:
        cfg = {
            "harness": {
                "seeds": 1, "eval_seed": 5, "eval_days": 0.25,
                "data_days": 0.5, "dataset_steps": 288, "train_steps": 6,
                "epoch_steps": 3, "batch_size": 16, "expert_steps": 30,
                "expert_seq_len": 2, "expert_batch": 16,
                "rq3_epsilons": [0.0, 0.5], "rq3_sigmas": [0.1],
                "rq3_dataset_steps": 144, "rq3_train_steps": 4,
                "out_dir": str(tmp_path / "results"),
                **harness,
            },
        }
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_rq3_grid_emits_row_per_cell_and_seed(self, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path)
        assert run(["--config", str(cfg), "sweep", "--rq", "3"]) == 0
        summary = tmp_path / "results" / "rq3" / "summary.csv"
        lines = summary.read_text().splitlines()
        assert len(lines) == 1 + 2 * 1           # header + cells x seeds
        assert "axis_epsilon" in lines[0]
        capsys.readouterr()
        assert run(["report", "--rq", "3",
                    "--results", str(tmp_path / "results")]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].split()[:2] == ["cell", "seed"]
        assert len(table) == 3 + 2             # header + 2 rows, 2 claims
        num = r"-?\d+\.\d{3}"
        assert re.fullmatch(rf"rq3 sigma=0\.1 e0: d={num} r={num}  "
                            rf"e0\.5: d={num} r={num}", table[3])
        assert re.fullmatch(rf"rq3 sigma=0\.1 regret-vs-rate rho={num}  "
                            r"best reward at eps=(0|0\.5)", table[4])
        assert table[3:] == claim_lines(load_sweep(tmp_path / "results",
                                                   "rq3"))
        # without --results, report reads the sweep's harness.out_dir
        assert run(["--config", str(cfg), "report", "--rq", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == table

    def test_report_with_a_cell_directory_missing_is_data_error(
            self, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path)
        assert run(["--config", str(cfg), "sweep", "--rq", "3"]) == 0
        with open(tmp_path / "results" / "rq3" / "summary.csv") as f:
            fp = next(csv.DictReader(f))["cell_fingerprint"]
        shutil.rmtree(tmp_path / "results" / "rq3" / fp)
        capsys.readouterr()
        assert run(["report", "--rq", "3",
                    "--results", str(tmp_path / "results")]) == 3
        assert "missing results for cell" in capsys.readouterr().err

    def test_report_with_a_truncated_cell_report_is_data_error(
            self, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path)
        assert run(["--config", str(cfg), "sweep", "--rq", "3"]) == 0
        with open(tmp_path / "results" / "rq3" / "summary.csv") as f:
            fp = next(csv.DictReader(f))["cell_fingerprint"]
        (tmp_path / "results" / "rq3" / fp / "report.json").write_text(
            '{"seeds": [')
        capsys.readouterr()
        assert run(["report", "--rq", "3",
                    "--results", str(tmp_path / "results")]) == 3
        assert "is not valid JSON" in capsys.readouterr().err
        # a resumed sweep reads the same report to decide what to skip
        assert run(["--config", str(cfg), "sweep", "--rq", "3"]) == 3

    @pytest.mark.parametrize("damage", ["empty-entry", "missing-field",
                                        "unknown-field", "no-seeds",
                                        "quality-mean", "quality-missing"])
    def test_report_with_a_damaged_seed_entry_is_data_error(
            self, tmp_path, capsys, damage):
        cfg = self.sweep_config(tmp_path)
        assert run(["--config", str(cfg), "sweep", "--rq", "3"]) == 0
        with open(tmp_path / "results" / "rq3" / "summary.csv") as f:
            fp = next(csv.DictReader(f))["cell_fingerprint"]
        path = tmp_path / "results" / "rq3" / fp / "report.json"
        doc = json.loads(path.read_text())
        quality = path.with_name("quality.json")
        if damage == "empty-entry":
            doc["seeds"] = [{}]
            message = "'seeds.0.seed', 'seeds.0.best_epoch'"
        elif damage == "missing-field":
            del doc["seeds"][0]["report"]["violation"]
            message = "['seeds.0.report.violation']"
        elif damage == "unknown-field":
            doc["seeds"][0]["report"]["bogus"] = 1.0
            message = "['seeds.0.report.bogus']"
        elif damage == "no-seeds":
            doc["seeds"] = []
            message = "seeds is not a non-empty list"
        elif damage == "quality-mean":
            q = json.loads(quality.read_text())
            del q["mean"]
            quality.write_text(json.dumps(q))
            message = "lacks a numeric mean"
        else:
            quality.unlink()
            message = "lacks its quality.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["report", "--rq", "3",
                    "--results", str(tmp_path / "results")]) == 3
        assert message in capsys.readouterr().err
        # a resumed sweep reuses the same cell and returns the result
        # read back from its files
        assert run(["--config", str(cfg), "sweep", "--rq", "3"]) == 3

    def test_report_with_summary_columns_missing_is_data_error(
            self, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path)
        assert run(["--config", str(cfg), "sweep", "--rq", "3"]) == 0
        summary = tmp_path / "results" / "rq3" / "summary.csv"
        with open(summary, newline="") as f:
            rows = list(csv.DictReader(f))
        kept = [c for c in rows[0] if c not in ("cell", "cell_fingerprint")]
        with open(summary, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=kept, extrasaction="ignore",
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        assert run(["report", "--rq", "3",
                    "--results", str(tmp_path / "results")]) == 3
        assert "cell/cell_fingerprint columns" in capsys.readouterr().err

    def test_online_cells_with_zero_steps_report_epoch_0(self, tmp_path):
        cfg = self.sweep_config(tmp_path, rq2_modes=["sac"],
                                rq2_online_steps=0)
        assert run(["--config", str(cfg), "sweep", "--rq", "2"]) == 0
        with open(tmp_path / "results" / "rq2" / "summary.csv") as f:
            rows = list(csv.DictReader(f))
        assert sorted(r["cell"] for r in rows) == ["sac-flat", "sac-hist"]
        assert {r["best_epoch"] for r in rows} == {"0"}

    def test_jobs_capped_by_environment(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        assert run(["--config", str(cfg), "sweep", "--rq", "3",
                    "--jobs", "64"], env={ENV_MAX_JOBS: "1"}) == 0

    def test_jobs_cap_that_is_not_an_integer_is_usage_error(self, tmp_path,
                                                            capsys):
        cfg = self.sweep_config(tmp_path)
        assert run(["--config", str(cfg), "sweep", "--rq", "3"],
                   env={ENV_MAX_JOBS: "two"}) == 2
        assert f"UsageError: {ENV_MAX_JOBS}" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("flags,harness", [
        (["--jobs", "0"], {}), (["--jobs", "-7"], {}), ([], {"jobs": 0})])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, flags,
                                           harness):
        cfg = self.sweep_config(tmp_path, **harness)
        assert run(["--config", str(cfg), "sweep", "--rq", "3",
                    *flags]) == 2
        assert "UsageError: jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    #: per row, the rq to sweep and harness values that no sweep can run
    DAMAGED_HARNESS = {
        "rq1-algo-unknown": ("1", {"rq1_algos": ["ppo"]}),
        "rq1-scenario-unknown": ("1", {"rq1_scenarios": ["xx"]}),
        "train-steps-negative": ("1", {"train_steps": -1}),
        "epoch-steps-zero": ("1", {"epoch_steps": 0}),
        "eval-days-zero": ("1", {"eval_days": 0}),
        "data-days-zero": ("1", {"data_days": 0}),
        "dataset-steps-zero": ("1", {"dataset_steps": 0}),
        "rq2-mode-unknown": ("2", {"rq2_modes": ["xx"]}),
        "final-buffer-under-one-episode": ("1", {
            "rq1_scenarios": ["final_buffer"], "dataset_steps": 20,
            "data_days": 0.25}),
        "rq3-epsilon-above-1": ("3", {"rq3_epsilons": [1.5]}),
        "rq3-sigma-negative": ("3", {"rq3_sigmas": [-0.1]}),
        "rq4-size-zero": ("4", {"rq4_sizes": [0, 360]}),
        "rq5-seq-len-zero": ("5", {"rq5_seq_lens": [0]}),
        "rq2-batch-zero": ("2", {"rq2_batch": 0}),
        "rq5-batch-zero": ("5", {"rq5_batch": 0}),
        "expert-seed-negative": ("5", {"expert_seed": -1}),
        "eval-seed-negative": ("1", {"eval_seed": -1}),
    }

    @pytest.mark.parametrize("rq,harness", DAMAGED_HARNESS.values(),
                             ids=DAMAGED_HARNESS.keys())
    def test_damaged_harness_exits_2_before_building(self, tmp_path, capsys,
                                                     rq, harness):
        cfg = self.sweep_config(tmp_path, **harness)
        assert run(["--config", str(cfg), "sweep", "--rq", rq]) == 2
        assert "UsageError" in capsys.readouterr().err
        # no expert, dataset or cell
        assert not (tmp_path / "results").exists()

    def test_report_before_sweep_is_data_error(self, tmp_path):
        assert run(["report", "--rq", "4",
                    "--results", str(tmp_path)]) == 3


class TestAudit:
    #: per command that writes files: its arguments, writing into {out},
    #: and the seeds it uses (workspace config: seed 1, agent seed 0)
    AUDITED = {
        "simulate": (["simulate", "--days", "0.25", "--seed", "3",
                      "--out", "{out}"], [3]),
        "collect": (["collect", "--scenario", "trained", "--expert", "{ckpt}",
                     "--steps", "10", "--out", "{out}/d.hvds"], [1]),
        "train": (["train", "--data", "{data}", "--out", "{out}"], [0]),
        "eval": (["eval", "--ckpt", "{ckpt}", "--days", "0.25", "--seeds",
                  "2", "--out", "{out}"], [0, 1]),
        "sweep": (["sweep", "--rq", "2"], [0, 1]),
        "regret": (["regret", "--data", "{data}", "--expert", "{ckpt}",
                    "--out", "{out}/q.json"], []),
    }

    @pytest.mark.parametrize("argv,seeds", AUDITED.values(),
                             ids=AUDITED.keys())
    def test_command_appends_one_row_with_its_seeds_and_fingerprint(
            self, workspace, tmp_path, capsys, argv, seeds):
        command, out = argv[0], tmp_path / "out"
        cfg = workspace["config"]
        if command == "sweep":      # two seeds of two online cells
            cfg = TestSweepAndReport().sweep_config(
                tmp_path, seeds=2, out_dir=str(out), rq2_modes=["sac"],
                rq2_online_steps=0)
        assert run(["--config", str(cfg), "--print-config"]) == 0
        fp = json.loads(capsys.readouterr().out)["fingerprint"]
        argv = ["--config", str(cfg), *(a.format(
            out=out, ckpt=workspace["ckpt"], data=workspace["data"])
            for a in argv)]
        assert run(argv) == 0
        audit = out / "audit.jsonl"
        (row,) = map(json.loads, audit.read_text().splitlines())
        assert set(row) == {"utc", "command", "subcommand",
                            "config_fingerprint", "seeds", "duration_s"}
        assert row["command"] == shlex.join(argv)
        assert row["subcommand"] == command
        assert row["seeds"] == seeds
        assert row["config_fingerprint"] == fp
        if command == "sweep":      # report reads the sweep, writes nothing
            before = audit.read_bytes()
            assert run(["--config", str(cfg), "report", "--rq", "2"]) == 0
            assert audit.read_bytes() == before


@pytest.fixture(scope="module")
def finished_sweep(tmp_path_factory):
    """The results directory of one finished rq3 sweep and one rq2 sweep of
    CQL; copy it to damage."""
    root = tmp_path_factory.mktemp("sweep")
    cfg = TestSweepAndReport().sweep_config(root, rq2_modes=["cql"],
                                            rq2_seq_len=2, rq2_batch=16)
    for rq in ("3", "2"):
        assert run(["--config", str(cfg), "sweep", "--rq", rq]) == 0
    return root / "results"


def _cell_report(results, rq="rq3") -> Path:
    """The ``report.json`` of the first cell the ``rq`` summary lists."""
    with open(results / rq / "summary.csv") as f:
        fp = next(csv.DictReader(f))["cell_fingerprint"]
    return results / rq / fp / "report.json"


def _write(path, data):
    """Replace ``path`` (a file or directory) with ``data``: bytes, text,
    a JSON document, or None for an empty directory."""
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)
    if data is None:
        path.mkdir()
    elif isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data if isinstance(data, str) else json.dumps(data))


def _config(data):
    """``--print-config`` with ``data`` written (`_write`) as the config."""
    def damage(tmp, workspace, results):
        _write(tmp / "c.json", data)
        return ["--config", str(tmp / "c.json"), "--print-config"]
    return damage


def _weather(data):
    """``simulate`` on ``data`` written as a weather CSV; ``...`` leaves
    the file missing."""
    def damage(tmp, workspace, results):
        if data is not ...:
            _write(tmp / "w.csv", data)
        return ["simulate", "--weather", f"csv:{tmp / 'w.csv'}", "--days",
                "0.05", "--out", str(tmp / "o")]
    return damage


def _report(where, data, rq="rq3"):
    """Damage the ``rq`` sweep's ``summary.csv`` or first ``report.json``;
    a callable ``data`` edits the cell report's JSON document."""
    def damage(tmp, workspace, results):
        path = (results / rq / "summary.csv" if where == "summary"
                else _cell_report(results, rq))
        if callable(data):
            doc = json.loads(path.read_text())
            data(doc)
            _write(path, doc)
        else:
            _write(path, data)
        return ["report", "--rq", rq[2:], "--results", str(results)]
    return damage


def _summary_without(cell):
    """``report`` on the rq2 sweep with the rows of ``cell`` dropped from
    its summary."""
    def damage(tmp, workspace, results):
        summary = results / "rq2" / "summary.csv"
        with open(summary, newline="") as f:
            rows = list(csv.DictReader(f))
        with open(summary, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(r for r in rows if r["cell"] != cell)
        return ["report", "--rq", "2", "--results", str(results)]
    return damage


def _summary_row(key, value):
    """``report`` on the rq3 sweep with column ``key`` of its first summary
    row set to ``value``."""
    def damage(tmp, workspace, results):
        summary = results / "rq3" / "summary.csv"
        with open(summary, newline="") as f:
            rows = list(csv.DictReader(f))
        rows[0][key] = value
        with open(summary, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        return ["report", "--rq", "3", "--results", str(results)]
    return damage


def _summary_columns(tmp, workspace, results):
    summary = results / "rq3" / "summary.csv"
    lines = summary.read_text().splitlines()
    cols = lines[0].split(",")
    keep = [cols.index("cell"), cols.index("cell_fingerprint")]
    summary.write_text("".join(
        ",".join(line.split(",")[i] for i in keep) + "\n" for line in lines))
    return ["report", "--rq", "3", "--results", str(results)]


def _seed_entry(key, value):
    def edit(doc):
        doc["seeds"][0][key] = value
    return edit


def _seed_report(key, value):
    def edit(doc):
        doc["seeds"][0]["report"][key] = value
    return edit


def _axis(key, value=...):
    """Set axis ``key`` to ``value``; ``...`` deletes it."""
    def edit(doc):
        if value is ...:
            del doc["axes"][key]
        else:
            doc["axes"][key] = value
    return edit


def _dataset(edit, command="train"):
    """``train`` (or ``regret``) on the workspace dataset with its header
    rewritten by ``edit``; the CRCs do not cover the header."""
    def damage(tmp, workspace, results):
        bad = tmp / "bad.hvds"
        bad.write_bytes(workspace["data"].read_bytes())
        rewrite_header(bad, edit)
        if command == "train":
            return ["--config", str(workspace["config"]), "train", "--data",
                    str(bad), "--out", str(tmp / "t")]
        return ["regret", "--data", str(bad), "--expert",
                str(workspace["ckpt"]), "--out", str(tmp / "q.json")]
    return damage


def _starts_past_int64(header):
    return {**header, "episode_starts": [0, 10 ** 30]}


def _column(name, change):
    """A header edit that applies ``change`` to column ``name``'s record."""
    def edit(header):
        change(next(c for c in header["columns"] if c["name"] == name))
        return header
    return edit


def _huge_obs_dim(tmp, workspace, results):
    ckpt = tmp / "a.ckpt"
    make_agent(AgentConfig(algo="sac"), 8, 4).save(ckpt, epoch=0, step=0)
    rewrite_header(ckpt, lambda h: {**h, "meta": {**h["meta"],
                                                  "obs_dim": 10 ** 30}})
    return ["eval", "--ckpt", str(ckpt), "--env", "dc", "--days", "0.05",
            "--out", str(tmp / "e")]


#: damaged input files, each a function of (tmp_path, workspace, sweep
#: results) that writes the damage and returns the argv that reads it
DAMAGED_INPUTS = {
    "config-dir": _config(None),
    "config-not-utf8": _config(b'{"seed": "\xff"}'),
    "config-too-deep": _config("[" * 200_000),
    "weather-missing": _weather(...),
    "weather-dir": _weather(None),
    "weather-not-a-number": _weather("step,t_out_c,rh_pct\n0,1,2\n1,x,3\n"),
    "weather-2-fields": _weather("step,t_out_c,rh_pct\n0,1,2\n1,3\n"),
    "weather-4-fields": _weather("step,t_out_c,rh_pct\n0,1,2\n1,3,4,5\n"),
    "summary-not-utf8": _report("summary", b"cell,cell_fingerprint\n\xff,x\n"),
    "summary-dir": _report("summary", None),
    "summary-only-cell-columns": _summary_columns,
    "report-json-dir": _report("cell", None),
    "report-json-too-deep": _report("cell", "[" * 200_000),
    "violation-str": _report("cell", _seed_report("violation", "0.1")),
    "avg-reward-str": _report("cell", _seed_report("avg_reward", "-1")),
    "axes-list": _report("cell", lambda doc: doc.update(axes=[0.0, 0.1])),
    "seed-str": _report("cell", _seed_entry("seed", "0")),
    "curve-of-int": _report("cell", _seed_entry("curve", [1])),
    "seeds-repeated": _report(
        "cell", lambda doc: doc["seeds"].append(doc["seeds"][0])),
    "summary-seed-7": _summary_row("seed", "7"),
    "rq2-summary-without-cql-hist": _summary_without("cql-hist"),
    "axis-epsilon-str": _report("cell", _axis("epsilon", "x")),
    "axes-without-sigma": _report("cell", _axis("sigma")),
    "rq2-quantile-without-iqr": _report(
        "cell", lambda doc: doc["seeds"][0]["report"]["zone_quantiles"][0]
        .pop("iqr"), "rq2"),
    "rq2-no-zone-quantiles": _report(
        "cell", _seed_report("zone_quantiles", []), "rq2"),
    "episode-starts-past-int64-train": _dataset(_starts_past_int64),
    "episode-starts-past-int64-regret": _dataset(_starts_past_int64,
                                                 "regret"),
    "obs-dim-past-int64": _huge_obs_dim,
    "dataset-column-renamed": _dataset(
        _column("terminal", lambda c: c.update(name="done"))),
    "dataset-column-int32": _dataset(
        _column("obs", lambda c: c.update(dtype="int32"))),
    "dataset-reward-2d": _dataset(
        _column("reward", lambda c: c["shape"].append(1))),
}


def _declared_fields(doc, table) -> list:
    """``(owner, key)`` for every key of ``table`` and of its nested tables,
    an owner of a list of tables being the list's first object."""
    out = []
    for key, kind in table.items():
        out.append((doc, key))
        if isinstance(kind, list) and isinstance(kind[0], dict):
            out += _declared_fields(doc[key][0], kind[0])
        elif isinstance(kind, dict):
            out += _declared_fields(doc[key], kind)
    return out


class TestDamagedInputs:
    @pytest.mark.parametrize("damage", DAMAGED_INPUTS.values(),
                             ids=DAMAGED_INPUTS.keys())
    def test_exits_3(self, workspace, finished_sweep, tmp_path, capsys,
                     damage):
        results = tmp_path / "results"
        shutil.copytree(finished_sweep, results)
        assert run(damage(tmp_path, workspace, results)) == 3
        assert "DataError" in capsys.readouterr().err

    @given(data=st.data())
    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_damaged_cell_report_exits_3(self, finished_sweep, tmp_path,
                                         data):
        # delete one field that the cell record declares, at any depth, or
        # give it a value of another type
        results = tmp_path / "results"
        if not results.exists():
            shutil.copytree(finished_sweep, results)
        path = _cell_report(results)
        original = path.read_text()
        doc = json.loads(original)
        owner, key = data.draw(st.sampled_from(_declared_fields(
            doc, {**CellResult.FIELDS, "axes": _AXES["rq3"]})))
        old = owner[key]
        swaps = [v for v in (None, True, "x", 1.5, 7, [1], {"k": 1})
                 if type(v) is not type(old)
                 and not (type(old) is float and type(v) is int)]
        new = data.draw(st.sampled_from(["delete", *swaps]))
        if new == "delete":
            del owner[key]
        else:
            owner[key] = new
        path.write_text(json.dumps(doc))
        try:
            assert run(["report", "--rq", "3", "--results",
                        str(results)]) == 3
        finally:
            path.write_text(original)
