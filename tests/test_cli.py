"""Command-line contract tests: exit codes, config plumbing, output
artifacts, byte determinism, and environment-variable overrides."""
import json
from pathlib import Path

import pytest

from hvacrl.cli import ENV_MAX_JOBS, ENV_OUT_DIR, default_config, main
from hvacrl.datagen import read_dataset


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
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"agent": {"algos": "sac"}}))
        assert run(["--config", str(p), "--print-config"]) == 2
        assert "UsageError" in capsys.readouterr().err

    def test_missing_config_file_is_data_error(self, capsys):
        assert run(["--config", "nope.json", "--print-config"]) == 3
        assert "DataError" in capsys.readouterr().err

    def test_malformed_json_is_data_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert run(["--config", str(p), "--print-config"]) == 3


class TestArgumentErrors:
    def test_unknown_flag(self):
        assert run(["simulate", "--frobnicate"]) == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_no_subcommand(self, capsys):
        assert run([]) == 2
        assert "subcommand" in capsys.readouterr().err

    def test_zero_days_simulation_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run(["simulate", "--env", "dc", "--days", "0",
                    "--out", str(out)]) == 2
        assert "UsageError" in capsys.readouterr().err
        assert not out.exists()

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


    def test_truncated_checkpoint_is_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(b"HVCK0001\x00")
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


class TestSweepAndReport:
    def sweep_config(self, tmp_path) -> Path:
        cfg = {
            "harness": {
                "seeds": 1, "eval_seed": 5, "eval_days": 0.25,
                "data_days": 0.5, "dataset_steps": 288, "train_steps": 6,
                "epoch_steps": 3, "batch_size": 16, "expert_steps": 30,
                "expert_seq_len": 2, "expert_batch": 16,
                "rq3_epsilons": [0.0, 0.5], "rq3_sigmas": [0.1],
                "rq3_dataset_steps": 144, "rq3_train_steps": 4,
                "out_dir": str(tmp_path / "results"),
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
        assert len(table) == 3

    def test_jobs_capped_by_environment(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        assert run(["--config", str(cfg), "sweep", "--rq", "3",
                    "--jobs", "64"], env={ENV_MAX_JOBS: "1"}) == 0

    def test_report_before_sweep_is_data_error(self, tmp_path):
        assert run(["report", "--rq", "4",
                    "--results", str(tmp_path)]) == 3
