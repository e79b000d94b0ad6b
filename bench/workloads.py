"""The benchmark workloads: set-up, the timed CLI commands, and how to
check and count what the commands produced.

Every command runs from a fresh iteration directory next to the set-up
directory and names its files by relative path, so result bytes (which
embed configuration fingerprints, and through them file paths) do not
depend on where the checkout lives.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from hvacrl.agents import AgentConfig, make_agent
from hvacrl.buildsim import BuildingEnv, EnvConfig
from hvacrl.datagen import read_dataset_header
from hvacrl.evalharness import HarnessConfig, expert_config

SETUP = "../setup"              # the set-up directory, seen from an iteration
CONFIG = f"{SETUP}/config.json"
EXPERT = f"{SETUP}/expert.ckpt"     # SAC, history L=8: the harness default
FLAT = f"{SETUP}/flat.ckpt"         # SAC, flat
SETUP_DATA = f"{SETUP}/data.hvds"

# offline-sweep: rq1 trains all four algorithms flat at B=256, rq5 one
# history length (L=8, B=32); one-day evaluations keep gradient updates
# the dominant cost, as they are in the paper-scale sweeps
RQ1_ALGOS = ("td3", "sac", "td3bc", "cql")
RQ1_TRAIN_STEPS = 30
RQ5_TRAIN_STEPS = 16
SWEEP_DATASET_STEPS = 432           # three one-day dc episodes
# rollout-eval: the harness's 30-day evaluation episode
EVAL_DAYS = 30
EVAL_SEEDS = 1
REGRET_DATASET_STEPS = 432
# online-collect: TD3 final buffer long enough that most steps update
FINAL_BUFFER_STEPS = 700
TRAINED_STEPS = 432
BATCH = 256                         # AgentConfig default batch size


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[int], dict]       # CLI config document for a seed
    commands: tuple                     # argv lists, run in order
    work: Callable[[Path], tuple]       # iteration dir -> (env steps, updates)
    summaries: dict = field(default_factory=dict)  # summary.csv -> rows
    setup_dataset: bool = False         # set-up also collects data.hvds


def _dims() -> tuple[int, int]:
    env = BuildingEnv(EnvConfig(kind="dc"))
    return env.obs_spec.size, env.act_spec.size


def save_checkpoints(setup_dir: Path, seed: int) -> None:
    """Seeded, untrained checkpoints: update and forward cost do not depend
    on the weight values."""
    obs_dim, act_dim = _dims()
    expert = make_agent(expert_config(HarnessConfig(expert_seed=seed)),
                        obs_dim, act_dim)
    expert.save(setup_dir / "expert.ckpt", epoch=0, step=0)
    flat = make_agent(AgentConfig(algo="sac", seed=seed + 1), obs_dim, act_dim)
    flat.save(setup_dir / "flat.ckpt", epoch=0, step=0)


def setup_collect_command() -> list[str]:
    """Collects the dataset rollout-eval scores, run from the set-up dir."""
    return ["--config", "config.json", "collect", "--scenario", "trained",
            "--expert", "expert.ckpt", "--steps", str(REGRET_DATASET_STEPS),
            "--out", "data.hvds"]


def hvds_rows(path: Path) -> int:
    header = read_dataset_header(path)
    obs = next(c for c in header["columns"] if c["name"] == "obs")
    return int(obs["shape"][0])


def _json(path: Path):
    return json.loads(path.read_text()) if path.exists() else None


# ---------------------------------------------------------------------------
# offline-sweep


def _sweep_config(seed: int) -> dict:
    return {"seed": seed, "harness": {
        "seeds": 1, "eval_seed": seed, "eval_days": 1.0,
        "dataset_steps": SWEEP_DATASET_STEPS, "train_steps": RQ1_TRAIN_STEPS,
        "epoch_steps": RQ1_TRAIN_STEPS, "batch_size": BATCH, "jobs": 1,
        "expert_path": EXPERT, "expert_seed": seed,
        "rq1_algos": list(RQ1_ALGOS), "rq1_scenarios": ["trained"],
        "rq5_seq_lens": [8], "rq5_batch": 32,
        "rq5_train_steps": RQ5_TRAIN_STEPS}}


def _sweep_work(it: Path) -> tuple[int, int]:
    datasets = (it / "results" / "datasets").glob("*.hvds")
    steps = sum(hvds_rows(p) for p in datasets)
    updates = 0
    for rq, train_steps in (("rq1", RQ1_TRAIN_STEPS), ("rq5", RQ5_TRAIN_STEPS)):
        for report in (it / "results" / rq).glob("*/report.json"):
            for seed in _json(report)["seeds"]:
                updates += train_steps
                steps += len(seed["curve"]) * seed["report"]["steps"]
    return steps, updates


# ---------------------------------------------------------------------------
# rollout-eval


def _eval_config(seed: int) -> dict:
    return {"seed": seed}


def _eval_work(it: Path) -> tuple[int, int]:
    steps = 0
    for out in ("eval-flat", "eval-hist", "sim-dc", "sim-mu"):
        doc = _json(it / out / "report.json")
        steps += sum(r["steps"] for r in doc["reports"]) if doc else 0
    quality = _json(it / "quality.json")
    if quality:
        horizon = read_dataset_header(it / SETUP_DATA)["horizon"]
        steps += len(quality["deltas"]) * horizon
    return steps, 0


# ---------------------------------------------------------------------------
# online-collect


def _collect_config(seed: int) -> dict:
    return {"seed": seed, "data": {"algo": "td3", "days": 1.0,
                                   "epsilon": 0.1, "sigma": 0.1}}


def _collect_work(it: Path) -> tuple[int, int]:
    steps = updates = 0
    final = it / "final-buffer.hvds"
    if final.exists():
        meta = read_dataset_header(final)["metadata"]
        requested = meta["requested_steps"]
        steps += requested
        # collect_final_buffer's warm-up: updates start once the buffer
        # holds max(start_steps, batch) uniform-random steps
        warmup = min(1000, max(BATCH, requested // 10))
        updates += requested - max(warmup, BATCH)
    trained = it / "trained.hvds"
    if trained.exists():
        steps += hvds_rows(trained)
    return steps, updates


WORKLOADS = {w.name: w for w in (
    Workload(
        name="offline-sweep",
        why="sweep rq1 (4 algorithms, flat, B=256) then rq5 (L=8, B=32): "
            "gradient updates dominate; exercises the CQL update, bypasses "
            "scalar rollouts",
        config=_sweep_config,
        commands=(
            ["--config", CONFIG, "sweep", "--rq", "1", "--jobs", "1",
             "--out", "results"],
            ["--config", CONFIG, "sweep", "--rq", "5", "--jobs", "1",
             "--out", "results"]),
        summaries={"results/rq1/summary.csv": len(RQ1_ALGOS),
                   "results/rq5/summary.csv": 1},
        work=_sweep_work),
    Workload(
        name="rollout-eval",
        why="eval flat and history checkpoints on a 30-day dc episode, "
            "simulate dc and mu, regret: forward-only, zero updates; "
            "exercises scalar rollouts",
        config=_eval_config,
        commands=(
            ["--config", CONFIG, "eval", "--ckpt", FLAT, "--env", "dc",
             "--days", str(EVAL_DAYS), "--seeds", str(EVAL_SEEDS),
             "--out", "eval-flat"],
            ["--config", CONFIG, "eval", "--ckpt", EXPERT, "--env", "dc",
             "--days", str(EVAL_DAYS), "--seeds", str(EVAL_SEEDS),
             "--out", "eval-hist"],
            ["--config", CONFIG, "simulate", "--env", "dc", "--out", "sim-dc"],
            ["--config", CONFIG, "simulate", "--env", "mu", "--out", "sim-mu"],
            ["--config", CONFIG, "regret", "--data", SETUP_DATA,
             "--expert", EXPERT, "--out", "quality.json"]),
        setup_dataset=True,
        work=_eval_work),
    Workload(
        name="online-collect",
        why="collect final-buffer (TD3) then trained (perturbed history "
            "expert): replay-buffer writes and a fresh view per update",
        config=_collect_config,
        commands=(
            ["--config", CONFIG, "collect", "--scenario", "final-buffer",
             "--steps", str(FINAL_BUFFER_STEPS), "--out", "final-buffer.hvds"],
            ["--config", CONFIG, "collect", "--scenario", "trained",
             "--expert", EXPERT, "--steps", str(TRAINED_STEPS),
             "--out", "trained.hvds"]),
        work=_collect_work),
)}


def summary_rows(path: Path) -> list[tuple[str, str]]:
    """(cell, seed) pairs of a sweep summary; empty when it is missing."""
    if not path.exists():
        return []
    with open(path, newline="") as f:
        return [(row["cell"], row["seed"]) for row in csv.DictReader(f)]
