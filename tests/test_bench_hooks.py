"""The benchmark's tracer (bench/tracing.py) wraps named entry points of
the program where their callers look them up, and its workloads
(bench/workloads.py) count work in the files the program writes. These
tests keep a rename or a move of one of them, or a change of that file
layout, from passing unnoticed outside ``pytest bench``.
"""
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from hvacrl.agents import AgentConfig, ReplayBuffer, make_agent
from hvacrl.buildsim import BuildingEnv, EnvConfig
from hvacrl.cli import main
from hvacrl.evalharness import run_rq1, run_rq5

from test_evalharness import tiny_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_every_traced_entry_point_exists_and_is_restored(tracing):
    original = ReplayBuffer.view
    with tracing.installed(tracing.Tracer()):
        assert ReplayBuffer.view is not original
    assert ReplayBuffer.view is original


@pytest.mark.parametrize("scenario", ["final_buffer", "trained"])
def test_the_tracer_sees_every_collection(tracing, tmp_path, scenario):
    # online-collect's per-layer collection metrics read these spans: a
    # collector called where the tracer does not wrap it would read 0
    env = BuildingEnv(EnvConfig(days=0.25))
    expert = tmp_path / "expert.ckpt"
    make_agent(AgentConfig(algo="sac"), env.obs_spec.size,
               env.act_spec.size).save(expert, epoch=0, step=0)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"data": {"days": 0.25, "steps": 36}}))
    spans = {"final_buffer": "datagen.collect_final_buffer",
             "trained": "datagen.collect_trained"}
    want = {span: int(kind == scenario) for kind, span in spans.items()}
    with tracing.installed(tracing.Tracer()) as tracer:
        assert main(["--config", str(config), "collect", "--scenario",
                     scenario.replace("_", "-"), "--expert", str(expert),
                     "--out", str(tmp_path / "d.hvds")], env_vars={}) == 0
    assert {span: tracer.calls(span) for span in want} == want
    with tracing.installed(tracing.Tracer()) as tracer:
        run_rq1(tiny_config(tmp_path / "results", dataset_steps=72,
                            rq1_scenarios=(scenario,), rq1_algos=("td3",)))
    assert {span: tracer.calls(span) for span in want} == want


def test_buffer_sampling_is_traced_without_a_view(tracing):
    buf = ReplayBuffer(2, 1, capacity=8)
    for t in range(4):
        buf.add([0.0, 1.0], [0.0], 0.0, t == 3)
    with tracing.installed(tracing.Tracer()) as tracer:
        buf.sample_batch(4, 2, np.random.default_rng(0))
    assert tracer.calls("agents.replay.sample_batch") == 1
    assert tracer.calls("agents.replay.buffer_view") == 0


def test_sweep_work_counts_the_result_layout(workloads, tmp_path):
    # offline-sweep's throughput is the work its counter finds in the
    # sweep's result files: one count of updates per seed entry, and the
    # evaluation steps of every curve row on top of the datasets' rows
    res = run_rq5(tiny_config(tmp_path / "results", seeds=2))
    entries = sum(len(cell.seeds) for cell in res.cells.values())
    assert entries == 4
    datasets = (tmp_path / "results" / "datasets").glob("*.hvds")
    held = sum(workloads.hvds_rows(p) for p in datasets)
    steps, updates = workloads._sweep_work(tmp_path)
    assert updates == workloads.RQ5_TRAIN_STEPS * entries
    assert steps > held > 0
