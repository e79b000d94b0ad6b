"""Tests of the benchmark itself: failure accounting, seed plumbing, the
metric names promised in BENCHMARK.json, and the refusal to run without
the program's sources.

Run from the repository root: python -m pytest -q bench
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ONLINE = WORKLOADS["online-collect"]
# the trained-expert collection alone: the cheapest command of any workload
SMALL = replace(ONLINE, commands=ONLINE.commands[1:])
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_failing_command_is_counted_and_does_not_abort(tmp_path):
    missing = ["eval", "--ckpt", "missing.ckpt", "--out", "bad"]
    failing = replace(SMALL, commands=SMALL.commands + (missing,))
    out = harness.run_workload(failing, seed=0, seconds=0, trace=False,
                               work_root=tmp_path)
    assert out.failed_commands == [(missing, 3)]
    assert (out.attempted, out.failed) == (2, 1)
    assert out.correct, out.problems
    assert out.env_steps > 0          # the command before it still ran


def test_missing_sweep_cells_count_as_failures(tmp_path):
    sweep = WORKLOADS["offline-sweep"]
    # rq5 alone writes no rq1 summary: all four rq1 cells are missing
    rq5_only = replace(sweep, commands=sweep.commands[1:])
    out = harness.run_workload(rq5_only, seed=0, seconds=0, trace=False,
                               work_root=tmp_path)
    assert (out.attempted, out.failed) == (1 + 4 + 1, 4)


def test_same_seed_same_digest_other_seed_other_digest(tmp_path):
    digests = [harness.run_workload(ONLINE, seed, 0, False, tmp_path).digest
               for seed in (3, 3, 4)]
    assert digests[0] == digests[1] != digests[2]


def test_metric_names_match_benchmark_json(tmp_path):
    traced = harness.run_workload(SMALL, 0, 0, True, tmp_path)
    assert traced.correct, traced.problems
    assert traced.digest and len(traced.traced_wall_s) == 1
    assert set(traced.layers) == {m["name"] for m in SPEC["per_layer"]}
    assert set(traced.end_to_end()) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["per_layer"] + SPEC["end_to_end"]:
        unit = (traced.layers.get(m["name"])
                or traced.end_to_end()[m["name"]])[1]
        assert unit == m["unit"], m["name"]
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "online-collect",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
