"""The benchmark's tracer (bench/tracing.py) wraps named entry points of
the program where their callers look them up. These tests keep a rename
or a move of one of them from passing unnoticed outside ``pytest bench``.
"""
import importlib
from pathlib import Path

import numpy as np
import pytest

from hvacrl.agents import ReplayBuffer

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_every_traced_entry_point_exists_and_is_restored(tracing):
    original = ReplayBuffer.view
    with tracing.installed(tracing.Tracer()):
        assert ReplayBuffer.view is not original
    assert ReplayBuffer.view is original


def test_buffer_sampling_is_traced_without_a_view(tracing):
    buf = ReplayBuffer(2, 1, capacity=8)
    for t in range(4):
        buf.add([0.0, 1.0], [0.0], 0.0, t == 3)
    with tracing.installed(tracing.Tracer()) as tracer:
        buf.sample_batch(4, 2, np.random.default_rng(0))
    assert tracer.calls("agents.replay.sample_batch") == 1
    assert tracer.calls("agents.replay.buffer_view") == 0
