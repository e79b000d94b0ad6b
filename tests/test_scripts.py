"""Command-line contract of the scripts: each runs from a checkout, and
scripts/artifact_digest.py's usage handling never starts the pipeline."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "artifact_digest.py"


@pytest.mark.parametrize("name", ["artifact_digest.py", "train_expert.py"])
def test_help_runs_from_a_checkout(name, tmp_path):
    # without PYTHONPATH, as a user runs it: the script finds its own src
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(SCRIPTS / name), "--help"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_and_creates_nothing(digest, flag, tmp_path,
                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert digest.main([flag]) == 0
    assert "OUT_DIR" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--out"], ["-x"], [], ["a", "b"]])
def test_bad_arguments_are_usage_errors(digest, argv, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.chdir(tmp_path)
    assert digest.main(argv) == 2
    assert "OUT_DIR" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_non_empty_out_dir_is_usage_error(digest, tmp_path, capsys):
    (tmp_path / "keep.txt").write_text("x")
    assert digest.main([str(tmp_path)]) == 2
    assert "not empty" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]
