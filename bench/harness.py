"""Runs one workload: repeated set-up, timed iterations of the workload's
CLI commands, output checks, and the metrics of the run."""
from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hvacrl.agents import load_agent
from hvacrl.cli import main as hvacrl_main
from hvacrl.datagen import verify_dataset

import tracing
from workloads import (Workload, save_checkpoints, setup_collect_command,
                       summary_rows)

# set-up is repeated (at least SETUP_MIN_REPS times, then until
# SETUP_BUDGET_S is spent or SETUP_MAX_REPS is reached) and its median kept
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 5, 15, 2.5
WALL_CLOCK_FILES = {"audit.jsonl", "train_log.jsonl"}   # not in the digest
# The speed of the shared 2-vCPU machine the benchmark was built on drifts
# up to 2x within minutes, for all code alike. So a fixed reference kernel
# is timed between commands and after every set-up, and reported times are
# scaled by REF_NOMINAL_S (about the kernel's median there) over the run's
# median kernel time: seconds at a fixed machine speed. Raw times are kept.
REF_NOMINAL_S = 0.042
_REF_X = np.random.default_rng(0).standard_normal((256, 256), dtype=np.float32)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupFailed(RuntimeError):
    pass


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    failed_commands: list = field(default_factory=list)   # (argv, exit code)
    problems: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)        # raw wall seconds
    wall_s: list = field(default_factory=list)         # raw, untraced
    traced_wall_s: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)    # kernel samples
    env_steps: int = 0                                 # per iteration
    updates: int = 0
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)         # traced runs only

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def speed(self) -> float:
        """Factor from this run's wall seconds to fixed-speed seconds."""
        return REF_NOMINAL_S / statistics.median(self.reference_s)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        wall = statistics.median(self.wall_s) * self.speed
        return {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(self.setup_s) * self.speed, "s"),
            "env_steps_per_s": (self.env_steps / wall, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = hvacrl_main(argv, env_vars={})
    return code, err.getvalue()


def tree_digest(root: Path, dirs) -> str:
    """sha256 over relative paths and bytes of every result file."""
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted((root / d).rglob("*")):
            if p.is_file() and p.name not in WALL_CLOCK_FILES:
                h.update(p.relative_to(root).as_posix().encode() + b"\0")
                h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def check_files(root: Path) -> list[str]:
    """Every HVDS file verifies and every checkpoint loads."""
    problems = []
    for path in sorted(root.rglob("*.hvds")):
        try:
            verify_dataset(path)
        except Exception as e:                       # noqa: BLE001
            problems.append(f"verify_dataset {path.name}: {e}")
    for path in sorted(root.rglob("*.ckpt")):
        try:
            load_agent(path)
        except Exception as e:                       # noqa: BLE001
            problems.append(f"load_agent {path.name}: {e}")
    return problems


def reference_s() -> float:
    """Wall seconds of a fixed mix of BLAS and small-array work."""
    t0 = time.perf_counter()
    for _ in range(100):
        y = _REF_X @ _REF_X
        for row in y[:64]:
            np.tanh(row[:8]).sum()
    return time.perf_counter() - t0


@contextmanager
def _inside(directory: Path):
    here = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(here)


def _run_commands(directory: Path, argv_list, refs: list) -> tuple[float, list]:
    """Run commands from ``directory``, timing the reference kernel before
    each and after the last; returns (wall s, [(argv, code, err)])."""
    wall = 0.0
    results = []
    with _inside(directory):
        refs.append(reference_s())
        for argv in argv_list:
            t0 = time.perf_counter()
            code, err = run_cli(argv)
            wall += time.perf_counter() - t0
            refs.append(reference_s())
            results.append((argv, code, err))
    return wall, results


def set_up(workload: Workload, setup_dir: Path, seed: int) -> float:
    """Fresh set-up directory: config, checkpoints, maybe a dataset.
    Returns its wall seconds."""
    if setup_dir.exists():
        shutil.rmtree(setup_dir)
    setup_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    (setup_dir / "config.json").write_text(
        json.dumps(workload.config(seed), sort_keys=True))
    save_checkpoints(setup_dir, seed)
    if workload.setup_dataset:
        with _inside(setup_dir):
            code, err = run_cli(setup_collect_command())
        if code != 0:
            raise SetupFailed(f"set-up collection exited {code}: {err}")
    return time.perf_counter() - t0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_root: Path) -> Outcome:
    """Set up, then run iterations for at most ``seconds`` (at least one).

    A traced run alternates untraced and traced iterations, so that the
    tracing overhead is measured within the run.
    """
    out = Outcome(workload=workload.name, seed=seed)
    work_root.mkdir(parents=True, exist_ok=True)
    root = work_root / f"run-{os.getpid()}-{time.monotonic_ns()}"
    setup_dir, it_dir = root / "setup", root / "it"
    setup_trace, runs_trace = tracing.Tracer(), tracing.Tracer()
    try:
        setup_digest = None
        while (len(out.setup_s) < SETUP_MIN_REPS
               or (sum(out.setup_s) < SETUP_BUDGET_S
                   and len(out.setup_s) < SETUP_MAX_REPS)):
            out.setup_s.append(set_up(workload, setup_dir, seed))
            out.reference_s.append(reference_s())
            digest = tree_digest(root, ["setup"])
            if setup_digest not in (None, digest):
                out.problems.append("set-up bytes differ between repetitions")
            setup_digest = digest
        if trace:                  # one more, traced, for the per-layer view
            with tracing.installed(setup_trace):
                set_up(workload, setup_dir, seed)
        out.problems += check_files(setup_dir)

        # iterate while another iteration is expected to end in time; a
        # traced run needs at least one untraced and one traced iteration
        start = time.perf_counter()
        took = []
        while not took or (time.perf_counter() - start
                           + statistics.median(took) <= seconds) \
                or (trace and len(took) < 2):
            t0 = time.perf_counter()
            traced = trace and len(took) % 2 == 1
            _iteration(workload, root, it_dir, traced, runs_trace, out)
            took.append(time.perf_counter() - t0)
        if trace:
            overhead = (statistics.median(out.traced_wall_s)
                        / statistics.median(out.wall_s) - 1.0)
            out.layers = tracing.layer_metrics(
                setup_trace, runs_trace, len(out.traced_wall_s), overhead)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def _iteration(workload, root, it_dir, traced, tracer, out) -> None:
    if it_dir.exists():
        shutil.rmtree(it_dir)
    it_dir.mkdir()
    steps_before = tracer.calls("buildsim.step")
    updates_before = tracer.calls("agents.update")
    if traced:
        with tracing.installed(tracer):
            wall, results = _run_commands(it_dir, workload.commands,
                                       out.reference_s)
        out.traced_wall_s.append(wall)
    else:
        wall, results = _run_commands(it_dir, workload.commands,
                                      out.reference_s)
        out.wall_s.append(wall)

    # failure accounting: commands, then sweep cells
    for argv, code, err in results:
        out.attempted += 1
        if code != 0:
            out.failed += 1
            out.failed_commands.append((argv, code))
            print(f"bench: command {' '.join(argv)} exited {code}: "
                  f"{err.strip()}", flush=True)
    for rel, expected in workload.summaries.items():
        rows = summary_rows(it_dir / rel)
        if len(set(rows)) != len(rows):
            out.problems.append(f"{rel} repeats a (cell, seed) row")
        out.attempted += expected
        out.failed += max(0, expected - len(set(rows)))

    # correctness: containers, determinism, and the work counted from outputs
    out.problems += check_files(it_dir)
    digest = tree_digest(root, ["setup", "it"])
    if out.digest and digest != out.digest:
        out.problems.append("result bytes differ between iterations")
    out.digest = out.digest or digest
    steps, updates = workload.work(it_dir)
    if out.env_steps and (steps, updates) != (out.env_steps, out.updates):
        out.problems.append("work done differs between iterations")
    out.env_steps, out.updates = steps, updates
    if traced:
        seen = (tracer.calls("buildsim.step") - steps_before,
                tracer.calls("agents.update") - updates_before)
        if seen != (steps, updates):
            out.problems.append(f"traced (steps, updates) {seen} differ from "
                                f"outputs {(steps, updates)}")


# ---------------------------------------------------------------------------
# machine record


def git_commit(root: Path) -> str:
    """HEAD commit read from the .git directory, or 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(root: Path) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):      # NumPy without dict-mode show_config
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_commit": git_commit(root),
    }
