"""Metrics, baseline comparisons, and the research-question experiment
runners.

Every controller evaluation produces a RunReport with three headline
metrics:

* A.R., the mean per-step reward;
* T.V., the fraction of (step, zone) pairs whose temperature leaves the
  tolerance band;
* A.P., the mean total power draw in kW;

plus per-zone temperature quantiles for box plots. The violation fraction
is recounted from the exported trajectory CSV on every evaluation as a
self-audit.

The five experiment runners (`run_rq1` .. `run_rq5`) list their cells
as data (key, axes, agent settings, dataset recipe or None for online)
and build nothing. One sweep skeleton, `_sweep`, checks every value
first, names each cell and dataset by what produced it, skips cells
whose ``report.json`` exists, builds the datasets of the rest, runs one
job per training seed with bounded parallelism, writes each cell as
soon as its last seed finishes, and ends with a flat summary CSV::

    <out>/<rq>/summary.csv                  one row per cell and seed
    <out>/<rq>/<cell-fingerprint>/report.json
    <out>/<rq>/<cell-fingerprint>/quality.json      (rq3 only)

A cell's ``report.json`` holds its axes and one entry per training seed:
the seed, the best epoch, that epoch's `RunReport` and the learning curve
(one row per epoch). It is written last, so it marks a finished cell,
and a failed sweep keeps the cells it finished. Every job trains one
agent with `_run_cell`: offline on a dataset file when the cell names
one, online against the rotating training presets otherwise. Result
files contain no timestamps, so identical configs reproduce identical
bytes.

A sweep's result is the files it wrote: every runner returns the
`SweepResult` that `load_sweep` reads back from them, as `hvacrl report`
does, and `claim_lines` checks the study's claim on it: rq1 offline
learners beat off-policy ones, rq2 history helps, rq3 regret tracks the
perturbation rate, rq4 returns saturate with dataset size, rq5 longer
windows do not hurt.
"""
from __future__ import annotations

import csv
import io
import tempfile
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import ClassVar

import numpy as np

from .agents import (CHECKPOINT_MAGIC, OFFLINE_ALGOS, Agent, AgentConfig,
                     PolicyController, load_agent, make_agent, train_offline,
                     train_online)
from .buildsim import (EVAL_PRESET, TRAIN_PRESETS, BuildingEnv, EnvConfig,
                       read_trajectory_csv, rule_controller, run_episode,
                       write_trajectory_csv)
from .container import atomic_write, read_json, read_text, write_json
from .datagen import (build_quality_report, check_collection,
                      collect_final_buffer, collect_trained, preset_rotation,
                      read_dataset, subsample, write_dataset)
from .errors import DataError, SimulationFault, SpecError, UsageError
from .fingerprint import bad_fields, fingerprint, to_jsonable

# observation channels holding zone temperatures, per environment kind
TEMP_CHANNELS = {"dc": slice(5, 7), "mu": slice(5, 8)}

# the summary columns `hvacrl report` prints, and those `load_sweep` reads
REPORT_COLUMNS = ("cell", "seed", "best_epoch", "avg_reward", "violation",
                  "avg_power_kw")
_SUMMARY_FIELDS = dict.fromkeys(
    ("cell", "cell_fingerprint", *REPORT_COLUMNS[1:]), str)

# fixed dataset-noise operating points for the quantity sweep
RQ4_NOISE = {"dc": (0.2, 0.1), "mu": (0.5, 0.2)}


# ---------------------------------------------------------------------------
# metrics


def violation_fraction(zone_temps: np.ndarray, band_low, band_high) -> float:
    """Fraction of zone-steps strictly outside [band_low, band_high]."""
    temps = np.asarray(zone_temps, dtype=float)
    lo = np.asarray(band_low, dtype=float)
    hi = np.asarray(band_high, dtype=float)
    if temps.ndim != 2 or temps.shape[1] != lo.shape[0]:
        raise DataError(f"temperature trace shape {temps.shape} does not "
                        f"match band of {lo.shape[0]} zones")
    outside = (temps < lo) | (temps > hi)
    return float(outside.mean())


def temperature_quantiles(zone_temps: np.ndarray) -> list:
    """Per-zone five-number summaries for box plots."""
    temps = np.asarray(zone_temps, dtype=float)
    out = []
    for z in range(temps.shape[1]):
        q0, q25, q50, q75, q100 = np.quantile(temps[:, z],
                                              [0.0, 0.25, 0.5, 0.75, 1.0])
        out.append({"min": float(q0), "q25": float(q25),
                    "median": float(q50), "q75": float(q75),
                    "max": float(q100), "iqr": float(q75 - q25)})
    return out


@dataclass
class RunReport:
    """Headline metrics of one deterministic evaluation rollout."""

    avg_reward: float          # A.R., mean per-step reward
    violation: float           # T.V., zone-step fraction outside the band
    avg_power_kw: float        # A.P., mean total power
    episode_return: float
    zone_quantiles: list       # per zone: min/q25/median/q75/max/iqr
    seed: int
    config_fingerprint: str
    weather: str = ""
    steps: int = 0

    #: every field, with the type of its value (see `fingerprint.bad_fields`)
    FIELDS: ClassVar[dict] = {
        "avg_reward": float, "violation": float, "avg_power_kw": float,
        "episode_return": float, "zone_quantiles": [dict], "seed": int,
        "config_fingerprint": str, "weather": str, "steps": int}

    def __post_init__(self):
        if not 0.0 <= self.violation <= 1.0:
            raise DataError(f"violation fraction {self.violation} outside "
                            f"[0, 1]")
        if self.avg_power_kw < 0.0:
            raise DataError(f"negative average power {self.avg_power_kw}")

    def to_jsonable(self) -> dict:
        return {k: v for k, v in asdict(self).items()}

    @classmethod
    def from_jsonable(cls, d: dict) -> "RunReport":
        return cls(**d)


def report_from_trajectory(traj, band_low, band_high,
                           config_fingerprint: str) -> RunReport:
    if traj.fault is not None:
        raise SimulationFault(f"evaluation rollout faulted: {traj.fault}")
    return RunReport(
        avg_reward=float(traj.rewards.mean()),
        violation=violation_fraction(traj.zone_temps, band_low, band_high),
        avg_power_kw=float(traj.total_power_w.mean()) * 1e-3,
        episode_return=float(traj.rewards.sum()),
        zone_quantiles=temperature_quantiles(traj.zone_temps),
        seed=traj.seed,
        config_fingerprint=config_fingerprint,
        weather=traj.weather_name,
        steps=len(traj))


def audit_violation_from_csv(csv_path, env_kind: str, band_low,
                             band_high) -> float:
    """Recount T.V. from an exported trajectory CSV (independent path)."""
    cols = read_trajectory_csv(csv_path)
    temps = cols["obs"][:, TEMP_CHANNELS[env_kind]]
    return violation_fraction(temps, band_low, band_high)


def _controller_for(policy, env: BuildingEnv):
    if isinstance(policy, (str, Path)):
        policy, _ = load_agent(policy)
    if isinstance(policy, Agent):
        return PolicyController(policy, env.obs_spec, env.act_spec), \
            policy.fingerprint()
    # otherwise a plain callable controller in physical units
    return policy, getattr(policy, "__name__", type(policy).__name__)


def evaluate_policy(policy, env: BuildingEnv, weather: str | None = None,
                    seeds=(0,), out_dir=None) -> list:
    """Deterministic-action rollouts, one RunReport per seed.

    ``policy`` is an Agent, a checkpoint path, or a plain controller
    callable. The seeds' episodes run in lockstep. Each rollout is exported
    to CSV and the violation fraction is recounted from the file; a
    mismatch aborts. The first seed whose rollout faulted raises its
    `SimulationFault`, after the seeds before it are written.
    """
    run_env = env.variant(weather)
    controller, policy_fp = _controller_for(policy, run_env)
    rp = run_env.reward_params
    cfg_fp = fingerprint({
        "policy": policy_fp, "env": run_env.fingerprint(),
        "weather": weather or "", "days": run_env.config.days})
    seeds = [int(seed) for seed in seeds]
    trajs = run_episode([(run_env, seed) for seed in seeds], controller)
    reports = []
    with (nullcontext(out_dir) if out_dir is not None
          else tempfile.TemporaryDirectory()) as csv_dir:
        for seed, traj in zip(seeds, trajs):
            report = report_from_trajectory(traj, rp.band_low, rp.band_high,
                                            cfg_fp)
            csv_path = Path(csv_dir) / f"trajectory_seed{seed}.csv"
            write_trajectory_csv(traj, csv_path)
            recount = audit_violation_from_csv(csv_path, run_env.config.kind,
                                               rp.band_low, rp.band_high)
            if recount != report.violation:
                raise DataError(
                    f"violation self-audit failed: harness {report.violation} "
                    f"vs CSV recount {recount}")
            reports.append(report)
    return reports


def rule_baseline_report(env: BuildingEnv, presets=None,
                         seeds=(0,)) -> list:
    """Evaluate the deadband rule controller on every weather preset."""
    kind = env.config.kind
    if presets is None:
        presets = list(TRAIN_PRESETS[kind]) + [EVAL_PRESET[kind]]
    controller = lambda obs: rule_controller(obs, kind)
    controller.__name__ = "rule"
    reports = []
    for preset in presets:
        reports.extend(evaluate_policy(controller, env, weather=preset,
                                       seeds=seeds))
    return reports


# ---------------------------------------------------------------------------
# harness configuration


@dataclass(frozen=True)
class HarnessConfig:
    """Knobs shared by the experiment runners; defaults are desk scale.

    A run reuses what a previous run left under ``out_dir``: the cached
    expert, datasets and finished cells, each named only by the fields
    that produced it (`_sweep`). Names are not versioned by code, so a
    program that moves result bytes starts from an empty ``out_dir``.
    """

    env_kind: str = "dc"
    out_dir: str = "results"
    seeds: int = 3                 # training seeds per grid cell
    eval_seed: int = 100           # rollout seed for per-epoch evaluation
    eval_days: float = 30.0        # evaluation episode length, days
    data_days: float = 1.0         # collection episode length, days
    dataset_steps: int = 100_000   # transitions per generated dataset
    epsilon: float = 0.1           # trained-scenario perturbation rate
    sigma: float = 0.1             # trained-scenario noise scale
    train_steps: int = 3_000       # offline gradient steps per run
    epoch_steps: int = 500
    batch_size: int = 256
    jobs: int = 1                  # parallel cell workers
    expert_path: str = ""          # blank = train one on demand
    expert_seq_len: int = 8        # the expert is history SAC
    expert_steps: int = 9_000
    expert_batch: int = 64
    expert_seed: int = 7
    # per-runner grids
    rq1_algos: tuple = ("td3", "sac", "td3bc", "cql")
    rq1_scenarios: tuple = ("final_buffer", "trained")
    rq2_modes: tuple = ("cql", "sac")
    rq2_seq_len: int = 8
    rq2_batch: int = 64
    rq2_online_steps: int = 2_500
    rq3_epsilons: tuple = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)
    rq3_sigmas: tuple = (0.1, 0.2, 0.3)
    rq3_dataset_steps: int = 20_000
    rq3_train_steps: int = 1_200
    rq4_sizes: tuple = (1_000, 10_000, 100_000)
    rq5_seq_lens: tuple = (1, 5, 10, 20, 30, 50)
    rq5_batch: int = 32
    rq5_train_steps: int = 1_000

    def __post_init__(self):
        if self.env_kind not in ("dc", "mu"):
            raise UsageError(f"unknown environment kind {self.env_kind!r}")
        if self.seeds < 0:
            raise UsageError("seeds must be >= 0")
        if self.eval_seed < 0:
            raise UsageError("eval_seed must be >= 0")
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")

    @classmethod
    def from_jsonable(cls, d: dict, **overrides) -> "HarnessConfig":
        """Inverse of `fingerprint.to_jsonable` (JSON lists become tuples
        again), with ``overrides`` replacing single fields before
        validation."""
        block = {k: (tuple(v) if isinstance(v, list) else v)
                 for k, v in d.items()}
        return cls(**{**block, **overrides})


def base_env(cfg: HarnessConfig, days: float | None = None) -> BuildingEnv:
    return BuildingEnv(EnvConfig(kind=cfg.env_kind,
                                 days=days if days is not None
                                 else cfg.eval_days))


# ---------------------------------------------------------------------------
# cell result files


def _write_cell(out_root: Path, rq: str, cell_fp: str, report: dict,
                quality: dict | None) -> Path:
    """Write one cell's directory: its ``quality.json``, if it has one,
    then its ``report.json``, which marks the cell finished."""
    cell_dir = out_root / rq / cell_fp
    if quality is not None:
        write_json(cell_dir / "quality.json", quality)
    write_json(cell_dir / "report.json", report)
    return cell_dir


#: the fields a cell report must hold, and each of its per-seed entries
_CELL_FIELDS = {"axes": dict, "seeds": list}
_SEED_FIELDS = {"seed": int, "best_epoch": int, "curve": [dict],
                "report": dict}
#: each sweep's cell axes, which the claims read, and the fields of one
#: zone's entry in a report's ``zone_quantiles``
_AXES = {"rq1": {"scenario": str, "algo": str},
         "rq2": {"mode": str, "history": bool, "seq_len": int},
         "rq3": {"epsilon": float, "sigma": float},
         "rq4": {"size": int, "epsilon": float, "sigma": float},
         "rq5": {"seq_len": int}}
_QUANTILE_FIELDS = dict.fromkeys(("min", "q25", "median", "q75", "max",
                                  "iqr"), float)


def _finished_cell(out_root: Path, rq: str, key: str, cell_fp: str) -> dict:
    """The report of a cell a previous run finished.

    It must hold the `_CELL_FIELDS`, with exactly the ``rq``'s `_AXES`,
    and a non-empty list of per-seed entries, each with the `_SEED_FIELDS`
    and a ``report`` of exactly the `RunReport.FIELDS`, whose zone
    quantiles hold exactly the `_QUANTILE_FIELDS`; a missing or damaged
    report is a DataError. Other keys, like the ``final_report`` of older
    cells, are ignored.
    """
    path = out_root / rq / cell_fp / "report.json"
    if not path.exists():
        raise DataError(f"missing results for cell {key}")
    report = read_json(path)
    bad = bad_fields(report, _CELL_FIELDS) or [
        f"axes.{k}" for k in bad_fields(report["axes"], _AXES[rq],
                                        closed=True)]
    if bad:
        raise DataError(f"report of cell {key}: fields {bad} are missing or "
                        f"of the wrong type")
    if not report["seeds"]:
        raise DataError(f"cell {key}: seeds is not a non-empty list")
    for i, s in enumerate(report["seeds"]):
        if (bad_fields(s, _SEED_FIELDS)
                or bad_fields(s["report"], RunReport.FIELDS, closed=True)
                or any(bad_fields(z, _QUANTILE_FIELDS, closed=True)
                       for z in s["report"]["zone_quantiles"])):
            raise DataError(
                f"cell {key}: seed entry {i} is not an object with seed, "
                f"best_epoch, curve and a report of the RunReport fields "
                f"with typed zone quantiles")
    return report


# ---------------------------------------------------------------------------
# expert management


def expert_config(cfg: HarnessConfig) -> AgentConfig:
    return AgentConfig(algo="sac", history=True, seq_len=cfg.expert_seq_len,
                       batch_size=cfg.expert_batch,
                       train_steps=cfg.expert_steps,
                       epoch_steps=max(cfg.expert_steps // 6, 1),
                       seed=cfg.expert_seed)


def ensure_expert(cfg: HarnessConfig) -> str:
    """Return a checkpoint path for the collection/reference expert.

    Uses ``cfg.expert_path`` when given; otherwise trains an online agent
    against the rotating training presets and caches the checkpoint under
    the output directory, keyed by its configuration fingerprint and the
    checkpoint format, so a cache in an older format is retrained.
    """
    if cfg.expert_path:
        if not Path(cfg.expert_path).exists():
            raise DataError(f"expert checkpoint {cfg.expert_path} not found")
        return cfg.expert_path
    acfg = expert_config(cfg)
    env = base_env(cfg, days=cfg.data_days)
    tag = fingerprint({"agent": to_jsonable(acfg), "env": env.fingerprint(),
                       "steps": cfg.expert_steps,
                       "format": CHECKPOINT_MAGIC.decode()})
    path = Path(cfg.out_dir) / "experts" / f"expert-{tag}.ckpt"
    if path.exists():
        return str(path)
    agent = make_agent(acfg, env.obs_spec.size, env.act_spec.size)
    train_online(agent, preset_rotation(env)[0])
    agent.save(path, epoch=0, step=cfg.expert_steps)
    return str(path)


# ---------------------------------------------------------------------------
# dataset recipes


def _trained(epsilon: float, sigma: float, steps: int) -> dict:
    """A trained-scenario dataset recipe; a ``size`` key added to it makes
    it a subsample of that many transitions."""
    return {"scenario": "trained", "epsilon": epsilon, "sigma": sigma,
            "steps": steps}


def _parent(data: dict) -> dict:
    return {k: v for k, v in data.items() if k != "size"}


def _dataset_tag(data: dict, env_fp: str, expert_id) -> str:
    """The file stem of recipe ``data``: a hash of what its bytes depend
    on, the expert's weights (``expert_id``) too for the trained scenario.
    A subsample's hashes its parent's, so naming reads no dataset."""
    if "size" in data:
        return f"rq4-size{data['size']}-" + fingerprint({
            "parent": _dataset_tag(_parent(data), env_fp, expert_id),
            "size": data["size"]})
    if data["scenario"] == "final_buffer":
        return "final-buffer-" + fingerprint({
            "algo": "td3", "env": env_fp, "sigma": data["sigma"],
            "steps": data["steps"], "seed": 0})
    return "trained-" + fingerprint({
        "expert": expert_id, "env": env_fp, "eps": data["epsilon"],
        "sigma": data["sigma"], "steps": data["steps"], "seed": 0})


def _dataset(cfg: HarnessConfig, data: dict, tag, expert) -> tuple:
    """``(path, dataset)`` of recipe ``data``, named ``tag(data)``: built
    and written, or, when a previous run wrote it, ``(path, None)``."""
    path = Path(cfg.out_dir) / "datasets" / f"{tag(data)}.hvds"
    if path.exists():
        return str(path), None
    if "size" in data:
        parent_path, ds = _dataset(cfg, _parent(data), tag, expert)
        ds = subsample(read_dataset(parent_path) if ds is None else ds,
                       target=data["size"], seed=0)
    elif data["scenario"] == "final_buffer":
        ds = collect_final_buffer(base_env(cfg, days=cfg.data_days), "td3",
                                  total_steps=data["steps"],
                                  noise=data["sigma"], seed=0)[0]
    else:
        ds = collect_trained(base_env(cfg, days=cfg.data_days), expert,
                             total_steps=data["steps"],
                             epsilon=data["epsilon"], sigma=data["sigma"],
                             seed=0)
    write_dataset(ds, path)
    return str(path), ds


# ---------------------------------------------------------------------------
# cell execution


@dataclass
class SweepResult:
    """A finished sweep as `load_sweep` reads it from its files."""

    rq: str
    cells: dict = field(default_factory=dict)   # key -> RunReport list
    quality: dict = field(default_factory=dict)  # key -> quality jsonable
    cell_axes: dict = field(default_factory=dict)  # key -> its axis values
    summary_path: str = ""
    rows: list = field(default_factory=list)     # summary rows, as read

    def reports(self, key: str) -> list:
        """The `RunReport`s of cell ``key``; a cell that the summary does
        not list is a DataError."""
        if key not in self.cells:
            raise DataError(f"{self.summary_path} lists no cell {key}")
        return self.cells[key]

    def median_metric(self, key: str, metric: str = "avg_reward") -> float:
        return float(np.median([getattr(r, metric)
                                for r in self.reports(key)]))


def _run_cell(job: dict) -> tuple:
    """Train one seed of one cell; its key and its entry of the cell
    report, with the best epoch.

    Trains offline on ``job["dataset"]`` when it names a file, otherwise
    online on ``job["train_env"]``, and evaluates on ``job["eval_env"]``.
    Runs in a worker process; ``job`` is plain JSON, and all it reads.
    """
    acfg = AgentConfig(**job["agent"])
    eval_env = BuildingEnv(EnvConfig(**job["eval_env"]))

    def eval_fn(a, epoch):
        return evaluate_policy(a, eval_env,
                               seeds=(job["eval_seed"],))[0].to_jsonable()

    if job["dataset"]:
        data = read_dataset(job["dataset"])
        agent = make_agent(acfg, data.obs_dim, data.act_dim)
        summary = train_offline(agent, data, eval_fn=eval_fn)
    else:
        env = BuildingEnv(EnvConfig(**job["train_env"]))
        agent = make_agent(acfg, env.obs_spec.size, env.act_spec.size)
        summary = train_online(agent, preset_rotation(env)[0],
                               eval_fn=eval_fn)
    curve = [{"epoch": r["epoch"], "seed": r["seed"],
              **{k: r["eval"][k]
                 for k in ("avg_reward", "violation", "avg_power_kw")}}
             for r in summary.records]
    return job["key"], {
        "seed": acfg.seed, "best_epoch": summary.best_epoch,
        "report": summary.best_eval, "curve": curve}


def _execute(jobs: list, n_workers: int):
    """Yield the `_run_cell` result of every job, in job order, each as
    soon as it and the jobs before it have finished; with more than one
    worker the jobs run in a process pool."""
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            yield from pool.map(_run_cell, jobs)
    else:
        yield from map(_run_cell, jobs)


def _write_summary(out_root: Path, rq: str, grid: dict) -> None:
    """Write the flat summary CSV: one row per seed of every cell, cells
    in key order, from ``grid``'s ``key -> (axes, cell fingerprint,
    seeds)``."""
    summary_rows = []
    for key in sorted(grid):
        axes, fp, seeds = grid[key]
        for s in seeds:
            rep = s["report"]
            row = {"rq": rq, "cell": key, "cell_fingerprint": fp,
                   "seed": s["seed"], "best_epoch": s["best_epoch"],
                   "avg_reward": rep["avg_reward"],
                   "violation": rep["violation"],
                   "avg_power_kw": rep["avg_power_kw"],
                   "episode_return": rep["episode_return"]}
            row.update({f"axis_{a}": v for a, v in axes.items()})
            summary_rows.append(row)
    buf = io.StringIO()
    if summary_rows:
        cols = sorted({c for row in summary_rows for c in row})
        writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n",
                                restval="")
        writer.writeheader()
        writer.writerows(summary_rows)
    atomic_write(out_root / rq / "summary.csv", [buf.getvalue().encode()])


def load_sweep(out_root, rq: str) -> SweepResult:
    """The `SweepResult` of a finished sweep, read from its files (every
    runner returns this reading of the files it wrote).

    The cells are the ones ``<out_root>/<rq>/summary.csv`` lists; each is
    read from its cell directory. A missing or damaged summary (without
    the columns `hvacrl report` prints), a listed cell without its
    directory, a damaged cell file and an rq3 cell without a numeric
    ``mean`` in its ``quality.json`` are DataErrors.
    """
    out_root = Path(out_root)
    path = out_root / rq / "summary.csv"
    # a sweep without seeds writes an empty summary: no header, no cells
    rows = list(csv.DictReader(io.StringIO(read_text(path))))
    for i, row in enumerate(rows):
        bad = bad_fields(row, _SUMMARY_FIELDS)
        if bad:
            raise DataError(f"{path}: row {i + 1} lacks its "
                            f"{'/'.join(bad)} columns")
    listed = {row["cell"]: row["cell_fingerprint"] for row in rows}
    result = SweepResult(rq=rq, summary_path=str(path), rows=rows)
    for key in sorted(listed):
        cell = _finished_cell(out_root, rq, key, listed[key])
        result.cell_axes[key] = cell["axes"]
        result.cells[key] = [RunReport.from_jsonable(s["report"])
                             for s in cell["seeds"]]
        if rq == "rq3":     # the only cells with one; the claim reads it
            quality = out_root / rq / listed[key] / "quality.json"
            if not quality.exists():
                raise DataError(f"cell {key} lacks its quality.json")
            result.quality[key] = read_json(quality)
            if bad_fields(result.quality[key], {"mean": float}):
                raise DataError(f"{quality} lacks a numeric mean")
    return result


def _agent_json(cfg: HarnessConfig, algo: str, seed: int, *,
                history=False, seq_len=1, batch=None, steps=None,
                epoch=None) -> dict:
    steps = steps if steps is not None else cfg.train_steps
    return to_jsonable(AgentConfig(
        algo=algo, history=history, seq_len=seq_len,
        batch_size=batch if batch is not None else cfg.batch_size,
        train_steps=steps,
        epoch_steps=min(epoch or cfg.epoch_steps, max(steps, 1)), seed=seed))


def _sweep(rq: str, cfg: HarnessConfig, cells: list,
           scored: bool = False) -> SweepResult:
    """Run one research-question grid and return it as `load_sweep` reads
    it back from the files it wrote.

    ``cells`` lists one ``(key, axes, agent, data)`` recipe per cell:
    `_agent_json` keywords and a dataset recipe, or None to train online.
    A key listed again is skipped. Three steps:

    1. Check every job's `_agent_json`, `base_env` at both day lengths,
       each recipe's `check_collection` and, if an expert is needed,
       `expert_config`; a SpecError among them is a UsageError, raised
       before anything is built. A zero-seed grid then stops.
    2. Name each cell by a hash of what its jobs read: rq, axes, agent
       JSONs, dataset tag (online: the training env's fingerprint), the
       eval env's fingerprint and ``eval_seed``.
    3. Reuse a cell whose ``report.json`` exists (`_finished_cell`). For
       the others, build the dataset (`_dataset`) and, if ``scored``, its
       quality report, then run one job per seed, and write each cell as
       its last seed finishes.
    """
    out_root = Path(cfg.out_dir)
    plan = {}                       # key -> (axes, agent JSONs, data)
    try:
        eval_env, train_env = base_env(cfg), base_env(cfg, cfg.data_days)
        for key, axes, agent, data in cells:
            if data is not None:
                check_collection(data.get("size", data["steps"]),
                                 data["epsilon"], data["sigma"])
            plan.setdefault(key, (axes, [_agent_json(cfg, seed=s, **agent)
                                         for s in range(cfg.seeds)], data))
        if not cfg.seeds:           # nothing to train, so nothing to build
            plan.clear()
        trained = any(data is not None and data["scenario"] == "trained"
                      for _, _, data in plan.values())
        if trained:
            expert_config(cfg)
    except SpecError as e:
        raise UsageError(str(e)) from None
    expert = expert_id = None
    if trained:
        expert = load_agent(ensure_expert(cfg))[0]
        expert_id = fingerprint({"policy": expert.fingerprint(), "crcs": {
            name: zlib.crc32(a) for name, a in expert.state_arrays().items()}})
    env_fp = train_env.fingerprint()
    tag = partial(_dataset_tag, env_fp=env_fp, expert_id=expert_id)
    reads = {"eval_env": to_jsonable(eval_env.config),
             "train_env": to_jsonable(train_env.config),
             "eval_seed": cfg.eval_seed}
    eval_id = {"env": eval_env.fingerprint(), "seed": cfg.eval_seed}
    jobs, grid, quality = [], {}, {}    # grid: key -> (axes, fp, seeds)
    for key, (axes, agents, data) in plan.items():
        fp = fingerprint({"rq": rq, "axes": axes, "agents": agents,
                          "data": env_fp if data is None else tag(data),
                          "eval": eval_id})
        grid[key] = (axes, fp, [])
        if (out_root / rq / fp / "report.json").exists():
            grid[key][2].extend(_finished_cell(out_root, rq, key, fp)["seeds"])
            continue
        path, ds = (_dataset(cfg, data, tag, expert) if data is not None
                    else (None, None))
        if scored:
            quality[key] = build_quality_report(
                read_dataset(path) if ds is None else ds, expert,
                train_env).to_jsonable()
        jobs.extend({"key": key, "agent": agent, "dataset": path, **reads}
                    for agent in agents)
    expert = ds = None      # nothing built stays in memory while jobs train
    for key, out in _execute(jobs, cfg.jobs):
        axes, fp, seeds = grid[key]
        seeds.append(out)
        if len(seeds) == cfg.seeds:
            _write_cell(out_root, rq, fp, {
                "rq": rq, "cell": key, "axes": axes, "cell_fingerprint": fp,
                "seeds": seeds}, quality.get(key))
    _write_summary(out_root, rq, grid)
    return load_sweep(out_root, rq)


# ---------------------------------------------------------------------------
# research-question runners


def run_rq1(cfg: HarnessConfig) -> SweepResult:
    """Offline algorithms versus off-policy algorithms on static data.

    Every algorithm in ``cfg.rq1_algos`` trains offline on the dataset of
    each collection scenario, and each cell report carries, per seed, the
    best-epoch evaluation and the learning curve.
    """
    data = {"final_buffer": {"scenario": "final_buffer", "epsilon": 1.0,
                             "sigma": cfg.sigma, "steps": cfg.dataset_steps},
            "trained": _trained(cfg.epsilon, cfg.sigma, cfg.dataset_steps)}
    for scenario in cfg.rq1_scenarios:
        if scenario not in data:
            raise UsageError(f"unknown scenario {scenario!r}")
    return _sweep("rq1", cfg, [
        (f"{scenario}-{algo}", {"scenario": scenario, "algo": algo},
         {"algo": algo}, data[scenario])
        for scenario in cfg.rq1_scenarios for algo in cfg.rq1_algos])


def run_rq2(cfg: HarnessConfig) -> SweepResult:
    """History encoder on versus off, offline (CQL) and online (SAC)."""
    data = _trained(cfg.epsilon, cfg.sigma, cfg.dataset_steps)
    return _sweep("rq2", cfg, [
        (f"{mode}-{'hist' if history else 'flat'}",
         {"mode": mode, "history": history, "seq_len": L},
         {"algo": mode, "history": history, "seq_len": L,
          "batch": cfg.rq2_batch,
          "steps": cfg.rq2_online_steps if mode in BASELINE_ALGOS
          else cfg.train_steps},
         None if mode in BASELINE_ALGOS else data)
        for mode in cfg.rq2_modes
        for history, L in ((False, 1), (True, cfg.rq2_seq_len))])


def run_rq3(cfg: HarnessConfig) -> SweepResult:
    """Dataset-quality grid: perturbation rate and scale versus outcome."""
    return _sweep("rq3", cfg, [
        (f"eps{eps:g}-sigma{sg:g}", {"epsilon": eps, "sigma": sg},
         {"algo": "cql", "steps": cfg.rq3_train_steps,
          "epoch": max(cfg.rq3_train_steps // 4, 1)},
         _trained(eps, sg, cfg.rq3_dataset_steps))
        for eps in cfg.rq3_epsilons for sg in cfg.rq3_sigmas], scored=True)


def run_rq4(cfg: HarnessConfig) -> SweepResult:
    """Dataset-quantity sweep at the fixed per-environment noise point:
    the largest size's dataset, and a subsample of it for each smaller
    size."""
    eps, sg = RQ4_NOISE[cfg.env_kind]
    largest = _trained(eps, sg, max(cfg.rq4_sizes, default=0))
    return _sweep("rq4", cfg, [
        (f"size{size}", {"size": size, "epsilon": eps, "sigma": sg},
         {"algo": "cql"},
         largest if size == largest["steps"] else {**largest, "size": size})
        for size in sorted(cfg.rq4_sizes)])


def run_rq5(cfg: HarnessConfig) -> SweepResult:
    """Sequence-length sweep for the history encoder."""
    data = _trained(cfg.epsilon, cfg.sigma, cfg.dataset_steps)
    return _sweep("rq5", cfg, [
        (f"len{L:02d}", {"seq_len": L},
         {"algo": "cql", "history": True, "seq_len": L,
          "batch": cfg.rq5_batch, "steps": cfg.rq5_train_steps,
          "epoch": max(cfg.rq5_train_steps // 4, 1)}, data)
        for L in cfg.rq5_seq_lens])


RQ_RUNNERS = {"1": run_rq1, "2": run_rq2, "3": run_rq3, "4": run_rq4,
              "5": run_rq5}


def _midranks(values) -> np.ndarray:
    """Ranks with ties replaced by the mean rank of their group."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    raw = np.empty(len(v))
    raw[order] = np.arange(len(v), dtype=float)
    uniq, inverse = np.unique(v, return_inverse=True)
    mean_rank = np.bincount(inverse, weights=raw) / np.bincount(inverse)
    return mean_rank[inverse]


def spearman_rho(x, y) -> float:
    """Spearman rank correlation; degenerate (constant) input gives 0."""
    xc = _midranks(x) - _midranks(x).mean()
    yc = _midranks(y) - _midranks(y).mean()
    denom = float(np.sqrt((xc ** 2).sum() * (yc ** 2).sum()))
    if denom == 0.0:
        return 0.0
    return float((xc * yc).sum() / denom)


# ---------------------------------------------------------------------------
# the study's claims, checked on a sweep's results

BASELINE_ALGOS = ("td3", "sac")


def _yes(ok) -> str:
    return "yes" if ok else "NO"


def _grid(result: SweepResult, axis: str) -> list:
    """Sorted distinct values of one axis over the result's cells."""
    return sorted({a[axis] for a in result.cell_axes.values()})


def _rq1_claims(result: SweepResult) -> list:
    """Conservative offline learners beat naive off-policy ones."""
    lines = []
    algos = _grid(result, "algo")
    for scenario in _grid(result, "scenario"):
        med = {a: result.median_metric(f"{scenario}-{a}") for a in algos}
        line = "  ".join(f"{a}={med[a]:.4f}" for a in algos)
        offline = [med[a] for a in OFFLINE_ALGOS if a in med]
        baseline = [med[a] for a in BASELINE_ALGOS if a in med]
        if offline and baseline:
            line += f"  offline>baseline: {_yes(min(offline) > max(baseline))}"
        lines.append(f"rq1 {scenario:13s} {line}")
    return lines


def _rq2_claims(result: SweepResult) -> list:
    """History raises reward and tightens every zone's spread (CQL)."""
    lines = []
    modes = _grid(result, "mode")
    for mode in modes:
        flat = result.median_metric(f"{mode}-flat")
        hist = result.median_metric(f"{mode}-hist")
        lines.append(f"rq2 {mode:5s} flat={flat:.4f} hist={hist:.4f}  "
                     f"gain={hist - flat:+.4f}")
    if "cql" in modes:
        # median over seeds of each zone's temperature IQR
        iqrs = [[[z["iqr"] for z in r.zone_quantiles]
                 for r in result.reports(key)]
                for key in ("cql-flat", "cql-hist")]
        if len({len(zones) for cell in iqrs for zones in cell}) != 1:
            raise DataError("rq2 cql seeds report different zone counts")
        flat_iqr, hist_iqr = (np.median(cell, axis=0) for cell in iqrs)
        pairs = "  ".join(f"z{i}: {h:.3f}<{f:.3f}" if h < f
                          else f"z{i}: {h:.3f}>={f:.3f}"
                          for i, (h, f) in enumerate(zip(hist_iqr, flat_iqr)))
        lines.append(f"rq2 cql zone-temp IQR {pairs}  all tighter: "
                     f"{_yes(np.all(hist_iqr < flat_iqr))}")
    return lines


def _rq3_claims(result: SweepResult) -> list:
    """Regret tracks the perturbation rate; mild noise helps learning."""
    lines = []
    epsilons = _grid(result, "epsilon")
    for sg in _grid(result, "sigma"):
        keys = [f"eps{eps:g}-sigma{sg:g}" for eps in epsilons]
        # first, so that a cell the summary does not list is a DataError
        rewards = [result.median_metric(k) for k in keys]
        regrets = [result.quality[k]["mean"] for k in keys]
        line = "  ".join(f"e{e:g}: d={d:.3f} r={r:.3f}"
                         for e, d, r in zip(epsilons, regrets, rewards))
        lines.append(f"rq3 sigma={sg:g} {line}")
        best = epsilons[int(np.argmax(rewards))]
        lines.append(f"rq3 sigma={sg:g} regret-vs-rate "
                     f"rho={spearman_rho(epsilons, regrets):.3f}  "
                     f"best reward at eps={best:g}")
    return lines


def _rq4_claims(result: SweepResult) -> list:
    """Returns saturate with dataset size."""
    sizes = _grid(result, "size")
    ref = result.median_metric(f"size{max(sizes)}")
    lines = []
    for size in sizes:
        med = result.median_metric(f"size{size}")
        gap = (ref - med) / abs(ref) if ref else 0.0
        lines.append(f"rq4 size={size:<8d} median A.R. {med:.4f}  "
                     f"below largest by {gap:+.1%}")
    return lines


def _rq5_claims(result: SweepResult) -> list:
    """Longer windows do not hurt, and saturate at the top end."""
    lens = _grid(result, "seq_len")
    meds = [result.median_metric(f"len{L:02d}") for L in lens]
    lines = ["rq5 " + "  ".join(f"L{L}: {m:.4f}" for L, m in zip(lens, meds))]
    if len(meds) >= 2:
        tail = abs(meds[-1] - meds[-2]) / abs(meds[-2]) if meds[-2] else 0.0
        lines.append(f"rq5 non-decreasing: {_yes(np.all(np.diff(meds) >= 0))}"
                     f"  change over last step: {tail:.1%}")
    return lines


_CLAIMS = {"rq1": _rq1_claims, "rq2": _rq2_claims, "rq3": _rq3_claims,
           "rq4": _rq4_claims, "rq5": _rq5_claims}


def claim_lines(result: SweepResult) -> list:
    """The printed check of the study's claim on one sweep's results.

    Grid values come from each cell's own axes, and every cell of the
    grid must be listed (`SweepResult.reports`). A sweep without cells
    checks nothing.
    """
    return _CLAIMS[result.rq](result) if result.cells else []
