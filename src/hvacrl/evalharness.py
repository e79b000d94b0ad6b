"""Metrics, baseline comparisons, and the research-question experiment
runners.

Every controller evaluation produces a RunReport with three headline
metrics (`METRICS`):

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
first, names each cell and dataset by what produced it, reuses finished
cells, builds the datasets of the rest, runs one job (`_run_cell`) per
training seed, offline on a dataset or online against the rotating
training presets, and ends with a flat summary CSV::

    <out>/<rq>/summary.csv                  one row per cell and seed
    <out>/<rq>/<cell-fingerprint>/report.json
    <out>/<rq>/<cell-fingerprint>/quality.json      (rq3 only)

A cell's ``report.json`` is a `CellResult`: its rq, key, axes and
fingerprint, and per training seed a `SeedResult` (the best epoch, its
`RunReport` and a learning curve of `METRICS` rows). Each record's
``FIELDS`` kind table is both what is written and what is checked on
reading, and the summary rows derive from the records. A cell file is
written as its last seed finishes, so a failed sweep keeps the cells it
finished. Result files contain no timestamps, so identical configs
reproduce identical bytes.

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
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import ClassVar

import numpy as np

from .agents import (CHECKPOINT_MAGIC, OFFLINE_ALGOS, Agent, AgentConfig,
                     PolicyController, load_agent, make_agent, train_offline,
                     train_online)
from .buildsim import (BUILDINGS, BuildingEnv, EnvConfig, read_trajectory_csv,
                       rule_controller, run_episode, write_trajectory_csv)
from .container import atomic_write, read_json, read_text, write_json
from .datagen import (Dataset, Recipe, build_quality_report,
                      collect_final_buffer, collect_trained, preset_rotation,
                      read_dataset, subsample, write_dataset)
from .errors import DataError, SpecError, UsageError
from .fingerprint import bad_fields, fingerprint, to_jsonable

#: the headline metrics: a report's, a curve row's and a summary row's
METRICS = ("avg_reward", "violation", "avg_power_kw")
#: the fields of one zone's entry in a report's ``zone_quantiles``
QUANTILES = dict.fromkeys(("min", "q25", "median", "q75", "max", "iqr"),
                          float)

# the summary columns `hvacrl report` prints, and those `load_sweep` reads
REPORT_COLUMNS = ("cell", "seed", "best_epoch", *METRICS)
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
    qs = (np.quantile(temps[:, z], [0.0, 0.25, 0.5, 0.75, 1.0])
          for z in range(temps.shape[1]))
    return [dict(zip(QUANTILES, map(float, (*q, q[3] - q[1])))) for q in qs]


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
        **dict.fromkeys(METRICS, float), "episode_return": float,
        "zone_quantiles": [QUANTILES], "seed": int, "config_fingerprint": str,
        "weather": str, "steps": int}

    def __post_init__(self):
        if not 0.0 <= self.violation <= 1.0:
            raise DataError(f"violation fraction {self.violation} outside "
                            f"[0, 1]")
        if self.avg_power_kw < 0.0:
            raise DataError(f"negative average power {self.avg_power_kw}")

    def to_jsonable(self) -> dict:
        return asdict(self)

    @classmethod
    def from_jsonable(cls, d: dict) -> "RunReport":
        return cls(**d)


def audit_violation_from_csv(csv_path, env_kind: str, band_low,
                             band_high) -> float:
    """Recount T.V. from an exported trajectory CSV (independent path)."""
    cols = read_trajectory_csv(csv_path)
    temps = cols["obs"][:, BUILDINGS[env_kind].temp_slots]
    return violation_fraction(temps, band_low, band_high)


def evaluate_policy(policy, env: BuildingEnv, weather: str | None = None,
                    seeds=(0,), out_dir=None) -> list:
    """Deterministic-action rollouts, one RunReport per seed.

    ``policy`` is an Agent or a plain controller callable. The seeds'
    episodes run in lockstep and end together; a simulator fault in any of
    them raises its `SimulationFault` before any CSV is written. Each
    rollout is exported to CSV and the violation fraction is recounted
    from the file; a mismatch aborts.
    """
    run_env = env.variant(weather)
    if isinstance(policy, Agent):
        controller = PolicyController(policy, run_env.obs_spec,
                                      run_env.act_spec)
        policy_fp = policy.fingerprint()
    else:       # a plain callable controller in physical units
        controller, policy_fp = policy, getattr(policy, "__name__",
                                                type(policy).__name__)
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
            report = RunReport(
                avg_reward=float(traj.rewards.mean()),
                violation=violation_fraction(traj.zone_temps, rp.band_low,
                                             rp.band_high),
                avg_power_kw=float(traj.total_power_w.mean()) * 1e-3,
                episode_return=float(traj.rewards.sum()),
                zone_quantiles=temperature_quantiles(traj.zone_temps),
                seed=traj.seed, config_fingerprint=cfg_fp,
                weather=traj.weather_name, steps=len(traj))
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
        presets = [*env.building.train_presets, env.building.eval_preset]
    controller = lambda obs: rule_controller(obs, kind)
    controller.__name__ = "rule"
    return [report for preset in presets for report in evaluate_policy(
        controller, env, weather=preset, seeds=seeds)]


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
        if self.env_kind not in BUILDINGS:
            raise UsageError(f"unknown environment kind {self.env_kind!r}")
        for name, low in (("seeds", 0), ("eval_seed", 0), ("jobs", 1)):
            if getattr(self, name) < low:
                raise UsageError(f"{name} must be >= {low}")

    @classmethod
    def from_jsonable(cls, d: dict, **overrides) -> "HarnessConfig":
        """Inverse of `fingerprint.to_jsonable` (JSON lists become tuples
        again), with ``overrides`` replacing single fields before
        validation."""
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in {**d, **overrides}.items()})


def base_env(cfg: HarnessConfig, days: float | None = None) -> BuildingEnv:
    return BuildingEnv(EnvConfig(
        kind=cfg.env_kind, days=cfg.eval_days if days is None else days))


# ---------------------------------------------------------------------------
# sweep result records


#: each sweep's cell axes, which the claims read
_AXES = {"rq1": {"scenario": str, "algo": str},
         "rq2": {"mode": str, "history": bool, "seq_len": int},
         "rq3": {"epsilon": float, "sigma": float},
         "rq4": {"size": int, "epsilon": float, "sigma": float},
         "rq5": {"seq_len": int}}


@dataclass
class SeedResult:
    """One training seed of a cell: its best epoch's `RunReport` and the
    learning curve, one row of `METRICS` per epoch."""

    seed: int
    best_epoch: int
    report: RunReport
    curve: list

    #: every field, with its kind (see `fingerprint.bad_fields`)
    FIELDS: ClassVar[dict] = {
        "seed": int, "best_epoch": int, "report": RunReport.FIELDS,
        "curve": [{"epoch": int, "seed": int,
                   **dict.fromkeys(METRICS, float)}]}


@dataclass
class CellResult:
    """One cell of a sweep, as its ``report.json`` holds it."""

    rq: str
    cell: str                   # the cell's key
    axes: dict
    cell_fingerprint: str
    seeds: list = field(default_factory=list)   # one SeedResult per seed

    #: every field, with its kind; ``axes`` is typed by the rq's `_AXES`
    FIELDS: ClassVar[dict] = {"rq": str, "cell": str, "axes": dict,
                              "cell_fingerprint": str,
                              "seeds": [SeedResult.FIELDS]}

    def to_jsonable(self) -> dict:
        return asdict(self)

    @classmethod
    def from_jsonable(cls, d, rq: str) -> "CellResult":
        """The record of a cell document of sweep ``rq``; a document that is
        not an object of exactly the `FIELDS` is a DataError."""
        bad = bad_fields(d, {**cls.FIELDS, "axes": _AXES[rq]}, closed=True)
        if bad:
            raise DataError(f"fields {bad} are missing, unknown or mistyped")
        return cls(**{**d, "seeds": [
            SeedResult(**{**s, "report": RunReport.from_jsonable(s["report"])})
            for s in d["seeds"]]})

    def summary_rows(self) -> list:
        """Its rows of the sweep's ``summary.csv``, one per seed."""
        return [{"rq": self.rq, "cell": self.cell,
                 "cell_fingerprint": self.cell_fingerprint, "seed": s.seed,
                 "best_epoch": s.best_epoch,
                 **{m: getattr(s.report, m)
                    for m in (*METRICS, "episode_return")},
                 **{f"axis_{a}": v for a, v in self.axes.items()}}
                for s in self.seeds]


def _write_cell(out_root: Path, cell: CellResult, quality) -> Path:
    """Write one cell's directory: its ``quality.json``, if it has one,
    then its ``report.json``, which marks the cell finished."""
    cell_dir = out_root / cell.rq / cell.cell_fingerprint
    if quality is not None:
        write_json(cell_dir / "quality.json", quality)
    write_json(cell_dir / "report.json", cell.to_jsonable())
    return cell_dir


def _finished_cell(out_root: Path, rq: str, key: str, fp: str) -> CellResult:
    """The record of a cell a previous run finished; a missing or damaged
    ``report.json`` is a DataError."""
    path = out_root / rq / fp / "report.json"
    if not path.exists():
        raise DataError(f"missing results for cell {key}")
    try:
        return CellResult.from_jsonable(read_json(path), rq)
    except DataError as e:
        raise DataError(f"report of cell {key}: {e}") from None


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


def collect(env: BuildingEnv, recipe: Recipe, expert=None) -> Dataset:
    """The dataset ``recipe`` collects on ``env``, its ``size`` aside; the
    trained scenario rolls out the ``expert`` Agent.
    A final buffer that completes no episode is a UsageError up front.
    bench/tracing.py wraps the collectors where this module names them."""
    if recipe.scenario == "trained":
        return collect_trained(env, expert, total_steps=recipe.steps,
                               epsilon=recipe.epsilon, sigma=recipe.sigma,
                               seed=recipe.seed)
    recipe.check_horizon(env.horizon)
    return collect_final_buffer(env, recipe.algo, total_steps=recipe.steps,
                                noise=recipe.sigma, seed=recipe.seed)[0]


def _dataset_tag(recipe: Recipe, env_fp: str, expert_id) -> str:
    """The file stem of ``recipe``: a hash of what its bytes depend on,
    the expert's weights (``expert_id``) too for the trained scenario. A
    subsample's hashes its parent's, so naming reads no dataset."""
    if recipe.size is not None:
        return f"rq4-size{recipe.size}-" + fingerprint({
            "parent": _dataset_tag(replace(recipe, size=None), env_fp,
                                   expert_id),
            "size": recipe.size})
    if recipe.scenario == "final_buffer":
        return "final-buffer-" + fingerprint({
            "algo": recipe.algo, "env": env_fp, "sigma": recipe.sigma,
            "steps": recipe.steps, "seed": recipe.seed})
    return "trained-" + fingerprint({
        "expert": expert_id, "env": env_fp, "eps": recipe.epsilon,
        "sigma": recipe.sigma, "steps": recipe.steps, "seed": recipe.seed})


def _dataset(cfg: HarnessConfig, recipe: Recipe, tag, expert) -> tuple:
    """``(path, dataset)`` of ``recipe``, named ``tag(recipe)``: built and
    written, or, when a previous run wrote it, ``(path, None)``."""
    path = Path(cfg.out_dir) / "datasets" / f"{tag(recipe)}.hvds"
    if path.exists():
        return str(path), None
    if recipe.size is None:
        ds = collect(base_env(cfg, days=cfg.data_days), recipe, expert)
    else:
        parent_path, ds = _dataset(cfg, replace(recipe, size=None), tag,
                                   expert)
        ds = subsample(read_dataset(parent_path) if ds is None else ds,
                       target=recipe.size, seed=recipe.seed)
    write_dataset(ds, path)
    return str(path), ds


# ---------------------------------------------------------------------------
# cell execution


@dataclass
class SweepResult:
    """A finished sweep as `load_sweep` reads it from its files."""

    rq: str
    cells: dict = field(default_factory=dict)   # key -> its CellResult
    quality: dict = field(default_factory=dict)  # key -> quality jsonable
    summary_path: str = ""
    rows: list = field(default_factory=list)     # summary rows, as read

    def reports(self, key: str) -> list:
        """The `RunReport`s of cell ``key``, one per seed; a cell that the
        summary does not list is a DataError."""
        if key not in self.cells:
            raise DataError(f"{self.summary_path} lists no cell {key}")
        return [s.report for s in self.cells[key].seeds]

    def median_metric(self, key: str, metric: str = "avg_reward") -> float:
        return float(np.median([getattr(r, metric)
                                for r in self.reports(key)]))


def _run_cell(job: dict) -> SeedResult:
    """Train one seed of one cell, and return its result.

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
              **{m: r["eval"][m] for m in METRICS}}
             for r in summary.records]
    return SeedResult(seed=acfg.seed, best_epoch=summary.best_epoch,
                      report=RunReport.from_jsonable(summary.best_eval),
                      curve=curve)


def _execute(jobs: list, n_workers: int):
    """Yield the `_run_cell` result of every job, in job order, each as
    soon as it and the jobs before it have finished; with more than one
    worker the jobs run in a process pool."""
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            yield from pool.map(_run_cell, jobs)
    else:
        yield from map(_run_cell, jobs)


def _write_summary(out_root: Path, rq: str, cells) -> None:
    """Write the flat summary CSV: the cells' rows, cells in key order."""
    summary_rows = [row for cell in sorted(cells, key=lambda c: c.cell)
                    for row in cell.summary_rows()]
    buf = io.StringIO()
    if summary_rows:    # every cell of a sweep has the same axes
        writer = csv.DictWriter(buf, fieldnames=sorted(summary_rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(summary_rows)
    atomic_write(out_root / rq / "summary.csv", [buf.getvalue().encode()])


def load_sweep(out_root, rq: str) -> SweepResult:
    """The `SweepResult` of a finished sweep, read from its files (every
    runner returns this reading of the files it wrote).

    The cells are the ones ``<out_root>/<rq>/summary.csv`` lists; each is
    read from its cell directory. A missing or damaged summary, a listed
    cell without its directory, a damaged cell file, a cell without seeds
    or with a seed twice, summary rows other than the cells'
    `CellResult.summary_rows` and an rq3 cell without a numeric ``mean``
    in its ``quality.json`` are DataErrors.
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
    derived = []
    for key in sorted(listed):
        cell = _finished_cell(out_root, rq, key, listed[key])
        seeds = [s.seed for s in cell.seeds]
        if not seeds or len(set(seeds)) < len(seeds):
            raise DataError(f"cell {key}: seeds is not a non-empty list of "
                            f"distinct seeds: {seeds}")
        derived += cell.summary_rows()
        result.cells[key] = cell
        if rq == "rq3":     # the only cells with one; the claim reads it
            quality = out_root / rq / listed[key] / "quality.json"
            if not quality.exists():
                raise DataError(f"cell {key} lacks its quality.json")
            result.quality[key] = read_json(quality)
            if bad_fields(result.quality[key], {"mean": float}):
                raise DataError(f"{quality} lacks a numeric mean")
    if rows != [{k: str(v) for k, v in row.items()} for row in derived]:
        raise DataError(f"{path}: rows differ from its cells' seed entries")
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

    ``cells`` lists one ``(key, axes, agent, data)`` entry per cell:
    `_agent_json` keywords and a dataset `Recipe`, or None to train
    online. A key listed again is skipped. Three steps:

    1. Check every job's `_agent_json`, `base_env` at both day lengths,
       each recipe's `check_horizon` and, if an expert is needed,
       `expert_config`; a SpecError among them is a UsageError, raised
       before anything is built. A zero-seed grid then stops.
    2. Name each cell by a hash of what its jobs read: rq, axes, agent
       JSONs, dataset tag (online: the training env's fingerprint), the
       eval env's fingerprint and ``eval_seed``.
    3. Reuse a finished cell, whose seeds must be ``range(cfg.seeds)``.
       For the others, build the dataset and, if ``scored``, its quality
       report, then run one job per seed; write each cell as its last
       seed finishes.
    """
    out_root = Path(cfg.out_dir)
    plan = {}                       # key -> (axes, agent JSONs, data)
    try:
        eval_env, train_env = base_env(cfg), base_env(cfg, cfg.data_days)
        for key, axes, agent, data in cells:
            if data is not None:
                data.check_horizon(train_env.horizon)
            plan.setdefault(key, (axes, [_agent_json(cfg, seed=s, **agent)
                                         for s in range(cfg.seeds)], data))
        if not cfg.seeds:           # nothing to train, so nothing to build
            plan.clear()
        trained = any(data is not None and data.scenario == "trained"
                      for _, _, data in plan.values())
        if trained:
            expert_config(cfg)
    except SpecError as e:
        raise UsageError(str(e)) from None
    expert = expert_id = None
    if trained:
        expert = load_agent(ensure_expert(cfg))[0]
        expert_id = fingerprint({"policy": expert.fingerprint(), "crcs": {
            name: zlib.crc32(p.data) for name, p in expert.named_parameters()}})
    env_fp = train_env.fingerprint()
    tag = partial(_dataset_tag, env_fp=env_fp, expert_id=expert_id)
    reads = {"eval_env": to_jsonable(eval_env.config),
             "train_env": to_jsonable(train_env.config),
             "eval_seed": cfg.eval_seed}
    eval_id = {"env": eval_env.fingerprint(), "seed": cfg.eval_seed}
    jobs, grid, quality = [], {}, {}    # grid: key -> CellResult
    for key, (axes, agents, data) in plan.items():
        fp = fingerprint({"rq": rq, "axes": axes, "agents": agents,
                          "data": env_fp if data is None else tag(data),
                          "eval": eval_id})
        if (out_root / rq / fp / "report.json").exists():
            grid[key] = _finished_cell(out_root, rq, key, fp)
            seeds = [s.seed for s in grid[key].seeds]
            if seeds != list(range(cfg.seeds)):
                raise DataError(f"cell {key}: seeds {seeds} are not the "
                                f"configured {list(range(cfg.seeds))}")
            continue
        grid[key] = CellResult(rq, key, axes, fp)
        path, ds = (_dataset(cfg, data, tag, expert) if data is not None
                    else (None, None))
        if scored:
            quality[key] = build_quality_report(
                read_dataset(path) if ds is None else ds, expert,
                train_env).to_jsonable()
        jobs.extend({"key": key, "agent": agent, "dataset": path, **reads}
                    for agent in agents)
    expert = ds = None      # nothing built stays in memory while jobs train
    for seed, job in zip(_execute(jobs, cfg.jobs), jobs):
        cell = grid[job["key"]]
        cell.seeds.append(seed)
        if len(cell.seeds) == cfg.seeds:
            _write_cell(out_root, cell, quality.get(cell.cell))
    _write_summary(out_root, rq, grid.values())
    return load_sweep(out_root, rq)


# ---------------------------------------------------------------------------
# research-question runners


def run_rq1(cfg: HarnessConfig) -> SweepResult:
    """Offline algorithms versus off-policy algorithms on static data.

    Every algorithm in ``cfg.rq1_algos`` trains offline on the dataset of
    each collection scenario, and each cell report carries, per seed, the
    best-epoch evaluation and the learning curve.
    """
    return _sweep("rq1", cfg, [
        (f"{scenario}-{algo}", {"scenario": scenario, "algo": algo},
         {"algo": algo},
         Recipe(scenario, cfg.dataset_steps, cfg.epsilon, cfg.sigma))
        for scenario in cfg.rq1_scenarios for algo in cfg.rq1_algos])


def run_rq2(cfg: HarnessConfig) -> SweepResult:
    """History encoder on versus off, offline (CQL) and online (SAC)."""
    return _sweep("rq2", cfg, [
        (f"{mode}-{'hist' if history else 'flat'}",
         {"mode": mode, "history": history, "seq_len": L},
         {"algo": mode, "history": history, "seq_len": L,
          "batch": cfg.rq2_batch,
          "steps": cfg.rq2_online_steps if mode in BASELINE_ALGOS
          else cfg.train_steps},
         None if mode in BASELINE_ALGOS
         else Recipe("trained", cfg.dataset_steps, cfg.epsilon, cfg.sigma))
        for mode in cfg.rq2_modes
        for history, L in ((False, 1), (True, cfg.rq2_seq_len))])


def run_rq3(cfg: HarnessConfig) -> SweepResult:
    """Dataset-quality grid: perturbation rate and scale versus outcome."""
    return _sweep("rq3", cfg, [
        (f"eps{eps:g}-sigma{sg:g}", {"epsilon": eps, "sigma": sg},
         {"algo": "cql", "steps": cfg.rq3_train_steps,
          "epoch": max(cfg.rq3_train_steps // 4, 1)},
         Recipe("trained", cfg.rq3_dataset_steps, eps, sg))
        for eps in cfg.rq3_epsilons for sg in cfg.rq3_sigmas], scored=True)


def run_rq4(cfg: HarnessConfig) -> SweepResult:
    """Dataset-quantity sweep at the fixed per-environment noise point:
    the largest size's dataset, and a subsample of it for each smaller
    size."""
    eps, sg = RQ4_NOISE[cfg.env_kind]
    sizes = sorted(cfg.rq4_sizes)
    return _sweep("rq4", cfg, [
        (f"size{size}", {"size": size, "epsilon": eps, "sigma": sg},
         {"algo": "cql"}, Recipe("trained", sizes[-1], eps, sg,
                                 size=None if size == sizes[-1] else size))
        for size in sizes])


def run_rq5(cfg: HarnessConfig) -> SweepResult:
    """Sequence-length sweep for the history encoder."""
    return _sweep("rq5", cfg, [
        (f"len{L:02d}", {"seq_len": L},
         {"algo": "cql", "history": True, "seq_len": L,
          "batch": cfg.rq5_batch, "steps": cfg.rq5_train_steps,
          "epoch": max(cfg.rq5_train_steps // 4, 1)},
         Recipe("trained", cfg.dataset_steps, cfg.epsilon, cfg.sigma))
        for L in cfg.rq5_seq_lens])


RQ_RUNNERS = {"1": run_rq1, "2": run_rq2, "3": run_rq3, "4": run_rq4,
              "5": run_rq5}


def _midranks(values) -> np.ndarray:
    """0-based ranks, ties replaced by the mean rank of their group."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=float),
                                   return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts + 1) / 2)[inverse]


def spearman_rho(x, y) -> float:
    """Spearman rank correlation; degenerate (constant) input gives 0."""
    xc, yc = (_midranks(v) - _midranks(v).mean() for v in (x, y))
    denom = float(np.sqrt((xc ** 2).sum() * (yc ** 2).sum()))
    return float((xc * yc).sum() / denom) if denom else 0.0


# ---------------------------------------------------------------------------
# the study's claims, checked on a sweep's results

BASELINE_ALGOS = ("td3", "sac")


def _yes(ok) -> str:
    return "yes" if ok else "NO"


def _grid(result: SweepResult, axis: str) -> list:
    """Sorted distinct values of one axis over the result's cells."""
    return sorted({cell.axes[axis] for cell in result.cells.values()})


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
        pairs = "  ".join(f"z{i}: {h:.3f}{'<' if h < f else '>='}{f:.3f}"
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
