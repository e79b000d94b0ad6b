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

The five experiment runners (`run_rq1` .. `run_rq5`) are one sweep
skeleton, `_sweep`, fed by a per-runner grid. Each runner names its axes
and a ``cells()`` generator; the skeleton expands every cell into one job
per training seed, skips cells whose result directory already exists,
executes the rest with bounded parallelism, and writes one directory per
cell (``<out>/<rq>/<cell-fingerprint>/{report.json, curve.csv,
quality.json}``) plus a flat summary CSV per runner. A zero-seed grid runs
nothing: ``cells()`` is never called, so no expert or dataset is built.
Every job trains one agent with `_run_cell`: offline on a dataset file
when the cell names one, online against the rotating training presets
otherwise. Result files contain no timestamps, so identical configs
reproduce identical bytes.
"""
from __future__ import annotations

import csv
import io
import json
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .agents import (Agent, AgentConfig, PolicyController, load_agent,
                     make_agent, train_offline, train_online)
from .buildsim import (EVAL_PRESET, TRAIN_PRESETS, BuildingEnv, EnvConfig,
                       read_trajectory_csv, rule_controller, run_episode,
                       write_trajectory_csv)
from .datagen import (build_quality_report, collect_final_buffer,
                      collect_trained, preset_rotation, read_dataset,
                      subsample, write_dataset)
from .errors import DataError, FingerprintMismatchError, SimulationFault, UsageError
from .fingerprint import canonical_json, fingerprint, to_jsonable

# observation channels holding zone temperatures, per environment kind
TEMP_CHANNELS = {"dc": slice(5, 7), "mu": slice(5, 8)}

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
        if (policy.obs_dim, policy.act_dim) != (env.obs_spec.size,
                                                env.act_spec.size):
            raise FingerprintMismatchError(
                f"checkpoint expects {policy.obs_dim}/{policy.act_dim} "
                f"obs/act dims, environment provides "
                f"{env.obs_spec.size}/{env.act_spec.size}")
        return PolicyController(policy, env.obs_spec, env.act_spec), \
            policy.fingerprint()
    # otherwise a plain callable controller in physical units
    return policy, getattr(policy, "__name__", type(policy).__name__)


def _env_with(env: BuildingEnv, weather: str | None,
              days: float | None) -> BuildingEnv:
    cfg = env.config
    if weather:
        spec = weather if ":" in weather else f"preset:{weather}"
        cfg = replace(cfg, weather=spec)
    if days is not None:
        cfg = replace(cfg, days=days)
    if cfg is env.config:
        return env
    return BuildingEnv(cfg, thermal=env.thermal,
                       reward_params=env.reward_params)


def evaluate_policy(policy, env: BuildingEnv, weather: str | None = None,
                    horizon: float | None = None, seeds=(0,),
                    out_dir=None) -> list:
    """Deterministic-action rollouts, one RunReport per seed.

    ``policy`` is an Agent, a checkpoint path, or a plain controller
    callable. ``horizon`` is in days. Each rollout is exported to CSV and
    the violation fraction is recounted from the file; a mismatch aborts.
    """
    run_env = _env_with(env, weather, horizon)
    controller, policy_fp = _controller_for(policy, run_env)
    rp = run_env.reward_params
    cfg_fp = fingerprint({
        "policy": policy_fp, "env": run_env.fingerprint(),
        "weather": weather or "", "days": run_env.config.days})
    reports = []
    for seed in seeds:
        if hasattr(controller, "reset"):
            controller.reset()
        traj = run_episode(run_env, controller, seed=int(seed))
        report = report_from_trajectory(traj, rp.band_low, rp.band_high,
                                        cfg_fp)
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            csv_path = Path(out_dir) / f"trajectory_seed{seed}.csv"
            write_trajectory_csv(traj, csv_path)
            recount = audit_violation_from_csv(csv_path, run_env.config.kind,
                                               rp.band_low, rp.band_high)
        else:
            with tempfile.TemporaryDirectory() as td:
                csv_path = Path(td) / "trajectory.csv"
                write_trajectory_csv(traj, csv_path)
                recount = audit_violation_from_csv(
                    csv_path, run_env.config.kind, rp.band_low, rp.band_high)
        if recount != report.violation:
            raise DataError(
                f"violation self-audit failed: harness {report.violation} "
                f"vs CSV recount {recount}")
        reports.append(report)
    return reports


def rule_baseline_report(env: BuildingEnv, presets=None,
                         horizon: float | None = None, seeds=(0,),
                         out_dir=None) -> list:
    """Evaluate the deadband rule controller on every weather preset."""
    kind = env.config.kind
    if presets is None:
        presets = list(TRAIN_PRESETS[kind]) + [EVAL_PRESET[kind]]
    controller = lambda obs: rule_controller(obs, kind,
                                             reward_params=env.reward_params)
    controller.__name__ = "rule"
    reports = []
    for preset in presets:
        sub_dir = None if out_dir is None else Path(out_dir) / preset
        reports.extend(evaluate_policy(controller, env, weather=preset,
                                       horizon=horizon, seeds=seeds,
                                       out_dir=sub_dir))
    return reports


# ---------------------------------------------------------------------------
# harness configuration


@dataclass(frozen=True)
class HarnessConfig:
    """Knobs shared by the experiment runners; defaults are desk scale."""

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
    skip_existing: bool = True     # reuse finished cell directories
    expert_path: str = ""          # blank = train one on demand
    expert_algo: str = "sac"
    expert_history: bool = True
    expert_seq_len: int = 8
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
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")

    def to_jsonable(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in asdict(self).items()}

    @classmethod
    def from_jsonable(cls, d: dict, **overrides) -> "HarnessConfig":
        """Inverse of `to_jsonable` (JSON lists become tuples again), with
        ``overrides`` replacing single fields before validation."""
        block = {k: (tuple(v) if isinstance(v, list) else v)
                 for k, v in d.items()}
        return cls(**{**block, **overrides})

    def fingerprint(self) -> str:
        d = self.to_jsonable()
        d.pop("out_dir")         # where results land does not change them
        d.pop("jobs")
        d.pop("skip_existing")
        return fingerprint(d)


def base_env(cfg: HarnessConfig, days: float | None = None) -> BuildingEnv:
    return BuildingEnv(EnvConfig(kind=cfg.env_kind,
                                 days=days if days is not None
                                 else cfg.eval_days))


# ---------------------------------------------------------------------------
# atomic result emission


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    tmp.replace(path)


def _write_cell(out_root: Path, rq: str, cell_fp: str, report: dict,
                curve_rows: list, quality: dict | None) -> Path:
    """Atomically materialize one cell directory (temp dir then rename)."""
    final_dir = out_root / rq / cell_fp
    tmp_dir = out_root / rq / f".tmp-{os.getpid()}-{cell_fp}"
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    tmp_dir.mkdir(parents=True)
    (tmp_dir / "report.json").write_text(canonical_json(report))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if curve_rows:
        writer.writerow(sorted(curve_rows[0]))
        for row in curve_rows:
            writer.writerow([row[k] for k in sorted(row)])
    (tmp_dir / "curve.csv").write_text(buf.getvalue())
    if quality is not None:
        (tmp_dir / "quality.json").write_text(canonical_json(quality))
    if final_dir.exists():
        shutil.rmtree(final_dir)
    os.replace(tmp_dir, final_dir)
    return final_dir


def load_cell(out_root, rq: str, cell_fp: str) -> dict | None:
    p = Path(out_root) / rq / cell_fp / "report.json"
    if not p.exists():
        return None
    return json.loads(p.read_text())


# ---------------------------------------------------------------------------
# expert management


def expert_config(cfg: HarnessConfig) -> AgentConfig:
    return AgentConfig(algo=cfg.expert_algo, history=cfg.expert_history,
                       seq_len=cfg.expert_seq_len if cfg.expert_history else 1,
                       batch_size=cfg.expert_batch,
                       train_steps=cfg.expert_steps,
                       epoch_steps=max(cfg.expert_steps // 6, 1),
                       seed=cfg.expert_seed)


def ensure_expert(cfg: HarnessConfig) -> str:
    """Return a checkpoint path for the collection/reference expert.

    Uses ``cfg.expert_path`` when given; otherwise trains an online agent
    against the rotating training presets and caches the checkpoint under
    the output directory, keyed by its configuration fingerprint.
    """
    if cfg.expert_path:
        if not Path(cfg.expert_path).exists():
            raise DataError(f"expert checkpoint {cfg.expert_path} not found")
        return cfg.expert_path
    acfg = expert_config(cfg)
    env = base_env(cfg, days=cfg.data_days)
    tag = fingerprint({"agent": to_jsonable(acfg), "env": env.fingerprint(),
                       "steps": cfg.expert_steps})
    path = Path(cfg.out_dir) / "experts" / f"expert-{tag}.ckpt"
    if path.exists():
        return str(path)
    agent = make_agent(acfg, env.obs_spec.size, env.act_spec.size)
    train_online(agent, preset_rotation(env)[0])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    agent.save(tmp, epoch=0, step=cfg.expert_steps)
    tmp.replace(path)
    return str(path)


# ---------------------------------------------------------------------------
# dataset materialization


def _cached_dataset(cfg: HarnessConfig, tag: str, build) -> str:
    """Path of dataset ``tag`` under the output directory; ``build()``
    produces and writes it unless a previous run already did."""
    path = Path(cfg.out_dir) / "datasets" / f"{tag}.hvds"
    if not (path.exists() and cfg.skip_existing):
        write_dataset(build(), path)
    return str(path)


def materialize_trained_dataset(cfg: HarnessConfig, expert_path: str,
                                epsilon: float, sigma: float,
                                total_steps: int, seed: int = 0) -> str:
    """Collect (or reuse) a frozen-expert dataset with the given noise."""
    expert, _ = load_agent(expert_path)
    env = base_env(cfg, days=cfg.data_days)
    tag = "trained-" + fingerprint({
        "expert": expert.fingerprint(), "env": env.fingerprint(),
        "eps": epsilon, "sigma": sigma, "steps": total_steps, "seed": seed})
    return _cached_dataset(cfg, tag, lambda: collect_trained(
        env, expert, total_steps=total_steps, epsilon=epsilon, sigma=sigma,
        seed=seed))


def materialize_final_buffer_dataset(cfg: HarnessConfig, algo: str = "td3",
                                     total_steps: int | None = None,
                                     seed: int = 0) -> str:
    env = base_env(cfg, days=cfg.data_days)
    steps = total_steps or cfg.dataset_steps
    tag = "final-buffer-" + fingerprint({
        "algo": algo, "env": env.fingerprint(), "sigma": cfg.sigma,
        "steps": steps, "seed": seed})
    return _cached_dataset(cfg, tag, lambda: collect_final_buffer(
        env, algo, total_steps=steps, noise=cfg.sigma, seed=seed)[0])


# ---------------------------------------------------------------------------
# cell execution


@dataclass
class SweepResult:
    """Outcome of one experiment runner over its grid."""

    rq: str
    axes: dict                  # axis name -> grid values
    cells: dict = field(default_factory=dict)   # key -> RunReport list
    curves: dict = field(default_factory=dict)  # key -> curve row list
    quality: dict = field(default_factory=dict)  # key -> quality jsonable
    cell_dirs: dict = field(default_factory=dict)
    summary_path: str = ""

    def validate(self, min_seeds: int) -> None:
        for key, reports in self.cells.items():
            if len(reports) < min_seeds:
                raise DataError(f"cell {key} has {len(reports)} reports, "
                                f"needs >= {min_seeds}")

    def median_metric(self, key: str, metric: str = "avg_reward") -> float:
        return float(np.median([getattr(r, metric)
                                for r in self.cells[key]]))


def _run_cell(job: dict) -> tuple:
    """Train one seed of one cell and report its best epoch.

    Trains offline on ``job["dataset"]`` when it names a file, otherwise
    online against the rotating training presets. Runs in a worker
    process; everything in ``job`` is plain JSON.
    """
    cfg = HarnessConfig.from_jsonable(job["harness"])
    acfg = AgentConfig(**job["agent"])
    eval_env = base_env(cfg)
    curve_rows = []

    def eval_fn(a, epoch):
        rep = evaluate_policy(a, eval_env, seeds=(cfg.eval_seed,))[0]
        curve_rows.append({"epoch": epoch, "seed": acfg.seed,
                           "avg_reward": rep.avg_reward,
                           "violation": rep.violation,
                           "avg_power_kw": rep.avg_power_kw})
        return rep.to_jsonable()

    if job["dataset"]:
        data = read_dataset(job["dataset"]).view()
        agent = make_agent(acfg, data.obs_dim, data.act_dim)
        summary = train_offline(agent, data, eval_fn=eval_fn)
    else:
        env = base_env(cfg, days=cfg.data_days)
        agent = make_agent(acfg, env.obs_spec.size, env.act_spec.size)
        summary = train_online(agent, preset_rotation(env)[0],
                               eval_fn=eval_fn)
    return job["key"], job["seed_index"], {
        "seed": acfg.seed, "best_epoch": summary.best_epoch,
        "report": summary.best_eval, "curve": curve_rows,
        "final_report": summary.records[-1]["eval"]}


def _execute(jobs: list, n_workers: int) -> dict:
    """Run cell jobs (possibly in parallel), regroup results by cell key."""
    results = {}
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            for key, idx, out in pool.map(_run_cell, jobs):
                results.setdefault(key, {})[idx] = out
    else:
        for job in jobs:
            key, idx, out = _run_cell(job)
            results.setdefault(key, {})[idx] = out
    # deterministic per-cell ordering by seed index
    return {key: [per_seed[i] for i in sorted(per_seed)]
            for key, per_seed in results.items()}


def _cell_fingerprint(rq: str, cfg: HarnessConfig, axes: dict) -> str:
    return fingerprint({"rq": rq, "config": cfg.fingerprint(), "axes": axes})


def _assemble(rq: str, cfg: HarnessConfig, axes: dict, cell_axes: dict,
              outcomes: dict, quality: dict) -> SweepResult:
    """Write per-cell directories plus the flat summary CSV."""
    out_root = Path(cfg.out_dir)
    result = SweepResult(rq=rq, axes=axes, quality=quality)
    summary_rows = []
    for key in sorted(cell_axes):
        fp = _cell_fingerprint(rq, cfg, cell_axes[key])
        seeds_out = outcomes.get(key)
        if seeds_out is None:       # reused from a previous run
            cached = load_cell(out_root, rq, fp)
            if cached is None:
                raise DataError(f"missing results for cell {key}")
            seeds_out = cached["seeds"]
        curve_rows = [row for s in seeds_out for row in s["curve"]]
        if key in outcomes:
            report = {"rq": rq, "cell": key, "axes": cell_axes[key],
                      "config_fingerprint": cfg.fingerprint(),
                      "cell_fingerprint": fp, "seeds": seeds_out}
            _write_cell(out_root, rq, fp, report, curve_rows,
                        quality.get(key))
        result.cell_dirs[key] = str(out_root / rq / fp)
        result.cells[key] = [RunReport.from_jsonable(s["report"])
                             for s in seeds_out]
        result.curves[key] = curve_rows
        for s in seeds_out:
            rep = s["report"]
            row = {"rq": rq, "cell": key, "cell_fingerprint": fp,
                   "seed": s["seed"], "best_epoch": s["best_epoch"],
                   "avg_reward": rep["avg_reward"],
                   "violation": rep["violation"],
                   "avg_power_kw": rep["avg_power_kw"],
                   "episode_return": rep["episode_return"]}
            row.update({f"axis_{a}": v for a, v in cell_axes[key].items()})
            summary_rows.append(row)
    buf = io.StringIO()
    if summary_rows:
        cols = sorted({c for row in summary_rows for c in row})
        writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n",
                                restval="")
        writer.writeheader()
        writer.writerows(summary_rows)
    summary_path = out_root / rq / "summary.csv"
    _atomic_write_text(summary_path, buf.getvalue())
    result.summary_path = str(summary_path)
    return result


def _agent_json(cfg: HarnessConfig, algo: str, seed: int, *,
                history=False, seq_len=1, batch=None, steps=None,
                epoch=None) -> dict:
    steps = steps if steps is not None else cfg.train_steps
    return to_jsonable(AgentConfig(
        algo=algo, history=history, seq_len=seq_len,
        batch_size=batch or cfg.batch_size, train_steps=steps,
        epoch_steps=min(epoch or cfg.epoch_steps, max(steps, 1)), seed=seed))


def _sweep(rq: str, cfg: HarnessConfig, axes: dict, cells) -> SweepResult:
    """Run one research-question grid.

    ``cells()`` yields one ``(key, cell_axes, agent, dataset, quality)``
    tuple per grid cell: a unique cell key, the axis values that (with the
    config fingerprint) name the cell directory, `_agent_json` keyword
    arguments, a dataset path to train on offline or None to train
    online, and a quality report to store beside the cell or None. It is
    called only when there is at least one seed, so datasets and experts
    are built lazily. Cells whose directory exists are reused when
    ``cfg.skip_existing`` is set.
    """
    if cfg.seeds == 0:
        return _assemble(rq, cfg, axes, {}, {}, {})
    out_root = Path(cfg.out_dir)
    jobs, cell_axes, quality = [], {}, {}
    for key, c_axes, agent, dataset, q in cells():
        cell_axes[key] = c_axes
        if q is not None:
            quality[key] = q
        fp = _cell_fingerprint(rq, cfg, c_axes)
        if cfg.skip_existing and load_cell(out_root, rq, fp) is not None:
            continue
        jobs.extend({"key": key, "seed_index": s,
                     "harness": cfg.to_jsonable(),
                     "agent": _agent_json(cfg, seed=s, **agent),
                     "dataset": dataset}
                    for s in range(cfg.seeds))
    return _assemble(rq, cfg, axes, cell_axes, _execute(jobs, cfg.jobs),
                     quality)


# ---------------------------------------------------------------------------
# research-question runners


def run_rq1(cfg: HarnessConfig) -> SweepResult:
    """Offline algorithms versus off-policy algorithms on static data.

    Both collection scenarios are materialized once; every algorithm in
    ``cfg.rq1_algos`` then trains offline on each dataset, and the cell
    reports carry the best-epoch evaluation per seed (learning curves go
    to curve.csv).
    """
    axes = {"scenario": list(cfg.rq1_scenarios),
            "algo": list(cfg.rq1_algos), "seeds": cfg.seeds}

    def cells():
        datasets = {}
        for scenario in cfg.rq1_scenarios:
            if scenario == "final_buffer":
                datasets[scenario] = materialize_final_buffer_dataset(
                    cfg, total_steps=cfg.dataset_steps)
            elif scenario == "trained":
                datasets[scenario] = materialize_trained_dataset(
                    cfg, ensure_expert(cfg), cfg.epsilon, cfg.sigma,
                    cfg.dataset_steps)
            else:
                raise UsageError(f"unknown scenario {scenario!r}")
        for scenario in cfg.rq1_scenarios:
            for algo in cfg.rq1_algos:
                yield (f"{scenario}-{algo}",
                       {"scenario": scenario, "algo": algo},
                       {"algo": algo}, datasets[scenario], None)

    return _sweep("rq1", cfg, axes, cells)


def run_rq2(cfg: HarnessConfig) -> SweepResult:
    """History encoder on versus off, offline (CQL) and online (SAC)."""
    axes = {"mode": list(cfg.rq2_modes), "history": [False, True],
            "seq_len": cfg.rq2_seq_len, "seeds": cfg.seeds}

    def cells():
        dataset = None
        if any(mode not in ("td3", "sac") for mode in cfg.rq2_modes):
            dataset = materialize_trained_dataset(
                cfg, ensure_expert(cfg), cfg.epsilon, cfg.sigma,
                cfg.dataset_steps)
        for mode in cfg.rq2_modes:
            online = mode in ("td3", "sac")
            for history in (False, True):
                seq_len = cfg.rq2_seq_len if history else 1
                yield (f"{mode}-{'hist' if history else 'flat'}",
                       {"mode": mode, "history": history, "seq_len": seq_len},
                       {"algo": mode, "history": history, "seq_len": seq_len,
                        "batch": cfg.rq2_batch,
                        "steps": cfg.rq2_online_steps if online
                        else cfg.train_steps},
                       None if online else dataset, None)

    return _sweep("rq2", cfg, axes, cells)


def run_rq3(cfg: HarnessConfig) -> SweepResult:
    """Dataset-quality grid: perturbation rate and scale versus outcome."""
    axes = {"epsilon": list(cfg.rq3_epsilons), "sigma": list(cfg.rq3_sigmas),
            "seeds": cfg.seeds}

    def cells():
        expert = ensure_expert(cfg)
        for eps in cfg.rq3_epsilons:
            for sg in cfg.rq3_sigmas:
                path = materialize_trained_dataset(
                    cfg, expert, eps, sg, cfg.rq3_dataset_steps)
                quality = build_quality_report(
                    read_dataset(path), load_agent(expert)[0],
                    base_env(cfg, days=cfg.data_days)).to_jsonable()
                yield (f"eps{eps:g}-sigma{sg:g}",
                       {"epsilon": eps, "sigma": sg},
                       {"algo": "cql", "steps": cfg.rq3_train_steps,
                        "epoch": max(cfg.rq3_train_steps // 4, 1)},
                       path, quality)

    return _sweep("rq3", cfg, axes, cells)


def run_rq4(cfg: HarnessConfig) -> SweepResult:
    """Dataset-quantity sweep at the fixed per-environment noise point."""
    eps, sg = RQ4_NOISE[cfg.env_kind]
    axes = {"size": list(cfg.rq4_sizes), "epsilon": eps, "sigma": sg,
            "seeds": cfg.seeds}

    def cells():
        sizes = sorted(cfg.rq4_sizes)
        parent_path = materialize_trained_dataset(
            cfg, ensure_expert(cfg), eps, sg, max(sizes))
        parent = read_dataset(parent_path)
        for size in sizes:
            path = parent_path
            if size != max(sizes):
                tag = f"rq4-size{size}-" + fingerprint(
                    {"parent": parent.fingerprint(), "size": size})
                path = _cached_dataset(cfg, tag, lambda: subsample(
                    parent, target=size, seed=0))
            yield (f"size{size}", {"size": size, "epsilon": eps, "sigma": sg},
                   {"algo": "cql"}, path, None)

    return _sweep("rq4", cfg, axes, cells)


def run_rq5(cfg: HarnessConfig) -> SweepResult:
    """Sequence-length sweep for the history encoder."""
    axes = {"seq_len": list(cfg.rq5_seq_lens), "seeds": cfg.seeds}

    def cells():
        dataset = materialize_trained_dataset(
            cfg, ensure_expert(cfg), cfg.epsilon, cfg.sigma,
            cfg.dataset_steps)
        for L in cfg.rq5_seq_lens:
            yield (f"len{L:02d}", {"seq_len": L},
                   {"algo": "cql", "history": True, "seq_len": L,
                    "batch": cfg.rq5_batch, "steps": cfg.rq5_train_steps,
                    "epoch": max(cfg.rq5_train_steps // 4, 1)},
                   dataset, None)

    return _sweep("rq5", cfg, axes, cells)


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
