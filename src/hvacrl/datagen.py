"""Offline-dataset production and the serialized dataset container.

Two collection scenarios produce training data:

* final buffer: an off-policy agent trains from scratch against the live
  simulator with Gaussian exploration noise on every step, and the dataset
  is its entire replay buffer;
* trained: a frozen expert policy is rolled out, and each step is perturbed
  with probability epsilon by Gaussian noise of scale sigma.

Datasets are stored in a single-file column container (magic ``HVDS0001``):
a JSON header with byte offsets and episode boundaries, little-endian
float32 columns (terminals as bytes), and a trailing CRC32 after each
column so readers can verify integrity while streaming one column at a
time.
"""
from __future__ import annotations

import csv
import json
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .agents import (Agent, AgentConfig, PolicyController, RolloutWindow,
                     load_agent, make_agent, train_online)
from .agents.replay import ReplayView
from .buildsim import TRAIN_PRESETS, BuildingEnv, run_episode
from .errors import DataError, SpecError, UsageError
from .fingerprint import canonical_json, fingerprint

MAGIC = b"HVDS0001"
REFERENCE_SEED = 424243  # fixed reset seed for expert reference rollouts


# ---------------------------------------------------------------------------
# dataset type


@dataclass
class Dataset:
    """Episodic transitions plus the provenance needed to reuse them."""

    env_kind: str
    days: float
    horizon: int
    obs_spec_fingerprint: str
    act_spec_fingerprint: str
    obs_lows: list
    obs_highs: list
    act_lows: list
    act_highs: list
    episode_starts: np.ndarray
    metadata: dict = field(default_factory=dict)
    obs: np.ndarray = None          # (N, obs_dim) float32, unit interval
    actions: np.ndarray = None      # (N, act_dim) float32, [-1, 1]
    rewards: np.ndarray = None      # (N,) float32
    terminals: np.ndarray = None    # (N,) bool

    def __post_init__(self):
        self.episode_starts = np.asarray(self.episode_starts, dtype=np.int64)
        self.obs = np.asarray(self.obs, dtype=np.float32)
        self.actions = np.asarray(self.actions, dtype=np.float32)
        self.rewards = np.asarray(self.rewards, dtype=np.float32)
        self.terminals = np.asarray(self.terminals, dtype=bool)

    def __len__(self):
        return self.obs.shape[0]

    @property
    def num_episodes(self):
        return len(self.episode_starts)

    def episode_slice(self, i: int) -> slice:
        starts = self.episode_starts
        stop = starts[i + 1] if i + 1 < len(starts) else len(self)
        return slice(int(starts[i]), int(stop))

    def episode_return(self, i: int) -> float:
        return float(self.rewards[self.episode_slice(i)].sum())

    def episode_preset(self, i: int) -> str:
        presets = self.metadata.get("weather_presets", [])
        return presets[i] if i < len(presets) else ""

    def episode_reset_seed(self, i: int):
        """Reset seed episode i was rolled with, or None if not recorded."""
        seeds = self.metadata.get("reset_seeds", [])
        return int(seeds[i]) if i < len(seeds) else None

    def validate(self) -> None:
        n = len(self)
        starts = self.episode_starts
        if n == 0:
            raise DataError("dataset has no transitions")
        if starts.size == 0 or starts[0] != 0 or starts[-1] >= n \
                or np.any(np.diff(starts) <= 0):
            raise DataError("episode boundaries do not partition the steps")
        ends = np.concatenate([starts[1:] - 1, [n - 1]])
        interior = np.ones(n, dtype=bool)
        interior[ends] = False
        if not self.terminals[ends].all() or self.terminals[interior].any():
            raise DataError("episode boundaries inconsistent with terminals")
        if self.actions.min() < -1.0 or self.actions.max() > 1.0:
            raise DataError("actions leave [-1, 1]")
        if not np.all(np.isfinite(self.rewards)):
            raise DataError("non-finite rewards")
        if not (len(self.actions) == len(self.rewards)
                == len(self.terminals) == n):
            raise DataError("column lengths disagree")

    def header_dict(self) -> dict:
        return {
            "env_kind": self.env_kind,
            "days": self.days,
            "horizon": self.horizon,
            "obs_spec_fingerprint": self.obs_spec_fingerprint,
            "act_spec_fingerprint": self.act_spec_fingerprint,
            "obs_lows": list(map(float, self.obs_lows)),
            "obs_highs": list(map(float, self.obs_highs)),
            "act_lows": list(map(float, self.act_lows)),
            "act_highs": list(map(float, self.act_highs)),
            "episode_starts": [int(s) for s in self.episode_starts],
            "metadata": self.metadata,
        }

    def fingerprint(self) -> str:
        crcs = {name: zlib.crc32(np.ascontiguousarray(col).data)
                for name, col in [("obs", self.obs),
                                  ("act", self.actions),
                                  ("reward", self.rewards),
                                  ("terminal", self.terminals.astype(np.uint8))]}
        return fingerprint({"header": self.header_dict(), "crcs": crcs})

    def view(self) -> ReplayView:
        return ReplayView(self.obs, self.actions, self.rewards,
                          self.terminals, self.episode_starts)


def dataset_from_env(env: BuildingEnv, *, episode_starts, obs, actions,
                     rewards, terminals, metadata) -> Dataset:
    ds = Dataset(
        env_kind=env.config.kind,
        days=env.config.days,
        horizon=env.horizon,
        obs_spec_fingerprint=env.obs_spec.fingerprint(),
        act_spec_fingerprint=env.act_spec.fingerprint(),
        obs_lows=list(map(float, env.obs_spec.lows)),
        obs_highs=list(map(float, env.obs_spec.highs)),
        act_lows=list(map(float, env.act_spec.lows)),
        act_highs=list(map(float, env.act_spec.highs)),
        episode_starts=episode_starts,
        metadata=metadata,
        obs=obs, actions=actions, rewards=rewards, terminals=terminals)
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# collection


def preset_rotation(env: BuildingEnv, presets=None):
    """Environment factory that cycles training weather between episodes."""
    if env.config.weather.startswith("csv:"):
        names = [env.config.weather]
        def make_env(ep):
            return BuildingEnv(env.config, thermal=env.thermal,
                               reward_params=env.reward_params)
        return make_env, names
    names = list(presets) if presets else list(TRAIN_PRESETS[env.config.kind])

    def make_env(ep):
        cfg = replace(env.config, weather=f"preset:{names[ep % len(names)]}")
        return BuildingEnv(cfg, thermal=env.thermal,
                           reward_params=env.reward_params)

    return make_env, names


def _close_last_episode(view: ReplayView):
    """Trim a live (unterminated) tail so boundary-iff-terminal holds."""
    term = view.terminals
    if term[-1]:
        return view.obs, view.actions, view.rewards, term, \
            view.episode_starts, 0
    last = int(np.nonzero(term)[0].max()) if term.any() else -1
    if last < 0:
        raise DataError("no completed episode to store")
    keep = last + 1
    starts = view.episode_starts[view.episode_starts <= last]
    return (view.obs[:keep], view.actions[:keep], view.rewards[:keep],
            term[:keep], starts, len(view) - keep)


def collect_final_buffer(env: BuildingEnv, algo: str, total_steps: int,
                         noise: float = 0.1, seed: int = 0,
                         agent_config: AgentConfig | None = None,
                         presets=None) -> tuple[Dataset, Agent]:
    """Scenario 1: train off-policy from scratch, keep the whole buffer.

    Exploration is Gaussian noise of scale ``noise`` on normalized actions
    at every step, clipped back to [-1, 1]. Training weather rotates
    between episodes. Returns the dataset and the trained agent.
    """
    if algo not in ("td3", "sac"):
        raise UsageError(f"final-buffer collection needs an off-policy "
                         f"algorithm, got {algo!r}")
    if total_steps < 1:
        raise UsageError("total_steps must be >= 1")
    cfg = agent_config or AgentConfig(algo=algo, seed=seed)
    cfg = replace(cfg, algo=algo, train_steps=total_steps,
                  explore_noise=noise, seed=seed,
                  epoch_steps=min(max(total_steps, 1), cfg.epoch_steps))
    agent = make_agent(cfg, env.obs_spec.size, env.act_spec.size)
    make_env, names = preset_rotation(env, presets)
    start_steps = min(1000, max(cfg.batch_size, total_steps // 10))
    summary = train_online(agent, make_env, start_steps=start_steps,
                           buffer_capacity=total_steps)
    obs, actions, rewards, terminals, starts, dropped = \
        _close_last_episode(summary.buffer.view())
    n_eps = len(starts)
    metadata = {
        "scenario": "final_buffer",
        "algo": algo,
        "epsilon": 1.0,           # every step carries exploration noise
        "sigma": float(noise),
        "policy_fingerprint": agent.fingerprint(),
        "weather_preset": ",".join(names),
        "weather_presets": [names[i % len(names)] for i in range(n_eps)],
        "reset_seeds": [seed * 100_003 + i for i in range(n_eps)],
        "seed": int(seed),
        "requested_steps": int(total_steps),
        "dropped_tail_steps": int(dropped),
    }
    ds = dataset_from_env(env, episode_starts=starts, obs=obs,
                          actions=actions, rewards=rewards,
                          terminals=terminals, metadata=metadata)
    return ds, agent


def collect_trained(env: BuildingEnv, expert, total_steps: int,
                    epsilon: float = 0.1, sigma: float = 0.1, seed: int = 0,
                    presets=None) -> Dataset:
    """Scenario 2: roll out a frozen expert, perturbing steps at rate epsilon.

    ``expert`` is an Agent or a checkpoint path. Each step independently
    gets Gaussian noise of scale sigma on the normalized action with
    probability epsilon, then the action is clipped to [-1, 1]. Whole
    episodes are collected until at least ``total_steps`` transitions are
    stored.
    """
    if isinstance(expert, (str, Path)):
        expert, _ = load_agent(expert)
    if expert.obs_dim != env.obs_spec.size \
            or expert.act_dim != env.act_spec.size:
        raise SpecError(
            f"expert expects {expert.obs_dim} obs / {expert.act_dim} act "
            f"dims, environment has {env.obs_spec.size}/{env.act_spec.size}")
    if total_steps < 1:
        raise UsageError("total_steps must be >= 1")
    if not 0.0 <= epsilon <= 1.0:
        raise UsageError("epsilon must be in [0, 1]")
    if sigma < 0.0:
        raise UsageError("sigma must be >= 0")
    from .envcore import Action, denormalize_action, normalize_obs

    make_env, names = preset_rotation(env, presets)
    rng = np.random.default_rng(seed)
    obs_rows, act_rows, rew_rows, term_rows, starts = [], [], [], [], []
    presets_used = []
    noisy_steps = 0
    episode = 0
    while len(obs_rows) < total_steps:
        ep_env = make_env(episode)
        presets_used.append(names[episode % len(names)])
        starts.append(len(obs_rows))
        window = RolloutWindow(expert.obs_dim, expert.cfg.seq_len)
        obs = ep_env.reset(seed=seed * 100_003 + episode)
        done = False
        while not done:
            obs_n = normalize_obs(obs, ep_env.obs_spec)
            window.push(obs_n)
            act_n = expert.policy_action(*window.arrays(),
                                         deterministic=True)[0]
            act_n, perturbed = perturb_action(rng, act_n, epsilon, sigma)
            noisy_steps += perturbed
            phys = denormalize_action(
                Action(values=np.asarray(act_n, dtype=np.float64),
                       normalized=True), ep_env.act_spec)
            obs, reward, done, _ = ep_env.step(phys)
            obs_rows.append(obs_n.astype(np.float32))
            act_rows.append(act_n)
            rew_rows.append(reward)
            term_rows.append(done)
        episode += 1
    metadata = {
        "scenario": "trained",
        "algo": expert.cfg.algo,
        "epsilon": float(epsilon),
        "sigma": float(sigma),
        "policy_fingerprint": expert.fingerprint(),
        "weather_preset": ",".join(names),
        "weather_presets": presets_used,
        "reset_seeds": [seed * 100_003 + i for i in range(episode)],
        "seed": int(seed),
        "requested_steps": int(total_steps),
        "noisy_steps": int(noisy_steps),
    }
    return dataset_from_env(
        env, episode_starts=starts,
        obs=np.stack(obs_rows), actions=np.stack(act_rows),
        rewards=np.asarray(rew_rows, np.float32),
        terminals=np.asarray(term_rows, bool), metadata=metadata)


def perturb_action(rng: np.random.Generator, action: np.ndarray,
                   epsilon: float, sigma: float):
    """Bernoulli(epsilon)-gated Gaussian noise, clipped to [-1, 1].

    Returns (action, perturbed_flag). The Bernoulli draw happens on every
    call so collection runs are reproducible for any epsilon.
    """
    hit = bool(rng.random() < epsilon)
    if hit:
        action = action + rng.normal(0.0, sigma, size=action.shape)
    return np.clip(action, -1.0, 1.0).astype(np.float32), hit


def coverage_cells(obs: np.ndarray, bins: int = 10) -> int:
    """Occupied (dimension, decile) cells of unit-interval observations."""
    idx = np.clip((np.asarray(obs) * bins).astype(int), 0, bins - 1)
    occupied = 0
    for d in range(obs.shape[1]):
        occupied += len(np.unique(idx[:, d]))
    return occupied


# ---------------------------------------------------------------------------
# regret


@dataclass(frozen=True)
class RegretValue:
    """Regret ratio of one trajectory; flagged when the reference return
    was non-positive and the sign-safe variant was used."""

    value: float
    flagged: bool = False


def regret_ratio(r_tau: float, r_opt: float) -> RegretValue:
    """(r_opt - r_tau) / r_opt, the fraction of achievable return lost."""
    if r_opt == 0.0:
        raise DataError("reference return is zero; the regret ratio is "
                        "undefined")
    if r_opt > 0.0:
        return RegretValue((r_opt - r_tau) / r_opt, False)
    return RegretValue((r_opt - r_tau) / abs(r_opt), True)


def expert_reference_return(env_template: BuildingEnv, expert: Agent,
                            preset: str, days: float,
                            seed: int = REFERENCE_SEED) -> float:
    """Undiscounted expert return on one weather preset and horizon."""
    if preset.startswith("csv:"):
        cfg = replace(env_template.config, weather=preset, days=days)
    else:
        cfg = replace(env_template.config, weather=f"preset:{preset}",
                      days=days)
    env = BuildingEnv(cfg, thermal=env_template.thermal,
                      reward_params=env_template.reward_params)
    controller = PolicyController(expert, env.obs_spec, env.act_spec)
    traj = run_episode(env, controller, seed=seed)
    if traj.fault is not None:
        raise DataError(f"expert reference rollout hit a simulator fault: "
                        f"{traj.fault}")
    return float(traj.rewards.sum())


@dataclass
class GroupStats:
    preset: str
    r_opt: float
    deltas: list
    flagged: bool

    @property
    def minimum(self):
        return float(np.min(self.deltas))

    @property
    def maximum(self):
        return float(np.max(self.deltas))

    @property
    def mean(self):
        return float(np.mean(self.deltas))

    @property
    def variance(self):
        return float(np.var(self.deltas))

    def to_jsonable(self):
        return {"preset": self.preset, "r_opt": self.r_opt,
                "deltas": [float(d) for d in self.deltas],
                "flagged": self.flagged, "min": self.minimum,
                "max": self.maximum, "mean": self.mean,
                "variance": self.variance}


@dataclass
class QualityReport:
    """Regret-ratio summary of a dataset against an expert reference."""

    deltas: list                 # per episode, dataset order
    flagged: list                # sign-safe variant used, per episode
    groups: dict                 # preset -> GroupStats
    r_opt_by_preset: dict

    @property
    def minimum(self):
        return float(np.min(self.deltas))

    @property
    def maximum(self):
        return float(np.max(self.deltas))

    @property
    def mean(self):
        return float(np.mean(self.deltas))

    @property
    def variance(self):
        return float(np.var(self.deltas))

    def to_jsonable(self):
        return {
            "deltas": [float(d) for d in self.deltas],
            "flagged": list(map(bool, self.flagged)),
            "r_opt_by_preset": {k: float(v)
                                for k, v in self.r_opt_by_preset.items()},
            "groups": {k: g.to_jsonable() for k, g in self.groups.items()},
            "min": self.minimum, "max": self.maximum,
            "mean": self.mean, "variance": self.variance,
        }


def build_quality_report(dataset: Dataset, expert: Agent,
                         env_template: BuildingEnv,
                         reference_seed: int = REFERENCE_SEED
                         ) -> QualityReport:
    """Score every episode's return against the expert on the same rollout.

    When the dataset records per-episode reset seeds, each reference r_opt
    is the expert's return under that episode's exact reset (same weather
    draw, start day, and initial state), so an unperturbed episode scores
    zero up to storage rounding and the deltas isolate the injected action
    noise. Datasets without recorded seeds fall back to one reference
    rollout per preset at ``reference_seed``.
    """
    dataset.validate()
    presets = [dataset.episode_preset(i) or
               env_template.config.weather.split(":", 1)[-1]
               for i in range(dataset.num_episodes)]
    seeds = [dataset.episode_reset_seed(i)
             for i in range(dataset.num_episodes)]
    if all(s is not None for s in seeds):
        refs = [expert_reference_return(env_template, expert, presets[i],
                                        dataset.days, seed=seeds[i])
                for i in range(dataset.num_episodes)]
    else:
        per_preset = {preset: expert_reference_return(
            env_template, expert, preset, dataset.days, seed=reference_seed)
            for preset in dict.fromkeys(presets)}
        refs = [per_preset[p] for p in presets]
    deltas, flagged = [], []
    for i in range(dataset.num_episodes):
        rv = regret_ratio(dataset.episode_return(i), refs[i])
        deltas.append(rv.value)
        flagged.append(rv.flagged)
    groups, r_opt_by_preset = {}, {}
    for preset in dict.fromkeys(presets):  # insertion-ordered unique
        idx = [i for i, p in enumerate(presets) if p == preset]
        r_opt_by_preset[preset] = float(np.mean([refs[i] for i in idx]))
        groups[preset] = GroupStats(
            preset=preset, r_opt=r_opt_by_preset[preset],
            deltas=[deltas[i] for i in idx],
            flagged=any(flagged[i] for i in idx))
    return QualityReport(deltas=deltas, flagged=flagged, groups=groups,
                         r_opt_by_preset=r_opt_by_preset)


# ---------------------------------------------------------------------------
# subsampling and merging


def subsample(dataset: Dataset, target: int, seed: int = 0) -> Dataset:
    """Uniform whole-episode subsample with at least ``target`` transitions.

    Episodes are drawn without replacement; the selected episodes keep
    their original order and internal step ordering.
    """
    dataset.validate()
    n = len(dataset)
    if target < 1:
        raise UsageError("target must be >= 1")
    if target > n:
        raise UsageError(f"target {target} exceeds dataset size {n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.num_episodes)
    picked, total = [], 0
    for ep in order:
        picked.append(int(ep))
        total += dataset.episode_slice(ep).stop - dataset.episode_slice(ep).start
        if total >= target:
            break
    picked.sort()
    slices = [dataset.episode_slice(i) for i in picked]
    starts, at = [], 0
    for s in slices:
        starts.append(at)
        at += s.stop - s.start
    parent_presets = dataset.metadata.get("weather_presets", [])
    parent_seeds = dataset.metadata.get("reset_seeds", [])
    metadata = dict(dataset.metadata)
    metadata.update({
        "parent_fingerprint": dataset.fingerprint(),
        "subsample_seed": int(seed),
        "subsample_target": int(target),
        "weather_presets": [parent_presets[i] for i in picked]
        if parent_presets else [],
        "reset_seeds": [parent_seeds[i] for i in picked]
        if parent_seeds else [],
    })
    return Dataset(
        env_kind=dataset.env_kind, days=dataset.days, horizon=dataset.horizon,
        obs_spec_fingerprint=dataset.obs_spec_fingerprint,
        act_spec_fingerprint=dataset.act_spec_fingerprint,
        obs_lows=dataset.obs_lows, obs_highs=dataset.obs_highs,
        act_lows=dataset.act_lows, act_highs=dataset.act_highs,
        episode_starts=starts, metadata=metadata,
        obs=np.concatenate([dataset.obs[s] for s in slices]),
        actions=np.concatenate([dataset.actions[s] for s in slices]),
        rewards=np.concatenate([dataset.rewards[s] for s in slices]),
        terminals=np.concatenate([dataset.terminals[s] for s in slices]))


def merge_datasets(shards: list) -> Dataset:
    """Deterministically merge per-(preset, seed) shards into one dataset."""
    if not shards:
        raise UsageError("nothing to merge")
    first = shards[0]
    for s in shards[1:]:
        if (s.env_kind, s.horizon, s.obs_spec_fingerprint,
                s.act_spec_fingerprint) != \
                (first.env_kind, first.horizon, first.obs_spec_fingerprint,
                 first.act_spec_fingerprint):
            raise DataError("shards disagree on environment or specs")
    ordered = sorted(shards, key=lambda s: (
        s.metadata.get("weather_preset", ""), s.metadata.get("seed", 0)))
    starts, at, presets, reset_seeds = [], 0, [], []
    for s in ordered:
        starts.extend(int(b) + at for b in s.episode_starts)
        presets.extend(s.metadata.get("weather_presets", []))
        shard_seeds = s.metadata.get("reset_seeds", [])
        reset_seeds.extend(shard_seeds if len(shard_seeds)
                           == len(s.episode_starts) else
                           [None] * len(s.episode_starts))
        at += len(s)
    lead = ordered[0].metadata
    metadata = {
        "scenario": lead.get("scenario", "merged"),
        "merged_from": [{"fingerprint": s.fingerprint(),
                         "weather_preset": s.metadata.get("weather_preset"),
                         "seed": s.metadata.get("seed")} for s in ordered],
        "weather_presets": presets,
        "reset_seeds": reset_seeds
        if all(r is not None for r in reset_seeds) else [],
        "epsilon": lead.get("epsilon"),
        "sigma": lead.get("sigma"),
        "policy_fingerprint": lead.get("policy_fingerprint"),
        "weather_preset": ",".join(sorted({
            p for s in ordered
            for p in str(s.metadata.get("weather_preset", "")).split(",")})),
        "seed": lead.get("seed"),
    }
    return Dataset(
        env_kind=first.env_kind, days=first.days, horizon=first.horizon,
        obs_spec_fingerprint=first.obs_spec_fingerprint,
        act_spec_fingerprint=first.act_spec_fingerprint,
        obs_lows=first.obs_lows, obs_highs=first.obs_highs,
        act_lows=first.act_lows, act_highs=first.act_highs,
        episode_starts=starts, metadata=metadata,
        obs=np.concatenate([s.obs for s in ordered]),
        actions=np.concatenate([s.actions for s in ordered]),
        rewards=np.concatenate([s.rewards for s in ordered]),
        terminals=np.concatenate([s.terminals for s in ordered]))


# ---------------------------------------------------------------------------
# container i/o


def _columns_of(ds: Dataset):
    return [("obs", ds.obs.astype("<f4")),
            ("act", ds.actions.astype("<f4")),
            ("reward", ds.rewards.astype("<f4")),
            ("terminal", ds.terminals.astype(np.uint8))]


def write_dataset(ds: Dataset, path) -> None:
    ds.validate()
    path = Path(path)
    cols = _columns_of(ds)
    entries, offset = [], 0
    for name, arr in cols:
        raw_len = arr.nbytes
        entries.append({
            "name": name,
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": raw_len,
            "crc32": zlib.crc32(np.ascontiguousarray(arr).data),
        })
        offset += raw_len + 4  # payload plus trailing CRC32
    header = dict(ds.header_dict(), columns=entries)
    blob = canonical_json(header).encode()
    tmp = path.with_suffix(path.suffix + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(len(blob).to_bytes(4, "little"))
        f.write(blob)
        for (name, arr), entry in zip(cols, entries):
            f.write(np.ascontiguousarray(arr).data)
            f.write(entry["crc32"].to_bytes(4, "little"))
    tmp.replace(path)


def _read_header(path) -> tuple[dict, int]:
    """The header and the file offset where the column payloads start."""
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        raw = f.read(4)
        if len(raw) < 4:
            raise DataError(f"{path}: truncated header length")
        hlen = int.from_bytes(raw, "little")
        blob = f.read(hlen)
        if len(blob) != hlen:
            raise DataError(f"{path}: truncated header")
        return json.loads(blob), 12 + hlen


def read_dataset_header(path) -> dict:
    return _read_header(path)[0]


def read_dataset_columns(path, names) -> dict[str, np.ndarray]:
    """Load only the requested columns, one at a time, verifying CRCs."""
    header, base = _read_header(path)
    by_name = {e["name"]: e for e in header["columns"]}
    out = {}
    with open(path, "rb") as f:
        for name in names:
            if name not in by_name:
                raise DataError(f"{path}: no column {name!r}")
            e = by_name[name]
            f.seek(base + e["offset"])
            arr = np.fromfile(f, dtype=np.dtype(e["dtype"]),
                              count=int(np.prod(e["shape"])) or 0)
            if arr.nbytes != e["nbytes"]:
                raise DataError(f"{path}: column {name} truncated")
            trailer = f.read(4)
            if len(trailer) < 4:
                raise DataError(f"{path}: column {name} missing checksum")
            crc = zlib.crc32(arr.data)
            if crc != e["crc32"] or crc != int.from_bytes(trailer, "little"):
                raise DataError(f"{path}: column {name} checksum mismatch")
            out[name] = arr.reshape(e["shape"])
    return out


def verify_dataset(path, chunk_bytes: int = 1 << 20) -> dict:
    """Streaming integrity check; memory stays bounded by the chunk size."""
    header, base = _read_header(path)
    with open(path, "rb") as f:
        for e in header["columns"]:
            f.seek(base + e["offset"])
            remaining, crc = e["nbytes"], 0
            while remaining > 0:
                block = f.read(min(chunk_bytes, remaining))
                if not block:
                    raise DataError(f"{path}: column {e['name']} truncated")
                crc = zlib.crc32(block, crc)
                remaining -= len(block)
            trailer = f.read(4)
            if len(trailer) < 4:
                raise DataError(f"{path}: column {e['name']} missing checksum")
            if crc != e["crc32"] or crc != int.from_bytes(trailer, "little"):
                raise DataError(f"{path}: column {e['name']} checksum "
                                f"mismatch")
    return header


def read_dataset(path) -> Dataset:
    header = read_dataset_header(path)
    cols = read_dataset_columns(path, ["obs", "act", "reward", "terminal"])
    ds = Dataset(
        env_kind=header["env_kind"], days=header["days"],
        horizon=header["horizon"],
        obs_spec_fingerprint=header["obs_spec_fingerprint"],
        act_spec_fingerprint=header["act_spec_fingerprint"],
        obs_lows=header["obs_lows"], obs_highs=header["obs_highs"],
        act_lows=header["act_lows"], act_highs=header["act_highs"],
        episode_starts=header["episode_starts"], metadata=header["metadata"],
        obs=cols["obs"], actions=cols["act"], rewards=cols["reward"],
        terminals=cols["terminal"].astype(bool))
    ds.validate()
    return ds


def export_dataset_csv(ds: Dataset, path) -> None:
    """Inspection CSV with the same column style as trajectory exports."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    od, ad = ds.obs.shape[1], ds.actions.shape[1]
    headers = (["step"] + [f"obs_{i}" for i in range(od)]
               + [f"act_{i}" for i in range(ad)] + ["reward", "terminal"])
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(headers)
        for t in range(len(ds)):
            row = ([t] + [repr(float(v)) for v in ds.obs[t]]
                   + [repr(float(v)) for v in ds.actions[t]]
                   + [repr(float(ds.rewards[t])), int(ds.terminals[t])])
            w.writerow(row)
