"""Offline-dataset production and the serialized dataset container.

Two collection scenarios produce training data:

* final buffer: an off-policy agent trains from scratch against the live
  simulator with Gaussian exploration noise on every step, and the dataset
  is its entire replay buffer;
* trained: a frozen expert policy is rolled out, and each step is perturbed
  with probability epsilon by Gaussian noise of scale sigma.

Both step an `agents.PolicyController` with `buildsim.EpisodeDriver` (the
first inside `train_online`, one episode at a time; the second with all
its episodes in lockstep, ending together) over the rotating training
presets; only the controller's ``choose`` differs (exploration, or the
drawn `perturbations` on the expert's action). A simulator fault in any
episode ends either collection with its `SimulationFault`. The first
keeps its normalized transitions in the `ReplayBuffer` it trains from,
the second in lockstep (episode, step) arrays; both store that view as a
`Dataset` with the same provenance keys:
the policy fingerprint and algorithm, the weather preset and reset seed of
every episode, and their `Recipe`: scenario, epsilon, sigma, seed and
requested size. `evalharness.collect` runs a recipe, checked when built,
for `hvacrl collect` and the sweeps alike.

A `Dataset` is a `ReplayView` with a header: the columns, episode starts,
boundary checks and window sampling are the view's, and the dataset adds
the environment fields, provenance metadata and the stored-dataset rules
(closed last episode, actions in [-1, 1], finite rewards). It is checked
once, when built, and trains directly. A subsample joins whole episodes
under the parent's header.

Datasets are stored in the `hvacrl.container` layout under magic
``HVDS0001``: the header carries the environment, specs, episode starts
and metadata, and the arrays are the float32 ``obs``, ``act`` and
``reward`` columns plus ``terminal`` as bytes.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import container
from .agents import (Agent, AgentConfig, PolicyController, ReplayView,
                     make_agent, seeded_episodes, train_online)
# bench/tracing.py wraps the loader here as well as in cli and evalharness
from .agents import load_agent  # noqa: F401
from .buildsim import BuildingEnv, EnvConfig, EpisodeDriver, run_episode
from .errors import DataError, SimulationFault, SpecError, UsageError
from .fingerprint import bad_fields, fingerprint

MAGIC = b"HVDS0001"
#: the stored arrays, in `Dataset` constructor order: dtype and dimensions
_COLUMNS = {"obs": ("float32", 2), "act": ("float32", 2),
            "reward": ("float32", 1), "terminal": ("uint8", 1)}
REFERENCE_SEED = 424243  # fixed reset seed for expert reference rollouts


# ---------------------------------------------------------------------------
# dataset type


class Dataset(ReplayView):
    """Episodic transitions plus the header needed to reuse them.

    A dataset is a `ReplayView` (the columns, episode starts, checks and
    window sampling) with a header: the environment it was collected on,
    and provenance ``metadata``. Training samples it directly. A header
    value of the wrong type, an environment `EnvConfig` rejects, a horizon
    other than the `EnvConfig.horizon` of its days, ranges
    that do not match the column widths, or a negative reset seed are a
    `DataError`.
    """

    #: the header's keys, as stored in the file beside the column table,
    #: with the type of each value (see `fingerprint.has_type`)
    HEADER = {"env_kind": str, "days": float, "horizon": int,
              "obs_spec_fingerprint": str, "act_spec_fingerprint": str,
              "obs_lows": [float], "obs_highs": [float], "act_lows": [float],
              "act_highs": [float], "episode_starts": [int], "metadata": dict}
    #: the ``metadata`` keys read: typed, and one per episode, when present
    METADATA = {"reset_seeds": [int], "weather_presets": [str]}

    def __init__(self, obs, actions, rewards, terminals, **header):
        bad = (bad_fields(header, self.HEADER, closed=True)
               or [f"metadata.{key}" for key in bad_fields(
                   header["metadata"], self.METADATA, optional=True)])
        if bad:
            raise DataError(f"dataset header fields {bad} are missing, "
                            f"unknown or of the wrong type")
        try:
            horizon = EnvConfig(kind=header["env_kind"],
                                days=header["days"]).horizon
        except SpecError as e:
            raise DataError(f"dataset header: {e}") from None
        if header["horizon"] != horizon:
            raise DataError(f"dataset header: horizon {header['horizon']} is "
                            f"not the {horizon} steps of days={header['days']}")
        starts = header.pop("episode_starts")
        vars(self).update(header)
        super().__init__(obs, actions, rewards, terminals, starts)
        sizes = {"obs": self.obs_dim, "act": self.act_dim}
        uneven = ([key for key in ("obs_lows", "obs_highs", "act_lows",
                                   "act_highs")
                   if len(header[key]) != sizes[key[:3]]]
                  + [f"metadata.{key}" for key in self.METADATA
                     if key in self.metadata
                     and len(self.metadata[key]) != self.num_episodes])
        if uneven:
            raise DataError(f"dataset header fields {uneven} do not hold one "
                            f"value per column or episode")
        if min(self.metadata.get("reset_seeds", []), default=0) < 0:
            raise DataError("dataset header: metadata.reset_seeds must be "
                            ">= 0")

    def episode_return(self, i: int) -> float:
        return float(self.rewards[self.episode_slice(i)].sum())

    def validate(self) -> None:
        """`ReplayView`'s checks, and a stored dataset also closes its last
        episode, keeps actions in [-1, 1] and has finite rewards."""
        super().validate()
        if not self.terminals[-1]:
            raise DataError("final episode is not terminal")
        if self.actions.min() < -1.0 or self.actions.max() > 1.0:
            raise DataError("actions leave [-1, 1]")
        if not np.all(np.isfinite(self.rewards)):
            raise DataError("non-finite rewards")

    def header_dict(self) -> dict:
        return {**{key: getattr(self, key) for key in self.HEADER},
                "episode_starts": [int(s) for s in self.episode_starts]}

    def columns(self) -> list:
        """The stored ``(name, array)`` columns, in file order."""
        return [("obs", self.obs), ("act", self.actions),
                ("reward", self.rewards),
                ("terminal", self.terminals.astype(np.uint8))]

    def fingerprint(self) -> str:
        crcs = {name: zlib.crc32(np.ascontiguousarray(col).data)
                for name, col in self.columns()}
        return fingerprint({"header": self.header_dict(), "crcs": crcs})


# ---------------------------------------------------------------------------
# collection


def preset_rotation(env: BuildingEnv):
    """Environment factory that cycles training weather between episodes;
    a trace-driven environment keeps its trace."""
    names = ([env.config.weather] if env.config.weather.startswith("csv:")
             else list(env.building.train_presets))
    return (lambda ep: env.variant(weather=names[ep % len(names)])), names


@dataclass(frozen=True)
class Recipe:
    """How one dataset is collected; a value out of bounds is a UsageError.

    A final buffer explores with noise of scale ``sigma`` on every step of
    its off-policy learner ``algo``, so it records epsilon 1. A trained
    dataset perturbs its expert's steps at rate ``epsilon``. ``seed``
    seeds the collection and, with ``size``, a whole-episode subsample.
    """

    scenario: str
    steps: int
    epsilon: float
    sigma: float
    algo: str = "td3"
    seed: int = 0
    size: int | None = None

    def __post_init__(self):        # NaN fails each bound
        if self.scenario not in ("final_buffer", "trained"):
            raise UsageError(f"unknown scenario {self.scenario!r}")
        if self.steps < 1 or self.size is not None and self.size < 1:
            raise UsageError("steps and size must be >= 1")
        if not 0.0 <= self.epsilon <= 1.0:
            raise UsageError("epsilon must be in [0, 1]")
        if not 0.0 <= self.sigma < math.inf:
            raise UsageError("sigma must be finite and >= 0")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.scenario == "final_buffer" and self.algo not in ("td3", "sac"):
            raise UsageError(f"a final buffer learns td3 or sac, not "
                             f"{self.algo!r}")

    def check_horizon(self, horizon: int) -> None:
        """A UsageError if this final buffer completes no episode."""
        if self.scenario == "final_buffer" and self.steps < horizon:
            raise UsageError(f"a final buffer of {self.steps} steps "
                             f"completes no {horizon}-step episode")


def _collected_dataset(env: BuildingEnv, view: ReplayView, reset_seeds,
                       names, policy: Agent, recipe: Recipe,
                       **metadata) -> Dataset:
    """The view's completed episodes as a `Dataset`, with the provenance
    both scenarios record; a live (unterminated) tail is left out."""
    ends = np.nonzero(view.terminals)[0]
    if ends.size == 0:
        raise DataError("no completed episode to store")
    keep = int(ends[-1]) + 1
    starts = view.episode_starts[view.episode_starts < keep]
    metadata.update({
        "policy_fingerprint": policy.fingerprint(),
        "weather_preset": ",".join(names),
        "weather_presets": [names[i % len(names)]
                            for i in range(len(starts))],
        "reset_seeds": reset_seeds[:len(starts)],
        "scenario": recipe.scenario, "algo": policy.cfg.algo,
        "epsilon": float(recipe.epsilon), "sigma": float(recipe.sigma),
        "seed": int(recipe.seed), "requested_steps": int(recipe.steps),
    })
    return Dataset(
        *(getattr(view, col)[:keep] for col in Dataset.COLUMNS),
        episode_starts=starts, metadata=metadata,
        env_kind=env.config.kind, days=env.config.days, horizon=env.horizon,
        obs_spec_fingerprint=env.obs_spec.fingerprint(),
        act_spec_fingerprint=env.act_spec.fingerprint(),
        obs_lows=list(map(float, env.obs_spec.lows)),
        obs_highs=list(map(float, env.obs_spec.highs)),
        act_lows=list(map(float, env.act_spec.lows)),
        act_highs=list(map(float, env.act_spec.highs)))


def collect_final_buffer(env: BuildingEnv, algo: str, total_steps: int,
                         noise: float = 0.1, seed: int = 0
                         ) -> tuple[Dataset, Agent]:
    """Scenario 1: train off-policy from scratch, keep the whole buffer.

    Exploration is Gaussian noise of scale ``noise`` on normalized actions
    at every step, clipped back to [-1, 1]. Training weather rotates
    between episodes. Returns the dataset and the trained agent.
    """
    recipe = Recipe("final_buffer", total_steps, 1.0, noise, algo, seed)
    cfg = AgentConfig(algo=algo, seed=seed, train_steps=total_steps,
                      explore_noise=noise,
                      epoch_steps=min(total_steps, AgentConfig.epoch_steps))
    agent = make_agent(cfg, env.obs_spec.size, env.act_spec.size)
    make_env, names = preset_rotation(env)
    start_steps = min(1000, max(cfg.batch_size, total_steps // 10))
    summary = train_online(agent, make_env, start_steps=start_steps)
    ds = _collected_dataset(env, summary.buffer.view(), summary.reset_seeds,
                            names, agent, recipe)
    ds.metadata["dropped_tail_steps"] = len(summary.buffer) - len(ds)
    return ds, agent


def collect_trained(env: BuildingEnv, expert, total_steps: int,
                    epsilon: float = 0.1, sigma: float = 0.1, seed: int = 0
                    ) -> Dataset:
    """Scenario 2: roll out the frozen ``expert`` Agent, perturbing steps at
    rate epsilon.

    Each step independently gets Gaussian noise of scale sigma on the
    normalized action with probability epsilon, then the action is clipped
    to [-1, 1]. Whole episodes are collected, as many as it takes to store
    at least ``total_steps`` transitions, and they all step in lockstep
    with one expert forward pass per step, so every step finds them all at
    one step index t. A simulator fault in any of them ends the collection.

    The perturbations are drawn before the rollout, in the order one
    episode after another would consume them: episode by episode and step
    by step, a Bernoulli draw (``rng.random() < epsilon``) and, for a
    perturbed step, a Gaussian draw of the action's size; step t of
    episode k takes draw ``k * horizon + t``. So the dataset depends only
    on the seed, not on how the episodes are batched.
    """
    recipe = Recipe("trained", total_steps, epsilon, sigma, seed=seed)
    # whole episodes: the last one starts before total_steps is reached
    n = -(-total_steps // env.horizon)
    noise = perturbations(np.random.default_rng(seed), n * env.horizon,
                          expert.act_dim, epsilon, sigma)
    t = 0                   # the step index every episode is at

    def choose(windows, counts):
        policy = expert.policy_action(windows, counts)
        acts = np.clip(policy, -1.0, 1.0).astype(np.float32)
        for k in range(n):  # row k is episode k
            d = noise[k * env.horizon + t]
            if d is not None:
                acts[k] = np.clip(policy[k] + d, -1.0, 1.0)
        return acts

    controller = PolicyController(expert, env.obs_spec, env.act_spec, choose)
    make_env, names = preset_rotation(env)
    episodes = seeded_episodes(make_env, seed)
    driver = EpisodeDriver([episodes(i) for i in range(n)], controller)
    # each transition by (episode, step), stored episode by episode
    obs_n = np.empty((n, env.horizon, expert.obs_dim))
    act_n = np.empty((n, env.horizon, expert.act_dim), dtype=np.float32)
    rewards = np.empty((n, env.horizon))
    dones = np.empty((n, env.horizon), dtype=bool)
    while driver.running:
        steps = driver.step()
        obs_n[:, t] = controller.obs_n
        act_n[:, t] = controller.act_n
        rewards[:, t] = [s[2] for s in steps]
        dones[:, t] = [s[3] for s in steps]
        t += 1
    view = ReplayView(obs_n.reshape(n * env.horizon, -1),
                      act_n.reshape(n * env.horizon, -1), rewards.ravel(),
                      dones.ravel(), np.arange(n) * env.horizon)
    return _collected_dataset(env, view, driver.reset_seeds, names, expert,
                              recipe,
                              noisy_steps=sum(d is not None for d in noise))


def perturbations(rng: np.random.Generator, steps: int, act_dim: int,
                  epsilon: float, sigma: float) -> list:
    """Per step, Gaussian noise of scale sigma with probability epsilon,
    else None.

    The Bernoulli draw happens for every step, so collection runs are
    reproducible for any epsilon; a perturbed step's noise follows it.
    """
    return [rng.normal(0.0, sigma, size=act_dim) if rng.random() < epsilon
            else None for _ in range(steps)]


def coverage_cells(obs: np.ndarray, bins: int = 10) -> int:
    """Occupied (dimension, decile) cells of unit-interval observations."""
    idx = np.clip((np.asarray(obs) * bins).astype(int), 0, bins - 1)
    return sum(len(np.unique(idx[:, d])) for d in range(obs.shape[1]))


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
                            presets: list, days: float, seeds: list) -> list:
    """Undiscounted expert returns of one episode per ``(preset, seed)``
    pair, rolled out in lockstep: a preset is a bare name, a ``csv:`` trace,
    or blank for the template's own weather; every episode lasts ``days``.
    A simulator fault in any of them is a `DataError`."""
    envs = {preset: env_template.variant(weather=preset, days=days)
            for preset in dict.fromkeys(presets)}
    controller = PolicyController(expert, env_template.obs_spec,
                                  env_template.act_spec)
    try:
        trajs = run_episode([(envs[p], seed)
                             for p, seed in zip(presets, seeds)], controller)
    except SimulationFault as e:
        raise DataError(f"expert reference rollout hit a simulator "
                        f"fault: {e}") from None
    return [float(traj.rewards.sum()) for traj in trajs]


def delta_stats(deltas) -> dict:
    """The min, max, mean and variance of regret deltas."""
    return {"min": float(np.min(deltas)), "max": float(np.max(deltas)),
            "mean": float(np.mean(deltas)), "variance": float(np.var(deltas))}


@dataclass
class GroupStats:
    preset: str
    r_opt: float
    deltas: list
    flagged: bool

    def to_jsonable(self):
        return {"preset": self.preset, "r_opt": self.r_opt,
                "deltas": [float(d) for d in self.deltas],
                "flagged": self.flagged, **delta_stats(self.deltas)}


@dataclass
class QualityReport:
    """Regret-ratio summary of a dataset against an expert reference."""

    deltas: list                 # per episode, dataset order
    flagged: list                # sign-safe variant used, per episode
    groups: dict                 # preset -> GroupStats
    r_opt_by_preset: dict

    def to_jsonable(self):
        return {
            "deltas": [float(d) for d in self.deltas],
            "flagged": list(map(bool, self.flagged)),
            "r_opt_by_preset": {k: float(v)
                                for k, v in self.r_opt_by_preset.items()},
            "groups": {k: g.to_jsonable() for k, g in self.groups.items()},
            **delta_stats(self.deltas),
        }


def build_quality_report(dataset: Dataset, expert: Agent,
                         env_template: BuildingEnv) -> QualityReport:
    """Score every episode's return against the expert on the same rollout.

    With the dataset's per-episode ``reset_seeds``, each reference r_opt
    is the expert's return under that episode's exact reset (same weather
    draw, start day, and initial state), so an unperturbed episode scores
    zero up to storage rounding and the deltas isolate the injected action
    noise. Datasets without them fall back to one reference rollout per
    recorded preset (or the template's weather) at ``REFERENCE_SEED``.
    """
    dataset.validate()
    meta, n = dataset.metadata, dataset.num_episodes
    presets = [p or env_template.config.weather_spec.removeprefix("preset:")
               for p in meta.get("weather_presets", [""] * n)]
    if "reset_seeds" in meta:
        refs = expert_reference_return(env_template, expert, presets,
                                       dataset.days, meta["reset_seeds"])
    else:
        unique = list(dict.fromkeys(presets))
        per_preset = dict(zip(unique, expert_reference_return(
            env_template, expert, unique, dataset.days,
            [REFERENCE_SEED] * len(unique))))
        refs = [per_preset[p] for p in presets]
    deltas, flagged = [], []
    for i in range(n):
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
# subsampling


def subsample(dataset: Dataset, target: int, seed: int = 0) -> Dataset:
    """Uniform whole-episode subsample with at least ``target`` transitions.

    Episodes are drawn without replacement; the selected episodes keep
    their original order and internal step ordering, and each per-episode
    metadata list the parent has keeps the entries of the picked ones.
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
    lengths = [s.stop - s.start for s in slices]
    metadata = {**dataset.metadata,
                "parent_fingerprint": dataset.fingerprint(),
                "subsample_seed": int(seed), "subsample_target": int(target)}
    for key in Dataset.METADATA:
        if key in metadata:
            metadata[key] = [metadata[key][i] for i in picked]
    return Dataset(
        *(np.concatenate([getattr(dataset, col)[s] for s in slices])
          for col in Dataset.COLUMNS),
        **{**dataset.header_dict(), "metadata": metadata,
           "episode_starts": np.cumsum([0] + lengths[:-1])})


# ---------------------------------------------------------------------------
# container i/o


def write_dataset(ds: Dataset, path) -> None:
    ds.validate()
    container.write(path, MAGIC, ds.header_dict(), ds.columns())


def read_dataset_header(path) -> dict:
    return container.read_header(path, MAGIC)


def verify_dataset(path) -> dict:
    """Streaming integrity check of every column; returns the header."""
    return container.verify(path, MAGIC)


def read_dataset(path) -> Dataset:
    """The dataset at ``path``. The CRCs do not cover the header, so a bad
    header field or column name, dtype or rank is a `DataError` too."""
    header, cols = container.read(path, MAGIC)
    del header["columns"]
    kinds = {name: (str(col.dtype), col.ndim) for name, col in cols.items()}
    if kinds != _COLUMNS:
        raise DataError(f"{path}: arrays {kinds} are not {_COLUMNS}")
    return Dataset(*(cols[name] for name in _COLUMNS), **header)
