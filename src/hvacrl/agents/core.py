"""The four control-learning algorithms, their training loops, and the
rollout plumbing that connects a policy to a simulator.

All agents share one update skeleton on `Agent`: the one-step bootstrap
target r + gamma * (1 - terminal) * (min(Q1', Q2') - bonus), one actor
step against the frozen critics, and a polyak step of the critic target.
They differ only in their hooks: `_next_action` (the target's next action
and bonus) and `_actor_loss`, plus CQL's `_critic_penalty`, TD3's policy
delay and SAC's entropy-temperature step.

Everything is deterministic given the config seed: network init, batch
sampling, exploration, and target smoothing all consume one generator.

An agent is the `Module` of its networks: one parameter walk serves its
checkpoints, their load checks and the divergence guard.

Offline and online training share one epoch loop (`_train`) and differ
only in where its batches come from.

Policies act on normalized observations and emit normalized actions.
`PolicyController` is the one adapter from an agent to the physical-units
controller that `buildsim.EpisodeDriver` steps: evaluation, expert
reference returns, `train_online` and frozen-expert collection all roll
out through it, and differ only in how it chooses the action. It chooses
for all of a driver's lockstep episodes with one policy call per step.
"""
from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .. import container, envcore
from ..buildsim import EpisodeDriver
from ..errors import (DataError, DivergenceError, FingerprintMismatchError,
                      SpecError)
from ..fingerprint import bad_fields, fingerprint, to_jsonable
from ..neuralsub import tensor as T
from ..neuralsub.layers import Module
from ..neuralsub.optim import Adam
from ..neuralsub.sampling import tanh_gaussian_action
from ..neuralsub.tensor import Tensor
from .config import AgentConfig
from .nets import DeterministicActor, GaussianActor, TwinCritic
from .replay import ReplayBuffer, ReplayView, WindowBatch

Q_DIVERGENCE_LIMIT = 1e6
CHECKPOINT_MAGIC = b"HVCK0002"

#: the checkpoint header's keys beside the column table, and those of its
#: ``meta`` block (which may hold more), with the type of each value (see
#: `fingerprint.has_type`); ``meta.agent_config`` holds `AgentConfig`
#: fields, each of its default's type
CHECKPOINT_HEADER = {"config_fingerprint": str, "seed_record": dict,
                     "meta": dict}
CHECKPOINT_META = {"algo": str, "agent_config": dict, "obs_dim": int,
                   "act_dim": int, "epoch": int, "step": int}
_AGENT_CONFIG_TYPES = {f.name: type(f.default) for f in fields(AgentConfig)}


def _config_fingerprint(cfg: AgentConfig, obs_dim: int, act_dim: int) -> str:
    """The ``config_fingerprint`` a checkpoint of such an agent records."""
    return fingerprint({"agent_config": to_jsonable(cfg), "obs_dim": obs_dim,
                        "act_dim": act_dim})


class Agent(Module):
    """Shared machinery: networks, optimizers, the update skeleton, guards.

    A subclass builds its networks in `_build` and defines the hooks
    `_next_action` and `_actor_loss`, the actor's loss Tensor and its
    diagnostics. A checkpoint holds exactly the agent's `named_parameters`:
    ``actor``, ``actor_target`` (TD3), ``critic``, ``critic_target``, then
    SAC's ``log_alpha``. Config, generator and optimizers are not Modules."""

    def __init__(self, cfg: AgentConfig, obs_dim: int, act_dim: int):
        self.cfg = cfg
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.rng = np.random.default_rng(cfg.seed)
        self.update_count = 0
        self._build()
        # built once: `Module.frozen` hides parameters from `named_parameters`
        self._checked = self.named_parameters()

    def _build(self):
        raise NotImplementedError

    # -- persistence ---------------------------------------------------

    def fingerprint(self) -> str:
        return _config_fingerprint(self.cfg, self.obs_dim, self.act_dim)

    def save(self, path, *, epoch: int, step: int, extra_meta: dict | None = None):
        meta = {
            "algo": self.cfg.algo,
            "agent_config": to_jsonable(self.cfg),
            "obs_dim": self.obs_dim,
            "act_dim": self.act_dim,
            "epoch": epoch,
            "step": step,
        }
        if extra_meta:
            meta.update(extra_meta)
        header = {
            "config_fingerprint": self.fingerprint(),
            "seed_record": {"seed": self.cfg.seed,
                            "update_count": self.update_count},
            "meta": meta,
        }
        container.write(path, CHECKPOINT_MAGIC, header,
                        [(name, np.asarray(arr, np.float32)) for name, arr
                         in sorted(self.state_arrays().items())])

    # -- acting ---------------------------------------------------------

    def policy_action(self, windows, counts, deterministic: bool = True
                      ) -> np.ndarray:
        """Normalized action from the current policy, no extra noise;
        ``deterministic=False`` samples a stochastic policy."""
        raise NotImplementedError

    def explore_action(self, windows, counts) -> np.ndarray:
        """Behavior action for online rollouts: a policy sample (the action
        itself for a deterministic actor) plus exploration noise."""
        a = self.policy_action(windows, counts, deterministic=False)
        if self.cfg.explore_noise > 0.0:
            a = a + self.rng.normal(0.0, self.cfg.explore_noise, size=a.shape)
        return np.clip(a, -1.0, 1.0).astype(np.float32)

    # -- learning -------------------------------------------------------

    def update(self, batch: WindowBatch) -> dict:
        self.update_count += 1
        info = self._critic_update(batch)
        info.update(self._policy_update(batch))
        self._update_targets()
        self._assert_finite()
        if info["median_abs_q"] > Q_DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"critic diverged at update {self.update_count}: "
                f"median |Q| = {info['median_abs_q']:.3e}",
                diagnostics={"update": self.update_count, **info})
        return info

    def _critic_update(self, batch: WindowBatch) -> dict:
        target = self._td_target(batch)
        feat = self.critic.features(batch.windows, batch.counts)
        acts = Tensor(batch.actions)
        q1, q2 = self.critic.heads(feat, acts)
        td = T.scale(T.add(T.mse(q1, target), T.mse(q2, target)), 0.5)
        loss, extra = self._critic_penalty(td, feat, batch, (q1, q2))
        self.critic_opt.zero_grad()
        loss.backward()
        self.critic_opt.step()
        info = {
            "critic_loss": float(loss.data),
            "q1_mean": float(q1.data.mean()),
            "median_abs_q": float(np.median(np.abs(q1.data))),
        }
        info.update(extra)
        return info

    def _critic_penalty(self, td, feat, batch, qs):
        return td, {}

    def _next_action(self, batch: WindowBatch):
        """The target's next actions (a Tensor) and the bonus subtracted
        from their min(Q1', Q2'); called without a tape."""
        raise NotImplementedError

    def _td_target(self, batch: WindowBatch) -> np.ndarray:
        with T.no_grad():
            a2, bonus = self._next_action(batch)
            q1t, q2t = self.critic_target.heads(self.critic_target.features(
                batch.next_windows, batch.next_counts), a2)
            boot = np.minimum(q1t.data, q2t.data) - bonus
        return (batch.rewards + self.cfg.gamma * (1.0 - batch.terminals)
                * boot).astype(np.float32)

    def _policy_update(self, batch: WindowBatch) -> dict:
        # the actor loss runs through the critic, which must not learn from it
        with self.critic.frozen():
            loss, extra = self._actor_loss(batch)
            self.actor_opt.zero_grad()
            loss.backward()
        self.actor_opt.step()
        return {"actor_loss": float(loss.data), **extra}

    def _update_targets(self) -> None:
        self.critic_target.polyak_from(self.critic, self.cfg.tau)

    def _assert_finite(self):
        for name, p in self._checked:
            if not np.isfinite(p.data).all():
                raise DivergenceError(f"non-finite parameter {name} "
                                      f"after update {self.update_count}")

    def q_values(self, windows, counts, actions
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Both critic heads as plain arrays (no gradients)."""
        with T.no_grad():
            q1, q2 = self.critic.heads(self.critic.features(windows, counts),
                                       Tensor(np.asarray(actions, np.float32)))
        return q1.data, q2.data


class TD3Agent(Agent):
    """Twin critics, smoothed deterministic targets, delayed actor updates."""

    def _build(self):
        cfg, od, ad = self.cfg, self.obs_dim, self.act_dim
        self.actor = DeterministicActor(cfg, od, ad, self.rng)
        self.actor_target = DeterministicActor(cfg, od, ad, self.rng)
        self.actor_target.copy_from(self.actor)
        self.critic = TwinCritic(cfg, od, ad, self.rng)
        self.critic_target = TwinCritic(cfg, od, ad, self.rng)
        self.critic_target.copy_from(self.critic)
        self.actor_opt = Adam(self.actor.parameters(), lr=cfg.actor_lr)
        self.critic_opt = Adam(self.critic.parameters(), lr=cfg.critic_lr)

    def policy_action(self, windows, counts, deterministic: bool = True):
        return self.actor.act(windows, counts)

    def _next_action(self, batch: WindowBatch):
        cfg = self.cfg
        a2 = self.actor_target(batch.next_windows, batch.next_counts).data
        noise = self.rng.normal(0.0, cfg.target_noise, size=a2.shape)
        noise = np.clip(noise, -cfg.target_noise_clip, cfg.target_noise_clip)
        return Tensor(np.clip(a2 + noise.astype(np.float32), -1.0, 1.0)), 0.0

    def _actor_q(self, batch: WindowBatch):
        """The actor's actions on the batch windows and their Q1."""
        a = self.actor(batch.windows, batch.counts)
        (q1,) = self.critic.heads(
            self.critic.features(batch.windows, batch.counts), a, count=1)
        return a, q1

    def _actor_loss(self, batch: WindowBatch):
        _, q1 = self._actor_q(batch)
        return T.scale(T.mean(q1), -1.0), {"actor_q_mean": float(q1.data.mean())}

    def _policy_update(self, batch: WindowBatch) -> dict:
        if self.update_count % self.cfg.policy_delay != 0:
            return {}
        return super()._policy_update(batch)

    def _update_targets(self):
        # targets track the online nets only on actor-update steps
        if self.update_count % self.cfg.policy_delay == 0:
            super()._update_targets()
            self.actor_target.polyak_from(self.actor, self.cfg.tau)


class TD3BCAgent(TD3Agent):
    """TD3 with a behavior-cloning pull toward the dataset actions.

    This is the TD3+BC form of Fujimoto & Gu 2021 (arXiv:2106.06860): the
    critic term is scaled by lambda = bc_weight / mean|Q1|, so it stays
    commensurate with the squared-distance BC term as Q magnitudes grow.
    """

    def _actor_loss(self, batch: WindowBatch):
        a, q1 = self._actor_q(batch)
        bc_dist = T.mean(T.sum_(T.square(T.sub(a, Tensor(batch.actions))),
                                axis=1))
        lam = self.cfg.bc_weight / (float(np.abs(q1.data).mean()) + 1e-9)
        loss = T.add(T.scale(T.mean(q1), -lam), bc_dist)
        return loss, {"actor_q_mean": float(q1.data.mean()),
                      "bc_distance": float(bc_dist.data),
                      "bc_lambda": float(lam)}


class SACAgent(Agent):
    """Stochastic tanh-Gaussian actor with tuned entropy temperature."""

    def _build(self):
        cfg, od, ad = self.cfg, self.obs_dim, self.act_dim
        self.actor = GaussianActor(cfg, od, ad, self.rng)
        self.critic = TwinCritic(cfg, od, ad, self.rng)
        self.critic_target = TwinCritic(cfg, od, ad, self.rng)
        self.critic_target.copy_from(self.critic)
        self.log_alpha = T.parameter(np.zeros(()))
        self.target_entropy = -float(ad)
        self.actor_opt = Adam(self.actor.parameters(), lr=cfg.actor_lr)
        self.critic_opt = Adam(self.critic.parameters(), lr=cfg.critic_lr)
        self.alpha_opt = Adam([self.log_alpha], lr=cfg.alpha_lr)

    @property
    def alpha(self) -> float:
        return math.exp(float(self.log_alpha.data))

    def policy_action(self, windows, counts, deterministic: bool = True):
        return self.actor.act(windows, counts, rng=self.rng,
                              deterministic=deterministic)

    def _next_action(self, batch: WindowBatch):
        a2, logp2 = self.actor.sample(batch.next_windows, batch.next_counts,
                                      self.rng)
        return a2, self.alpha * logp2.data

    def _actor_loss(self, batch: WindowBatch):
        a, logp = self.actor.sample(batch.windows, batch.counts, self.rng)
        q1, q2 = self.critic.heads(
            self.critic.features(batch.windows, batch.counts), a)
        loss = T.mean(T.sub(T.scale(logp, self.alpha), T.minimum(q1, q2)))
        return loss, {"entropy_mean": -float(np.mean(logp.data))}

    def _policy_update(self, batch: WindowBatch) -> dict:
        info = super()._policy_update(batch)
        # temperature follows the entropy gap: when entropy falls below the
        # target alpha rises, and vice versa
        alpha_loss = T.scale(self.log_alpha,
                             info["entropy_mean"] - self.target_entropy)
        self.alpha_opt.zero_grad()
        alpha_loss.backward()
        self.alpha_opt.step()
        return {**info, "alpha": self.alpha}


class CQLAgent(SACAgent):
    """SAC plus a conservative penalty that pushes policy-action Q values
    down toward the dataset-action Q values.

    With cql_weight == 0 the penalty branch is skipped entirely, so the
    update (including generator consumption) is exactly the SAC update.
    """

    def _policy_samples(self, windows, counts, m: int) -> np.ndarray:
        """m actions per window drawn from the current policy, (B*m, A)."""
        with T.no_grad():
            mean, log_std = self.actor.dist_params(windows, counts)
        return tanh_gaussian_action(np.repeat(mean.data, m, axis=0),
                                    np.repeat(log_std.data, m, axis=0), self.rng)

    def _gap(self, feat, windows, counts, q1, q2, m: int) -> Tensor:
        """E[Q at m policy samples per window] - E[Q at the actions that
        gave ``q1``, ``q2``], both heads summed, on the critic features
        ``feat`` of the windows."""
        a_pi = self._policy_samples(windows, counts, m)
        rep = T.index_select(feat, np.repeat(np.arange(len(windows)), m))
        q1_pi, q2_pi = self.critic.heads(rep, Tensor(a_pi))
        return T.sub(T.add(T.mean(q1_pi), T.mean(q2_pi)),
                     T.add(T.mean(q1), T.mean(q2)))

    def _critic_penalty(self, td, feat, batch, qs):
        cfg = self.cfg
        if cfg.cql_weight == 0.0:
            return td, {}
        gap = self._gap(feat, batch.windows, batch.counts, *qs,
                        cfg.cql_samples)
        loss = T.add(td, T.scale(gap, cfg.cql_weight))
        return loss, {"cql_penalty": float(gap.data)}

    def conservative_gap(self, windows, counts, actions,
                         mc_samples: int | None = None) -> float:
        """E[Q at policy actions] - E[Q at the given actions], no gradients.

        This is the quantity the penalty weights: it vanishes when the
        policy's action distribution matches the actions it is compared
        against, and grows when the policy wanders off the data.
        """
        with T.no_grad():
            feat = self.critic.features(windows, counts)
            q1, q2 = self.critic.heads(feat, Tensor(
                np.asarray(actions, dtype=np.float32)))
            return float(self._gap(feat, windows, counts, q1, q2,
                                   mc_samples or self.cfg.cql_samples).data)


ALGO_CLASSES = {"td3": TD3Agent, "sac": SACAgent,
                "td3bc": TD3BCAgent, "cql": CQLAgent}


def make_agent(cfg: AgentConfig, obs_dim: int, act_dim: int) -> Agent:
    return ALGO_CLASSES[cfg.algo](cfg, obs_dim, act_dim)


def load_agent(path) -> tuple[Agent, dict]:
    """Rebuild an agent from a checkpoint; returns (agent, header).

    A header without the keys and types `CHECKPOINT_HEADER` and
    `CHECKPOINT_META` declare, or whose agent config is not made of
    `AgentConfig` fields of their default's type, is a DataError. The
    stored config fingerprint must match the header's config, checked before
    any network is built. A missing, extra or misshaped array is a SpecError.
    """
    header, arrays = container.read(path, CHECKPOINT_MAGIC)
    meta = header.get("meta")
    bad = (bad_fields(header, CHECKPOINT_HEADER)
           or [f"meta.{k}" for k in bad_fields(meta, CHECKPOINT_META)]
           or [f"meta.{k}" for k in ("obs_dim", "act_dim") if meta[k] < 1]
           or [f"meta.agent_config.{k}" for k in bad_fields(
               meta["agent_config"], _AGENT_CONFIG_TYPES, optional=True,
               closed=True)])
    if bad:
        raise DataError(f"{path}: checkpoint header fields {bad} are "
                        f"missing, unknown, of the wrong type or below 1")
    cfg = AgentConfig(**meta["agent_config"])
    expected = _config_fingerprint(cfg, meta["obs_dim"], meta["act_dim"])
    if header["config_fingerprint"] != expected:
        raise FingerprintMismatchError(
            f"{path}: checkpoint built for config "
            f"{header['config_fingerprint']}, expected {expected}")
    agent = make_agent(cfg, meta["obs_dim"], meta["act_dim"])
    agent.load_state_arrays(arrays)
    return agent, header


class PolicyController:
    """Adapts an agent to `buildsim.EpisodeDriver`'s controller interface,
    choosing for all lockstep lanes at once.

    `reset` gives it one empty history window per lane. Each `act_lanes`
    call pushes the running lanes' normalized observations ``obs_n`` into
    their windows, takes the normalized actions ``act_n`` from ``choose(
    windows, counts, lanes)`` (`RolloutWindow.arrays` and the lanes), one
    row per lane (the agent's deterministic `policy_action` by default),
    and returns them as float64 physical vectors. ``obs_n`` and ``act_n``
    keep the rows of the last call, in the order of its lanes, for callers
    that store the transitions. A lane missing from a call has stopped, and
    its window is dropped.
    """

    def __init__(self, agent: "Agent", obs_spec, act_spec, choose=None):
        if (agent.obs_dim, agent.act_dim) != (obs_spec.size, act_spec.size):
            raise FingerprintMismatchError(
                f"policy was built for {agent.obs_dim}/{agent.act_dim} "
                f"obs/act dims, environment provides "
                f"{obs_spec.size}/{act_spec.size}")
        self.obs_spec = obs_spec
        self.act_spec = act_spec
        self.choose = choose or (
            lambda windows, counts, _: agent.policy_action(windows, counts))
        self.window = RolloutWindow(agent.obs_dim, agent.cfg.seq_len, 0)
        self.lanes = []         # the lane of each window, ascending

    def reset(self, n: int) -> None:
        """One empty window for each of ``n`` lanes that begin together."""
        self.window.reset(n)
        self.lanes = list(range(n))

    def act_lanes(self, obs: list, lanes: list) -> list:
        if len(lanes) < len(self.lanes):
            self.window.keep(np.searchsorted(self.lanes, lanes))
            self.lanes = lanes
        self.obs_n = np.array([envcore.normalize_obs(o, self.obs_spec)
                               for o in obs])
        self.window.push(self.obs_n)
        self.act_n = self.choose(*self.window.arrays(), lanes)
        return [envcore.denormalize_action(a, self.act_spec)
                for a in self.act_n]


class RolloutWindow:
    """Rolling left-aligned observation windows of episodes that began
    together, one per lockstep lane, so all hold the same ``count`` of
    observations, followed by zeros until the window is full."""

    def __init__(self, obs_dim: int, seq_len: int, n: int):
        if seq_len < 1:
            raise SpecError("seq_len must be >= 1")
        self.obs_dim = obs_dim
        self.seq_len = seq_len
        self.reset(n)

    def reset(self, n: int) -> None:
        """``n`` empty windows."""
        self.buf = np.zeros((n, self.seq_len, self.obs_dim), dtype=np.float32)
        self.count = 0

    def push(self, obs_rows) -> None:
        """Append row i of ``obs_rows`` to window i."""
        if self.count < self.seq_len:
            self.buf[:, self.count] = obs_rows
            self.count += 1
        else:
            self.buf[:, :-1] = self.buf[:, 1:]
            self.buf[:, -1] = obs_rows

    def keep(self, rows) -> None:
        """Keep only the windows ``rows``, in that order."""
        self.buf = self.buf[rows]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (N, L, obs) windows, which the caller must not modify, and
        their (N,) observation counts, all the shared ``count``."""
        return self.buf, np.full(len(self.buf), self.count)


def seeded_episodes(make_env, seed: int):
    """Episode ``i``'s `EpisodeDriver` lane: the environment
    ``make_env(i)`` and the reset seed ``seed * 100_003 + i``."""
    return lambda i: (make_env(i), seed * 100_003 + i)


# ---------------------------------------------------------------------------
# training loops


@dataclass
class TrainSummary:
    """Per-epoch records plus the best evaluation seen (by avg_reward)."""

    records: list = field(default_factory=list)
    checkpoint_paths: list = field(default_factory=list)
    best_epoch: int | None = None
    best_eval: dict | None = None
    buffer: ReplayBuffer | None = None
    reset_seeds: list = field(default_factory=list)

    def consider(self, epoch: int, eval_metrics: dict | None):
        if not eval_metrics:
            return
        score = eval_metrics.get("avg_reward")
        if score is None:
            return
        if self.best_eval is None or score > self.best_eval["avg_reward"]:
            self.best_epoch = epoch
            self.best_eval = dict(eval_metrics)


@contextmanager
def _logged_divergence(log_path, seed: int):
    """Append one error row with the numeric diagnostics, then re-raise."""
    try:
        yield
    except DivergenceError as e:
        numeric = {k: v for k, v in e.diagnostics.items()
                   if isinstance(v, (int, float))}
        if log_path is not None:
            container.append_jsonl(log_path, {"error": str(e), "seed": seed,
                                               "diagnostics": numeric})
        raise


def _mean_of(rows: list[dict]) -> dict:
    keys = set().union(*rows)
    return {k: float(np.mean([r[k] for r in rows if k in r])) for k in keys}


def _finish_epoch(agent, summary, epoch, step, epoch_infos, eval_fn,
                  checkpoint_dir, log_path, t0):
    eval_metrics = eval_fn(agent, epoch) if eval_fn is not None else None
    if checkpoint_dir is not None:
        ckpt = Path(checkpoint_dir) / f"epoch_{epoch:04d}.ckpt"
        agent.save(ckpt, epoch=epoch, step=step)
        summary.checkpoint_paths.append(str(ckpt))
    row = {
        "epoch": epoch,
        "step": step,
        "seed": agent.cfg.seed,
        "wall_s": round(time.perf_counter() - t0, 3),
        "losses": _mean_of(epoch_infos),
    }
    if eval_metrics is not None:
        row["eval"] = {k: (float(v) if isinstance(v, (int, float))
                           and not isinstance(v, bool) else v)
                       for k, v in eval_metrics.items()}
    summary.records.append(row)
    if log_path is not None:
        container.append_jsonl(log_path, row)
    summary.consider(epoch, eval_metrics)


def _train(agent, next_batch, summary, eval_fn, checkpoint_dir, log_path
           ) -> TrainSummary:
    """The one epoch loop behind `train_offline` and `train_online`.

    Runs cfg.train_steps steps; step ``k`` updates the agent on
    ``next_batch(k)`` unless that is None.  Every cfg.epoch_steps steps,
    and after the last one, it checkpoints, optionally evaluates, and
    appends one JSON line to the log.  train_steps == 0 just writes the
    initialized policy (epoch 0) so downstream tooling has a checkpoint.
    """
    cfg = agent.cfg
    t0 = time.perf_counter()
    epoch_infos: list[dict] = []
    if cfg.train_steps == 0:
        _finish_epoch(agent, summary, 0, 0, epoch_infos, eval_fn,
                      checkpoint_dir, log_path, t0)
        return summary
    with _logged_divergence(log_path, cfg.seed):
        for step in range(1, cfg.train_steps + 1):
            batch = next_batch(step)
            if batch is not None:
                epoch_infos.append(agent.update(batch))
            if step % cfg.epoch_steps == 0 or step == cfg.train_steps:
                epoch = (step + cfg.epoch_steps - 1) // cfg.epoch_steps
                _finish_epoch(agent, summary, epoch, step, epoch_infos,
                              eval_fn, checkpoint_dir, log_path, t0)
                epoch_infos = []
    return summary


def train_offline(agent: Agent, data: ReplayView, *, eval_fn=None,
                  checkpoint_dir=None, log_path=None) -> TrainSummary:
    """Gradient-step training on a fixed dataset: each `_train` step
    samples one batch of cfg.batch_size windows from ``data``."""
    cfg = agent.cfg
    return _train(agent, lambda step: data.sample_batch(
        cfg.batch_size, cfg.seq_len, agent.rng), TrainSummary(),
        eval_fn, checkpoint_dir, log_path)


def train_online(agent: Agent, make_env, *, start_steps: int = 1000,
                 eval_fn=None, checkpoint_dir=None, log_path=None
                 ) -> TrainSummary:
    """Classic off-policy online training against a live environment.

    `make_env(episode_index)` supplies the environment for each episode, so
    callers can rotate weather conditions between episodes.  Each episode
    is an `EpisodeDriver` batch of one, since the policy learns between its
    steps, and each `_train` step is one driver step of the agent's
    `PolicyController`, stored in the replay buffer, then one update once
    the warmup of uniform-random actions has filled it.  The buffer holds
    every step of the run, cfg.train_steps normalized observations and
    actions, with episode ends as terminal steps; it and the episodes'
    reset seeds are returned on the summary.
    """
    cfg = agent.cfg
    draws = itertools.count(1)      # choose runs once per step

    def choose(windows, counts, lanes):
        if next(draws) <= start_steps:
            return agent.rng.uniform(-1.0, 1.0, size=(len(lanes), agent.act_dim)
                                     ).astype(np.float32)
        return agent.explore_action(windows, counts)

    first = make_env(0)     # rotated environments keep its specs
    controller = PolicyController(agent, first.obs_spec, first.act_spec,
                                  choose)
    episodes = seeded_episodes(make_env, cfg.seed)
    buffer = ReplayBuffer(agent.obs_dim, agent.act_dim, cfg.train_steps)
    summary = TrainSummary(buffer=buffer)
    update_after = max(start_steps, cfg.batch_size)
    driver = None

    def next_batch(step):
        nonlocal driver
        if driver is None or not driver.running:
            env, seed = episodes(len(summary.reset_seeds))
            summary.reset_seeds.append(seed)
            driver = EpisodeDriver([(env, seed)], controller)
        ((_, _, _, reward, done, _, fault),) = driver.step()
        if fault is not None:
            raise fault
        buffer.add(controller.obs_n[0], controller.act_n[0], reward, done)
        if step > update_after:
            return buffer.sample_batch(cfg.batch_size, cfg.seq_len, agent.rng)
        return None

    return _train(agent, next_batch, summary, eval_fn, checkpoint_dir,
                  log_path)
