"""Actor and critic networks, flat or running on observation windows.

The actor and the critic each own a private window encoder; nothing is
shared between them, and the twin critics share one encoder trunk with two
value heads.  Each takes windows with their observation counts (see
`agents.replay`).  In flat mode the encoder is bypassed entirely and the
feature vector is the window's one observation.
"""
from __future__ import annotations

import numpy as np

from ..errors import SpecError
from ..neuralsub import tensor as T
from ..neuralsub.layers import MLP, EncoderConfig, HistoryEncoder, Module
from ..neuralsub.sampling import sample_tanh_gaussian, tanh_gaussian_action
from ..neuralsub.tensor import Tensor
from .config import AgentConfig


def _encoder_config(cfg: AgentConfig) -> EncoderConfig:
    return EncoderConfig(
        window=cfg.seq_len,
        feat=cfg.enc_feat,
        blocks=cfg.enc_blocks,
        heads=cfg.enc_heads,
        hidden=cfg.enc_hidden,
    )


class FlatEncoder(Module):
    """Bypass: the feature is the window's one observation (`AgentConfig`
    allows ``seq_len > 1`` only with history)."""

    def __init__(self, obs_dim: int):
        super().__init__()
        self.out_dim = obs_dim

    def __call__(self, windows: np.ndarray, counts: np.ndarray) -> Tensor:
        return Tensor(self.rows(windows, counts))

    def rows(self, windows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(windows[:, 0, :], dtype=np.float32)


def make_encoder(cfg: AgentConfig, obs_dim: int, rng) -> Module:
    if cfg.history:
        return HistoryEncoder(obs_dim, _encoder_config(cfg), rng)
    return FlatEncoder(obs_dim)


class TwinCritic(Module):
    """Two Q heads over a shared window encoder."""

    def __init__(self, cfg: AgentConfig, obs_dim: int, act_dim: int, rng):
        super().__init__()
        self.encoder = make_encoder(cfg, obs_dim, rng)
        width = self.encoder.out_dim
        self.q1_head = MLP([width + act_dim, cfg.hidden, cfg.hidden, 1], rng)
        self.q2_head = MLP([width + act_dim, cfg.hidden, cfg.hidden, 1], rng)

    def features(self, windows, counts) -> Tensor:
        return self.encoder(windows, counts)

    def heads(self, feat: Tensor, actions: Tensor, count: int = 2
              ) -> tuple[Tensor, ...]:
        """Q values of the first ``count`` heads, in head order, on features
        from `features`."""
        if actions.data.shape[0] != feat.data.shape[0]:
            raise SpecError("feature/action batch mismatch")
        return tuple(T.reshape(head(T.concat([feat, actions], axis=1)), (-1,))
                     for head in (self.q1_head, self.q2_head)[:count])


def _clip_unit(a: np.ndarray) -> np.ndarray:
    """``np.clip(a, -1, 1)`` in a's buffer, without the Python wrapper."""
    np.maximum(a, -1.0, out=a)
    return np.minimum(a, 1.0, out=a)


class DeterministicActor(Module):
    """tanh-squashed deterministic policy head (TD3 family)."""

    def __init__(self, cfg: AgentConfig, obs_dim: int, act_dim: int, rng):
        super().__init__()
        self.encoder = make_encoder(cfg, obs_dim, rng)
        self.head = MLP([self.encoder.out_dim, cfg.hidden, cfg.hidden, act_dim],
                        rng, final_gain=0.01)
        self.act_dim = act_dim

    def __call__(self, windows, counts) -> Tensor:
        return T.tanh(self.head(self.encoder(windows, counts)))

    def act(self, windows, counts):
        """The clipped action of each window alone: a lockstep rollout's
        action does not depend on how many episodes step with it."""
        a = np.tanh(self.head.rows(self.encoder.rows(windows, counts)))
        return _clip_unit(a)


class GaussianActor(Module):
    """tanh-Gaussian policy with state-dependent mean and log-std (SAC family)."""

    def __init__(self, cfg: AgentConfig, obs_dim: int, act_dim: int, rng):
        super().__init__()
        self.encoder = make_encoder(cfg, obs_dim, rng)
        self.head = MLP([self.encoder.out_dim, cfg.hidden, cfg.hidden,
                         2 * act_dim], rng, final_gain=0.01)
        self.act_dim = act_dim

    def dist_params(self, windows, counts):
        out = self.head(self.encoder(windows, counts))
        mean = T.narrow(out, 1, 0, self.act_dim)
        log_std = T.narrow(out, 1, self.act_dim, self.act_dim)
        return mean, log_std

    def sample(self, windows, counts, rng):
        return sample_tanh_gaussian(*self.dist_params(windows, counts), rng)

    def act(self, windows, counts, rng=None, deterministic: bool = True):
        """The clipped action of each window alone, as `DeterministicActor.act`
        gives it; ``deterministic=False`` samples it with ``rng``."""
        out = self.head.rows(self.encoder.rows(windows, counts))
        k = self.act_dim
        return _clip_unit(tanh_gaussian_action(out[:, :k], out[:, k:], rng,
                                               deterministic))
