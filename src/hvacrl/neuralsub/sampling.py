"""Squashed-Gaussian action sampling with a numerically stable log-prob.

The log-density of a = tanh(u), u ~ N(mu, sigma^2), needs
log(1 - tanh(u)^2) which underflows for |u| > ~9 in float32. We use the
identity log(1 - tanh(u)^2) = 2 (log 2 - u - softplus(-2u)), which stays
finite for any u.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_LOG2 = np.log(2.0)


def sample_tanh_gaussian(mean: Tensor, log_std: Tensor,
                         rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """Reparameterized sample and its log-prob, both on the tape.

    mean, log_std: (batch, act) tensors. Returns (action in (-1, 1)^act,
    log-prob summed over action dims with shape (batch,)).
    """
    log_std = T.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)
    std = T.exp(log_std)
    noise = rng.standard_normal(size=mean.shape).astype(np.float32)
    u = T.add(mean, T.mul(std, noise))
    action = T.tanh(u)
    z = T.mul(T.sub(u, mean), T.exp(T.scale(log_std, -1.0)))
    log_gauss = T.scale(T.add(T.add(T.scale(T.square(z), 0.5), log_std),
                              _HALF_LOG_2PI), -1.0)
    # change of variables: subtract log|d tanh / du| per dimension
    log_det = T.scale(T.sub(T.sub(T.scale(u, -1.0), T.softplus(T.scale(u, -2.0))),
                            -_LOG2), 2.0)
    log_prob = T.sum_(T.sub(log_gauss, log_det), axis=-1)
    return action, log_prob


def tanh_gaussian_action(mean: np.ndarray, log_std: np.ndarray,
                         rng: np.random.Generator,
                         deterministic: bool = False) -> np.ndarray:
    """The action `sample_tanh_gaussian` draws, in plain numpy (no tape and
    no log-prob): the same ops in the same order, the same noise draw.
    ``deterministic=True`` gives tanh(mean) and draws nothing."""
    if deterministic:
        return np.tanh(mean)
    std = np.exp(np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX))
    noise = rng.standard_normal(size=mean.shape).astype(np.float32)
    return np.tanh(mean + std * noise)

