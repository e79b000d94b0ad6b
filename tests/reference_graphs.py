"""Reference graphs for the fused tape nodes, the single-op nodes that
only those references use, and the other references that only tests call.

`matmul`, `relu`, `log`, `softmax`, `swapaxes` and `layer_norm` are tape
ops that no program code needs; they stay here so the tests can compose
the graphs each fused node (`T.mlp`, `T.encoder_block`) must reproduce bit
for bit. `sample_tanh_gaussian`, `tanh_gaussian_log_prob` and `window_at`
are the sampler's noise-free mode, a plain-numpy log-density and a
one-step window, which the tests check the program's versions against.
"""
import numpy as np

from hvacrl.errors import SpecError
from hvacrl.neuralsub import sampling
from hvacrl.neuralsub import tensor as T
from hvacrl.neuralsub.sampling import (_HALF_LOG_2PI, _LOG2, LOG_STD_MAX,
                                       LOG_STD_MIN)
from hvacrl.neuralsub.tensor import (Tensor, _accumulate, _layer_norm_data,
                                     _layer_norm_grads, _make, _softmax_data,
                                     _softmax_grad, as_tensor)


def matmul(a, b) -> Tensor:
    """2-D or batched 3-D matrix product (batch dims must match)."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            _accumulate(b, a.data.swapaxes(-1, -2) @ g)

    return _make(out_data, (a, b), bwd)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0)

    def bwd(g):
        _accumulate(x, g * (out_data > 0))

    return _make(out_data, (x,), bwd)


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0):
        raise SpecError("log() of non-positive values")
    out_data = np.log(x.data)

    def bwd(g):
        _accumulate(x, g / x.data)

    return _make(out_data, (x,), bwd)


def softmax(x, axis: int = -1, mask_bias=None) -> Tensor:
    """Softmax along `axis`; `mask_bias` is an additive constant (e.g. -1e9)."""
    x = as_tensor(x)
    out_data = _softmax_data(x.data if mask_bias is None else x.data + mask_bias,
                             axis)

    def bwd(g):
        _accumulate(x, _softmax_grad(g, out_data, axis))

    return _make(out_data, (x,), bwd)


def swapaxes(x, a1: int, a2: int) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        _accumulate(x, g.swapaxes(a1, a2))

    return _make(np.ascontiguousarray(x.data.swapaxes(a1, a2)), (x,), bwd)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine:
    the layer norm `T.encoder_block` runs twice per block."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    out_data, xhat, inv_std = _layer_norm_data(x.data, gain.data, bias.data,
                                               eps)

    def bwd(g):
        dx = _layer_norm_grads(g, xhat, inv_std, gain, bias, x.requires_grad)
        if dx is not None:
            _accumulate(x, dx)

    return _make(out_data, (x, gain, bias), bwd)



def composed_mlp(x, layers):
    """The reference graph `T.mlp` must reproduce bit for bit."""
    h = x
    for w, b in layers[:-1]:
        h = relu(T.affine(h, w, b))
    return T.affine(h, *layers[-1])


def composed_attention(q, k, v, heads, bias):
    """The encoder's attention composed from single-op nodes: the
    attention part of `composed_encoder_block`, which `T.encoder_block`
    runs as `T._attention_data` and `T._attention_grads`."""
    b, n, d = q.shape
    h, hs = heads, d // heads

    def split(t):
        t = T.reshape(t, (b, n, h, hs))
        t = swapaxes(t, 1, 2)
        return T.reshape(t, (b * h, n, hs))

    scores = T.scale(matmul(split(q), swapaxes(split(k), 1, 2)),
                     1.0 / np.sqrt(hs))
    attn = softmax(scores, axis=-1, mask_bias=bias)
    out = T.reshape(matmul(attn, split(v)), (b, h, n, hs))
    return T.reshape(swapaxes(out, 1, 2), (b, n, d))


def composed_encoder_block(x, weights, heads, bias):
    """The graph `T.encoder_block` must reproduce bit for bit: attention
    then feed-forward, each followed by a residual add and a layer norm,
    composed from `affine`, `add` and the references above."""
    wq, bq, wk, bk, wv, bv, wo, bo, g1, c1, w1, b1, w2, b2, g2, c2 = weights
    att = composed_attention(T.affine(x, wq, bq), T.affine(x, wk, bk),
                             T.affine(x, wv, bv), heads, bias)
    y = layer_norm(T.add(x, T.affine(att, wo, bo)), g1, c1)
    return layer_norm(T.add(y, composed_mlp(y, [(w1, b1), (w2, b2)])), g2, c2)


def causal_bias(counts, n, heads):
    """The (batch * heads, n, n) score mask of left-aligned windows of
    length n holding ``counts`` observations each, rebuilt per call."""
    valid = np.arange(n) < np.asarray(counts)[:, None]
    visible = np.tril(np.ones((n, n), dtype=bool))[None] & valid[:, None, :]
    return np.repeat(np.where(visible, 0.0, -1e9).astype(np.float32), heads,
                     axis=0)


class _NoNoise:
    """A generator stand-in whose normal draws are all zero."""

    @staticmethod
    def standard_normal(size):
        return np.zeros(size)


def sample_tanh_gaussian(mean, log_std, rng, deterministic=False):
    """`sampling.sample_tanh_gaussian`, with a noise-free mode that no
    program code takes: ``deterministic=True`` samples with zero noise, so
    the taped action is tanh(mean) and ``rng`` is not drawn from."""
    return sampling.sample_tanh_gaussian(mean, log_std,
                                         _NoNoise if deterministic else rng)


def tanh_gaussian_log_prob(mean, log_std, action):
    """Log-prob of a given squashed action under N(mean, exp(log_std)^2).

    Plain numpy (no tape); actions are clipped slightly inside (-1, 1)
    before inverting tanh.
    """
    a = np.clip(action, -1.0 + 1e-6, 1.0 - 1e-6)
    u = np.arctanh(a)
    log_std = np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)
    z = (u - mean) * np.exp(-log_std)
    log_gauss = -(0.5 * z * z + log_std + _HALF_LOG_2PI)
    log_det = 2.0 * (_LOG2 - u - np.logaddexp(0.0, -2.0 * u))
    return (log_gauss - log_det).sum(axis=-1)


def window_at(view, step, seq_len):
    """The window of ``view`` that ends at ``step``, and its observation
    count, as `ReplayView.sample_batch` would assemble them."""
    if not 0 <= step < len(view):
        raise SpecError("step out of range")
    windows, counts = view._assemble(np.asarray([step]), seq_len)
    return windows[0], int(counts[0])
