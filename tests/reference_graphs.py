"""Reference graphs for the fused tape nodes, and the single-op nodes that
only those references use.

`matmul`, `relu`, `log`, `softmax` and `swapaxes` are tape ops that no
program code needs; they stay here so the tests can compose the graphs
each fused node (`T.mlp`, `T.encoder_block`) must reproduce bit for bit.
"""
import numpy as np

from hvacrl.errors import SpecError
from hvacrl.neuralsub import tensor as T
from hvacrl.neuralsub.tensor import (Tensor, _accumulate, _make, _softmax_data,
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
    composed from `affine`, `add`, `layer_norm` and the references above."""
    wq, bq, wk, bk, wv, bv, wo, bo, g1, c1, w1, b1, w2, b2, g2, c2 = weights
    att = composed_attention(T.affine(x, wq, bq), T.affine(x, wk, bk),
                             T.affine(x, wv, bv), heads, bias)
    y = T.layer_norm(T.add(x, T.affine(att, wo, bo)), g1, c1)
    return T.layer_norm(T.add(y, composed_mlp(y, [(w1, b1), (w2, b2)])),
                        g2, c2)


def causal_bias(valid, heads):
    """The (batch * heads, n, n) score mask of left-aligned windows."""
    n = valid.shape[1]
    visible = np.tril(np.ones((n, n), dtype=bool))[None] & valid[:, None, :]
    return np.repeat(np.where(visible, 0.0, -1e9).astype(np.float32), heads,
                     axis=0)
