"""Reverse-mode autodiff over contiguous numpy buffers.

Tensors default to float32 (the training substrate); ops preserve float64
inputs so gradient checks can run the identical graph at high precision.
Graphs are per-loss tapes: build forward, call `backward(loss)`, read
`.grad` off the leaves.

Gradient arrays are never written in place. A tensor's first gradient
contribution is stored as it arrives, possibly shared with another tensor,
and later contributions replace it with a new sum; so code that reads a
`.grad` must not write into it. The exceptions are internal to the fused
nodes (`mlp`, `encoder_block`): arrays that never leave a node, such as
hidden activations and the gradients between its stages, are overwritten
in place once spent.

Each fused node is bit-identical to the graph of single-op nodes it
replaces, for values and gradients. Its forward and backward passes are
array-level helpers (`_mlp_data`/`_mlp_grads` and so on), so
`encoder_block` composes the same code the smaller nodes run. The forward
helpers also take caller-owned buffers: the tape-free acting path
(`layers.HistoryEncoder.rows`, `layers.MLP.rows`) runs them on buffers
it reuses from call to call.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import SpecError

_grad_enabled = True


class no_grad:
    """Disable tape recording inside the block (targets, rollouts)."""

    def __enter__(self):
        global _grad_enabled
        self.prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self.prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        # a float32 or float64 ndarray is taken as it is
        if type(data) is not np.ndarray or data.dtype.char not in "fd":
            if isinstance(data, (np.ndarray, np.floating)):
                data = np.asarray(data)
                if data.dtype not in (np.float32, np.float64):
                    data = data.astype(np.float32)
            else:
                data = np.asarray(data, dtype=np.float32)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self, seed_grad=None) -> None:
        backward(self, seed_grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if type(x) is Tensor else Tensor(x)


def parameter(data) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    arr = np.asarray(data, dtype=np.float32)
    return Tensor(arr, requires_grad=True)


def _make(data, parents, backward):
    if not _grad_enabled or not any(p.requires_grad for p in parents):
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=parents, backward=backward)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # cast after adding, so a float64 contribution is rounded only once
    grad = g if t.grad is None else t.grad + g
    t.grad = grad.astype(t.data.dtype, copy=False)


def backward(loss: Tensor, seed_grad=None) -> None:
    """Backpropagate from a scalar (or seeded) tensor through the tape."""
    if not loss.requires_grad:
        raise SpecError("backward() on a tensor that does not require grad")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    if seed_grad is None:
        if loss.data.size != 1:
            raise SpecError("backward() without seed gradient requires a scalar loss")
        loss.grad = np.ones_like(loss.data)
    else:
        loss.grad = np.asarray(seed_grad, dtype=loss.data.dtype)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
        # free the tape as we go; leaves keep their grads
        if node._parents:
            node.grad = None
            node._parents = ()
            node._backward = None


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bwd)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        _accumulate(a, g * c)

    return _make(a.data * a.data.dtype.type(c), (a,), bwd)


def _affine_data(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                 out=None) -> np.ndarray:
    """x @ w + b, computed in ``out`` when it is given, and returned.

    The bias is added in the product's buffer unless it is the wider
    dtype: an in-place add into float32 would round a float64 bias."""
    out = np.matmul(x, w, out)
    if b.dtype.itemsize > out.dtype.itemsize:
        return out + b
    out += b
    return out


def _affine_param_grads(x: np.ndarray, w: Tensor, b: Tensor, g: np.ndarray) -> None:
    if w.requires_grad:
        if x.ndim == 2:
            _accumulate(w, x.T @ g)
        else:
            k = x.shape[-1]
            _accumulate(w, x.reshape(-1, k).T @ g.reshape(-1, g.shape[-1]))
    if b.requires_grad:
        _accumulate(b, g.reshape(-1, g.shape[-1]).sum(axis=0))


def affine(x, w, b) -> Tensor:
    """x @ w + b with 2-D or 3-D x; fused to keep the tape short."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        _affine_param_grads(x.data, w, b, g)

    return _make(_affine_data(x.data, w.data, b.data), (x, w, b), bwd)


def _mlp_data(x: np.ndarray, layers, out=None) -> tuple[np.ndarray, list]:
    """`mlp`'s forward on arrays: the output and each layer's input, all
    but the first owned by the caller. ``out``, when given, holds one
    buffer per layer for that layer's output."""
    inputs = [x]
    h = x
    if out is None:
        out = (None,) * len(layers)
    for (w, b), buf in zip(layers[:-1], out):
        h = _affine_data(h, w.data, b.data, buf)
        np.maximum(h, 0, out=h)
        inputs.append(h)
    w, b = layers[-1]
    return _affine_data(h, w.data, b.data, out[-1]), inputs


def _mlp_grads(g: np.ndarray, inputs: list, layers, need_dx: bool):
    """`mlp`'s backward: accumulates the parameter gradients and returns the
    input gradient, or None without ``need_dx``. Writes each layer's input
    gradient into that layer's spent input activation."""
    for (w, b), inp in zip(reversed(layers[1:]), reversed(inputs[1:])):
        _affine_param_grads(inp, w, b, g)
        mask = inp > 0
        if w.data.shape[1] == 1:
            np.multiply(g, w.data.T, out=inp)   # a K=1 product, no gemm
        else:
            np.matmul(g, w.data.T, out=inp)
        inp *= mask
        g = inp
    w, b = layers[0]
    _affine_param_grads(inputs[0], w, b, g)
    return g @ w.data.T if need_dx else None


def mlp(x, layers) -> Tensor:
    """ReLU stack as one tape node: `affine` then `relu` for every (w, b)
    pair but the last, which stays affine.

    Values and gradients are bit-identical to the composed graph. The
    hidden activations live only inside the node, so the backward pass
    writes each layer's input gradient into that layer's spent input
    activation instead of allocating a new array.
    """
    x = as_tensor(x)
    layers = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    out_data, inputs = _mlp_data(x.data, layers)

    def bwd(g):
        dx = _mlp_grads(g, inputs, layers, x.requires_grad)
        if dx is not None:
            _accumulate(x, dx)

    parents = (x,) + tuple(t for pair in layers for t in pair)
    return _make(out_data, parents, bwd)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def bwd(g):
        _accumulate(x, g * (1.0 - out_data * out_data))

    return _make(out_data, (x,), bwd)


def exp(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.exp(x.data)

    def bwd(g):
        _accumulate(x, g * out_data)

    return _make(out_data, (x,), bwd)


def softplus(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.logaddexp(x.data.dtype.type(0), x.data)

    def bwd(g):
        _accumulate(x, g / (1.0 + np.exp(-x.data)))

    return _make(out_data, (x,), bwd)


def square(x) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        _accumulate(x, g * (2.0 * x.data))

    return _make(x.data * x.data, (x,), bwd)


def clip(x, lo: float, hi: float) -> Tensor:
    """Hard clamp; gradient passes through only inside [lo, hi]."""
    x = as_tensor(x)
    out_data = np.clip(x.data, lo, hi)

    def bwd(g):
        _accumulate(x, g * ((x.data >= lo) & (x.data <= hi)))

    return _make(out_data, (x,), bwd)


def minimum(a, b) -> Tensor:
    """Elementwise min; gradient routes to whichever input is smaller."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data
    out_data = np.where(take_a, a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * take_a, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * ~take_a, b.data.shape))

    return _make(out_data, (a, b), bwd)


def _softmax_data(logits: np.ndarray, axis: int, out=None,
                  red=None) -> np.ndarray:
    """Softmax along ``axis``; ``out=logits`` computes it in place, and
    ``red``, shaped as a keepdims reduction over ``axis``, takes the
    row maxima and then the row sums."""
    out = np.subtract(logits, np.maximum.reduce(logits, axis, None, red, True),
                      out)
    np.exp(out, out)
    out /= np.add.reduce(out, axis, None, red, True)
    return out


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    inner = np.add.reduce(g * out, axis=axis, keepdims=True)
    return (g - inner) * out


def _attention_buffers(b: int, n: int, d: int, heads: int, dtype) -> tuple:
    """Fresh buffers for `_attention_data` on b windows of n slots, in its
    order: the (b, heads, ...) arrays that receive q, k^T and v split per
    head, their (b * heads, ...) views, the scores, their row reductions,
    the per-head outputs, those outputs and the merged output as
    (b, n, heads, d / heads) views, and the merged (b, n, d) output."""
    h, hs, e = heads, d // heads, np.empty
    qh, kt, vh = (e((b, h, n, hs), dtype), e((b, h, hs, n), dtype),
                  e((b, h, n, hs), dtype))
    ctx, merged = e((b * h, n, hs), dtype), e((b, n, d), dtype)
    return (qh, kt, vh, qh.reshape(b * h, n, hs), kt.reshape(b * h, hs, n),
            vh.reshape(b * h, n, hs), e((b * h, n, n), dtype),
            e((b * h, n, 1), dtype), ctx, ctx.reshape(b, h, n, hs).swapaxes(1, 2),
            merged.reshape(b, n, h, hs), merged)


def _attention_data(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
                    bias: np.ndarray, out=None) -> tuple[np.ndarray, tuple]:
    """Multi-head scaled dot-product attention, the core of `encoder_block`:
    the merged output and the arrays `_attention_grads` reads.

    ``q``, ``k`` and ``v`` are (batch, seq, feat) projections; ``bias`` is an
    additive (batch * heads, seq, seq) score mask, 0 where a key is visible
    and -1e9 where it is not. Each head takes its slice of ``feat`` and
    computes ``softmax(q k^T / sqrt(feat / heads) + bias) v``; the heads are
    merged back to (batch, seq, feat). ``bias`` is added into the score
    buffer, so it must not need a wider dtype than the scores. ``out`` is
    the `_attention_buffers` tuple to compute in, fresh ones by default.

    Every array reaches numpy in the layout the composed graph of
    `reshape`, `swapaxes`, `matmul`, `scale` and `softmax` gives it,
    because the strides decide whether a matmul runs through BLAS or
    numpy's own loop; so values and gradients are bit-identical to it."""
    b, n, d = q.shape
    hs = d // heads
    (qs, kts, vs, qh, kt, vh, scores, red, ctx, ctx_split, merged_split,
     merged) = out or _attention_buffers(b, n, d, heads, q.dtype)
    split = (b, n, heads, hs)
    np.copyto(qs, q.reshape(split).swapaxes(1, 2))
    np.copyto(kts, k.reshape(split).transpose(0, 2, 3, 1))
    np.copyto(vs, v.reshape(split).swapaxes(1, 2))
    np.matmul(qh, kt, scores)
    # math.sqrt rounds as np.sqrt does, without a ufunc call on a scalar;
    # the scores' dtype rounds the Python float as `scale` rounds its constant
    scores *= 1.0 / math.sqrt(hs)
    scores += bias
    attn = _softmax_data(scores, -1, scores, red)
    np.matmul(attn, vh, ctx)
    np.copyto(merged_split, ctx_split)
    return merged, (qh, kt, vh, attn)


def _attention_grads(g: np.ndarray, saved: tuple, heads: int) -> tuple:
    """`_attention_data`'s backward: the q, k and v gradients."""
    qh, kt, vh, attn = saved
    bh, n, hs = qh.shape
    b, h, d = bh // heads, heads, hs * heads

    def merged(a):   # the split's backward: (b*h, n, hs) -> (b, n, d)
        return a.reshape(b, h, n, hs).swapaxes(1, 2).reshape(b, n, d)

    gh = g.reshape(b, n, h, hs).swapaxes(1, 2).reshape(b * h, n, hs)
    dattn = gh @ vh.swapaxes(-1, -2)
    # `scale`'s backward multiplied by the float64 constant, and
    # `_accumulate` rounded that product back to the input dtype
    dscores = (_softmax_grad(dattn, attn, -1) * (1.0 / np.sqrt(hs))
               ).astype(attn.dtype, copy=False)
    dq = merged(dscores @ kt.swapaxes(-1, -2))
    dk = merged((qh.swapaxes(-1, -2) @ dscores).swapaxes(1, 2))
    dv = merged(attn.swapaxes(-1, -2) @ gh)
    return dq, dk, dv


def _mean_last(a: np.ndarray, out=None) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)``, bit for bit, without the Python
    wrapper that costs about as much as the arithmetic on small rows."""
    m = np.add.reduce(a, -1, None, out, True)
    m /= a.shape[-1]
    return m


def _layer_norm_data(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                     eps: float, out=None, keep: bool = True,
                     tmp=None) -> tuple:
    """A layer norm's forward on arrays (the last axis to zero mean and
    unit variance, then ``gain`` and ``bias``): the output, the normalized
    input and the inverse standard deviation. ``out=x`` normalizes in x's
    buffer; ``keep=False`` then writes the output over the normalized input
    too, for a caller that runs no backward pass. ``tmp``, when given, is
    scratch the caller owns: an array shaped as x for the squared
    deviations and one shaped as x's mean over the last axis, which
    receives the mean and then the inverse standard deviation."""
    sq, small = tmp or (None, None)
    xhat = np.subtract(x, _mean_last(x, small), out)
    # 1 / sqrt(var + eps), where var is what `np.var` computes: the mean of
    # the squared deviations
    inv_std = _mean_last(np.multiply(xhat, xhat, sq), small)
    inv_std += eps
    np.sqrt(inv_std, inv_std)
    np.divide(1.0, inv_std, inv_std)
    xhat *= inv_std
    # gain and bias are applied in place unless they are the wider dtype,
    # as in `_affine_data`
    if keep or gain.dtype.itemsize > xhat.dtype.itemsize:
        out = gain * xhat
    else:
        out = np.multiply(xhat, gain, xhat)
    if bias.dtype.itemsize > out.dtype.itemsize:
        return bias + out, xhat, inv_std
    out += bias
    return out, xhat, inv_std


def _layer_norm_grads(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                      gain: Tensor, bias: Tensor, need_dx: bool):
    """A layer norm's backward: accumulates the gain and bias gradients and
    returns the input gradient, or None without ``need_dx``."""
    if gain.requires_grad:
        _accumulate(gain, (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0))
    if bias.requires_grad:
        _accumulate(bias, g.reshape(-1, g.shape[-1]).sum(axis=0))
    if not need_dx:
        return None
    # inv_std * (gx - mean(gx) - xhat * mean(gx * xhat)), in gx's buffer
    gx = g * gain.data
    t = gx * xhat
    m = _mean_last(t)
    gx -= _mean_last(gx)
    gx -= np.multiply(xhat, m, out=t)
    gx *= inv_std
    return gx


def _block_buffers(b: int, n: int, d: int, heads: int, hidden: int,
                   dtype) -> tuple:
    """Buffers for `_encoder_block_data` on b windows of n slots: the q, k
    and v projections, the `_attention_buffers`, the attention's output
    projection, the layer norms' scratch and the feed-forward's hidden
    layer."""
    e = np.empty
    return (e((b, n, d), dtype), e((b, n, d), dtype), e((b, n, d), dtype),
            _attention_buffers(b, n, d, heads, dtype), e((b, n, d), dtype),
            (e((b, n, d), dtype), e((b, n, 1), dtype)),
            e((b, n, hidden), dtype))


def _encoder_block_data(x: np.ndarray, weights, heads: int, bias: np.ndarray,
                        eps: float = 1e-5, keep: bool = True, bufs=None,
                        out=None) -> tuple:
    """`encoder_block`'s forward on arrays: the output and the arrays its
    backward pass reads, in the order ``(att, attention arrays, xhat1,
    inv1, feed-forward inputs, xhat2, inv2)``. ``keep`` is as in
    `_layer_norm_data`.

    ``bufs`` is the `_block_buffers` tuple to compute in, for a caller that
    runs no backward pass (the layer norms share their scratch); fresh
    arrays by default. ``out`` is the buffer for the output, and may be
    ``x`` itself."""
    wq, bq, wk, bk, wv, bv, wo, bo, g1, c1, w1, b1, w2, b2, g2, c2 = weights
    q, k, v, attn, r1, tmp, h1 = bufs or (None,) * 7
    att, saved = _attention_data(_affine_data(x, wq.data, bq.data, q),
                                 _affine_data(x, wk.data, bk.data, k),
                                 _affine_data(x, wv.data, bv.data, v),
                                 heads, bias, attn)
    # a residual sum is computed from its skip input, so its dtype already
    # holds that input's: the skip input is added in place
    r1 = _affine_data(att, wo.data, bo.data, r1)
    r1 += x
    y1, xhat1, inv1 = _layer_norm_data(r1, g1.data, c1.data, eps, out=r1,
                                       keep=keep, tmp=tmp)
    r2, inputs = _mlp_data(y1, ((w1, b1), (w2, b2)), bufs and (h1, out))
    r2 += y1
    y2, xhat2, inv2 = _layer_norm_data(r2, g2.data, c2.data, eps, out=r2,
                                       keep=keep, tmp=tmp)
    return y2, (att, saved, xhat1, inv1, inputs, xhat2, inv2)


def encoder_block(x, weights, heads: int, bias: np.ndarray,
                  eps: float = 1e-5) -> Tensor:
    """A post-norm transformer encoder block as one tape node:

        y = layer_norm(x + affine(attention(xq, xk, xv), wo, bo), g1, c1)
        out = layer_norm(y + mlp(y, [(w1, b1), (w2, b2)]), g2, c2)

    where ``xq = affine(x, wq, bq)`` and likewise for k and v. ``weights``
    holds the 16 parameter tensors in the order wq, bq, wk, bk, wv, bv, wo,
    bo, g1, c1, w1, b1, w2, b2, g2, c2; ``attention``, ``heads`` and
    ``bias`` are as in `_attention_data`.

    Values and gradients are bit-identical to that composed graph. The
    forward pass is `_encoder_block_data`. The backward pass replays the
    tape's order: the block input's gradient is the residual's
    contribution, then the q, k and v projections' ones, each added with
    `_accumulate`. Intermediate buffers belong to the node, so residual
    sums and normalizations are computed in place.
    """
    x = as_tensor(x)
    wq, bq, wk, bk, wv, bv, wo, bo, g1, c1, w1, b1, w2, b2, g2, c2 = weights
    # without a tape the normalized inputs are spent as soon as they are read
    keep = _grad_enabled and (x.requires_grad
                              or any(w.requires_grad for w in weights))
    proj = ((wq, bq), (wk, bk), (wv, bv))
    ff = [(w1, b1), (w2, b2)]
    xd = x.data
    out_data, (att, saved, xhat1, inv1, inputs, xhat2, inv2) = (
        _encoder_block_data(xd, weights, heads, bias, eps, keep))

    def bwd(g):
        g = _layer_norm_grads(g, xhat2, inv2, g2, c2, True)
        # the residual's contribution reaches y first, then the mlp's
        gy = _mlp_grads(g, inputs, ff, True)
        gy += g
        g = _layer_norm_grads(gy, xhat1, inv1, g1, c1, True)
        if x.requires_grad:
            _accumulate(x, g)
        datt = g @ wo.data.T
        _affine_param_grads(att, wo, bo, g)
        for (w, b), gp in zip(proj, _attention_grads(datt, saved, heads)):
            if x.requires_grad:
                _accumulate(x, gp @ w.data.T)
            _affine_param_grads(xd, w, b, gp)

    return _make(out_data, (x, *weights), bwd)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                _accumulate(t, piece)

    return _make(out_data, tuple(tensors), bwd)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    in_shape = x.data.shape

    def bwd(g):
        _accumulate(x, g.reshape(in_shape))

    return _make(x.data.reshape(shape), (x,), bwd)


def index_select(x, index) -> Tensor:
    """Rows x[index[b]] along axis 0; used to repeat embeddings per sample."""
    x = as_tensor(x)
    index = np.asarray(index)

    def bwd(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, index, g)
        _accumulate(x, buf)

    return _make(x.data[index], (x,), bwd)


def take_per_row(x, index) -> Tensor:
    """out[b] = x[b, index[b], :] for a 3-D input (readout at a position)."""
    x = as_tensor(x)
    index = np.asarray(index)
    rows = np.arange(x.data.shape[0])

    def bwd(g):
        buf = np.zeros_like(x.data)
        buf[rows, index] = g
        _accumulate(x, buf)

    return _make(x.data[rows, index], (x,), bwd)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    x = as_tensor(x)
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def bwd(g):
        buf = np.zeros_like(x.data)
        buf[sl] = g
        _accumulate(x, buf)

    return _make(np.ascontiguousarray(x.data[sl]), (x,), bwd)


def sum_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(gg, x.data.shape).copy())

    return _make(out_data, (x,), bwd)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.mean(axis=axis, keepdims=keepdims)
    n = x.data.size if axis is None else x.data.shape[axis]

    def bwd(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g / n, x.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(gg / n, x.data.shape).copy())

    return _make(out_data, (x,), bwd)


def mse(a, b) -> Tensor:
    return mean(square(sub(a, b)))
