"""Reverse-mode autodiff over contiguous numpy buffers.

Tensors default to float32 (the training substrate); ops preserve float64
inputs so gradient checks can run the identical graph at high precision.
Graphs are per-loss tapes: build forward, call `backward(loss)`, read
`.grad` off the leaves.

Gradient arrays are never written in place. A tensor's first gradient
contribution is stored as it arrives, possibly shared with another tensor,
and later contributions replace it with a new sum; so code that reads a
`.grad` must not write into it. The one exception is internal to `mlp`:
its hidden activations never leave the node, so its backward pass
overwrites each spent activation buffer with that layer's gradient.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import SpecError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (targets, rollouts)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self, seed_grad=None) -> None:
        backward(self, seed_grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    arr = np.asarray(data, dtype=np.float32)
    return Tensor(arr, requires_grad=True)


def _make(data, parents, backward):
    needs = _grad_enabled and any(p.requires_grad for p in parents)
    if not needs:
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


def _affine_data(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, adding the bias in the product's buffer when the dtypes
    agree (an in-place add into float32 would round a float64 bias)."""
    out = x @ w
    if out.dtype != b.dtype:
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
    inputs = [x.data]          # each layer's input; all but the first are owned
    h = x.data
    for w, b in layers[:-1]:
        h = _affine_data(h, w.data, b.data)
        np.maximum(h, 0, out=h)
        inputs.append(h)
    w, b = layers[-1]
    out_data = _affine_data(h, w.data, b.data)

    def bwd(g):
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
        _affine_param_grads(x.data, w, b, g)
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)

    parents = (x,) + tuple(t for pair in layers for t in pair)
    return _make(out_data, parents, bwd)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0)

    def bwd(g):
        _accumulate(x, g * (out_data > 0))

    return _make(out_data, (x,), bwd)


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


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0):
        raise SpecError("log() of non-positive values")
    out_data = np.log(x.data)

    def bwd(g):
        _accumulate(x, g / x.data)

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


def _softmax_data(logits: np.ndarray, axis: int) -> np.ndarray:
    out = logits - logits.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    inner = (g * out).sum(axis=axis, keepdims=True)
    return (g - inner) * out


def softmax(x, axis: int = -1, mask_bias=None) -> Tensor:
    """Softmax along `axis`; `mask_bias` is an additive constant (e.g. -1e9)."""
    x = as_tensor(x)
    out_data = _softmax_data(x.data if mask_bias is None else x.data + mask_bias,
                             axis)

    def bwd(g):
        _accumulate(x, _softmax_grad(g, out_data, axis))

    return _make(out_data, (x,), bwd)


def attention(q, k, v, heads: int, bias: np.ndarray) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    ``q``, ``k`` and ``v`` are (batch, seq, feat) projections; ``bias`` is an
    additive (batch * heads, seq, seq) score mask, 0 where a key is visible
    and -1e9 where it is not. Each head takes its slice of ``feat`` and
    computes ``softmax(q k^T / sqrt(feat / heads) + bias) v``; the heads are
    merged back to (batch, seq, feat).

    Values and gradients are bit-identical to the composed graph of
    `reshape`, `swapaxes`, `matmul`, `scale` and `softmax`. Every array
    reaches numpy in the layout that graph gives it, because the strides
    decide whether a matmul runs through BLAS or numpy's own loop.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    b, n, d = q.data.shape
    h, hs = heads, d // heads
    c = 1.0 / np.sqrt(hs)   # a float64 scalar, as `scale` receives it

    def split(a):   # (b, n, d) -> (b*h, n, hs)
        return np.ascontiguousarray(
            a.reshape(b, n, h, hs).swapaxes(1, 2)).reshape(b * h, n, hs)

    def merged_grad(g):   # the split's backward: (b*h, n, hs) -> (b, n, d)
        return g.reshape(b, h, n, hs).swapaxes(1, 2).reshape(b, n, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    kt = np.ascontiguousarray(kh.swapaxes(1, 2))
    scores = qh @ kt
    dtype = scores.dtype
    scores *= dtype.type(c)
    attn = _softmax_data(scores + bias, -1)
    out_data = np.ascontiguousarray(
        (attn @ vh).reshape(b, h, n, hs).swapaxes(1, 2)).reshape(b, n, d)

    def bwd(g):
        gh = g.reshape(b, n, h, hs).swapaxes(1, 2).reshape(b * h, n, hs)
        if q.requires_grad or k.requires_grad:
            dattn = gh @ vh.swapaxes(-1, -2)
            # `scale`'s backward multiplied by the float64 constant, and
            # `_accumulate` rounded that product back to the input dtype
            dscores = (_softmax_grad(dattn, attn, -1) * c).astype(
                dtype, copy=False)
            if q.requires_grad:
                _accumulate(q, merged_grad(dscores @ kt.swapaxes(-1, -2)))
            if k.requires_grad:
                dkt = qh.swapaxes(-1, -2) @ dscores
                _accumulate(k, merged_grad(dkt.swapaxes(1, 2)))
        if v.requires_grad:
            _accumulate(v, merged_grad(attn.swapaxes(-1, -2) @ gh))

    return _make(out_data, (q, k, v), bwd)


def _mean_last(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)``, bit for bit, without the Python
    wrapper that costs about as much as the arithmetic on small rows."""
    return a.sum(axis=-1, keepdims=True) / a.shape[-1]


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    centred = x.data - _mean_last(x.data)
    # the variance `np.var` computes: the mean of the squared deviations
    inv_std = 1.0 / np.sqrt(_mean_last(centred * centred) + eps)
    xhat = centred * inv_std
    out_data = gain.data * xhat + bias.data

    def bwd(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, g.shape[-1]).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            dx = inv_std * (gx - _mean_last(gx) - xhat * _mean_last(gx * xhat))
            _accumulate(x, dx)

    return _make(out_data, (x, gain, bias), bwd)


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


def swapaxes(x, a1: int, a2: int) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        _accumulate(x, g.swapaxes(a1, a2))

    return _make(np.ascontiguousarray(x.data.swapaxes(a1, a2)), (x,), bwd)


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
