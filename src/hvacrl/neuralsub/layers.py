"""Network building blocks on top of the tape: linears, MLPs, and a small
causal self-attention encoder that summarizes an observation window."""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..errors import SpecError
from . import tensor as T
from .tensor import Tensor


class Module:
    """Bare-bones parameter container with named flattening."""

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for key, value in vars(self).items():
            name = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            if isinstance(value, Tensor) and value.requires_grad:
                out.append((name, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(name))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{name}.{i}"))
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    @contextmanager
    def frozen(self):
        """Record no gradients for this module's parameters inside the block.

        Tape nodes that read only frozen parameters and constants are not
        recorded, and `backward` leaves the parameters' ``.grad`` alone.
        Put the `backward` call inside the block too: backward passes read
        ``requires_grad`` when they run.
        """
        params = self.parameters()   # empty once frozen, so capture them now
        for p in params:
            p.requires_grad = False
        try:
            yield
        finally:
            for p in params:
                p.requires_grad = True

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        if missing or extra:
            raise SpecError(f"parameter name mismatch: missing={sorted(missing)} "
                            f"extra={sorted(extra)}")
        for name, p in params.items():
            arr = np.asarray(arrays[name])
            if (arr.dtype, arr.shape) != (p.data.dtype, p.data.shape):
                raise SpecError(f"dtype or shape mismatch for {name}: "
                                f"{arr.dtype} {arr.shape} vs "
                                f"{p.data.dtype} {p.data.shape}")
            p.data[...] = arr

    def copy_from(self, other: "Module") -> None:
        for (_, dst), (_, src) in zip(self.named_parameters(),
                                      other.named_parameters()):
            dst.data[...] = src.data

    def polyak_from(self, other: "Module", tau: float) -> None:
        """dst <- (1 - tau) * dst + tau * src, in place."""
        for (_, dst), (_, src) in zip(self.named_parameters(),
                                      other.named_parameters()):
            dst.data *= (1.0 - tau)
            dst.data += tau * src.data


GROUP = 64   # windows per `rows` group: larger stacks outgrow the cache


class Workspace:
    """The buffers a module's `rows` reuses from call to call. It keeps the
    set of the last group size and dtype it served, so a forward at that
    size allocates no buffer, and frees that set before it builds another.
    It holds no reference to its module, so dropping the module frees the
    buffers at once."""

    def __init__(self):
        self.key = self.bufs = None

    def get(self, k: int, dtype, make) -> tuple:
        """The buffers ``make(k, dtype)`` builds for groups of k windows."""
        if (k, dtype) != self.key:
            self.key = self.bufs = None
            self.bufs, self.key = make(k, dtype), (k, dtype)
        return self.bufs


class Linear(Module):
    """y = x @ W + b with uniform(-1/sqrt(fan_in)) init."""

    def __init__(self, in_size: int, out_size: int, rng: np.random.Generator,
                 init_gain: float = 1.0):
        k = init_gain / np.sqrt(in_size)
        self.w = T.parameter(rng.uniform(-k, k, size=(in_size, out_size)))
        self.b = T.parameter(np.zeros(out_size))

    def __call__(self, x) -> Tensor:
        return T.affine(x, self.w, self.b)


class MLP(Module):
    """ReLU stack; the last layer is affine (no activation)."""

    def __init__(self, sizes: list[int], rng: np.random.Generator,
                 final_gain: float = 1.0):
        if len(sizes) < 2:
            raise SpecError("MLP needs at least an input and an output size")
        self.layers = [Linear(sizes[i], sizes[i + 1], rng,
                              init_gain=final_gain if i == len(sizes) - 2 else 1.0)
                       for i in range(len(sizes) - 1)]
        self.sizes = tuple(sizes)
        # the (w, b) pairs in `tensor.mlp`'s order; a tuple of tensors,
        # which `named_parameters` does not list a second time
        self._weights = tuple((layer.w, layer.b) for layer in self.layers)
        self._ws = Workspace()

    def __call__(self, x) -> Tensor:
        return T.mlp(x, self._weights)

    def _buffers(self, k: int, dtype) -> tuple:
        """`rows`' hidden layers for k rows."""
        return tuple(np.empty((k, 1, size), dtype) for size in self.sizes[1:-1])

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The forward pass of each row of the 2-D array ``x`` alone, on
        arrays and with no tape, as a fresh array. The rows run as (k, 1, F)
        stacks of at most `GROUP` rows, so each is the 1-row product of a
        batch of one: a 2-D (N, F) product rounds differently once N > 1.
        The hidden layers live in the module's `Workspace`."""
        if x.dtype.char not in "fd":   # as a `Tensor` takes it
            x = x.astype(np.float32)
        n = len(x)
        out = np.empty((n, 1, self.sizes[-1]), x.dtype)
        for s in range(0, n, GROUP):
            T._mlp_data(x[s:s + GROUP, None], self._weights,
                        (*self._ws.get(min(GROUP, n - s), x.dtype,
                                       self._buffers), out[s:s + GROUP]))
        return out[:, 0]


class LayerNorm(Module):
    """The gain and bias of a layer norm, which `tensor.encoder_block`
    applies."""

    def __init__(self, size: int):
        self.gain = T.parameter(np.ones(size))
        self.bias = T.parameter(np.zeros(size))


class SelfAttention(Module):
    """Projections of multi-head self-attention over a (batch, seq, feat)
    block; `EncoderBlock` runs them inside `tensor.encoder_block`."""

    def __init__(self, feat: int, heads: int, rng: np.random.Generator):
        if feat % heads != 0:
            raise SpecError(f"feature size {feat} not divisible by {heads} heads")
        self.heads = heads
        self.wq = Linear(feat, feat, rng)
        self.wk = Linear(feat, feat, rng)
        self.wv = Linear(feat, feat, rng)
        self.wo = Linear(feat, feat, rng)


class EncoderBlock(Module):
    """Attention then feed-forward, each with residual + layer norm after."""

    def __init__(self, feat: int, heads: int, hidden: int,
                 rng: np.random.Generator):
        self.attn = SelfAttention(feat, heads, rng)
        self.norm1 = LayerNorm(feat)
        self.ff1 = Linear(feat, hidden, rng)
        self.ff2 = Linear(hidden, feat, rng)
        self.norm2 = LayerNorm(feat)
        # the parameters in `tensor.encoder_block`'s order; a tuple of
        # tensors, which `named_parameters` does not list a second time
        a = self.attn
        self._weights = (a.wq.w, a.wq.b, a.wk.w, a.wk.b, a.wv.w, a.wv.b,
                         a.wo.w, a.wo.b, self.norm1.gain, self.norm1.bias,
                         self.ff1.w, self.ff1.b, self.ff2.w, self.ff2.b,
                         self.norm2.gain, self.norm2.bias)

    def __call__(self, x: Tensor, mask_bias: np.ndarray) -> Tensor:
        """``mask_bias`` is the additive score mask per (sample, head) pair,
        shaped (batch * heads, seq, seq); see `tensor._attention_data`."""
        return T.encoder_block(x, self._weights, self.attn.heads, mask_bias)


@dataclass(frozen=True)
class EncoderConfig:
    window: int = 20          # number of observation slots the encoder sees
    feat: int = 100           # embedding width per slot
    blocks: int = 2           # stacked attention blocks
    heads: int = 4            # attention heads per block
    hidden: int = 200         # feed-forward hidden width inside each block

    def __post_init__(self):
        if self.window < 1:
            raise SpecError("encoder window must be >= 1")
        if self.feat % self.heads != 0:
            raise SpecError("encoder feat must be divisible by heads")


class HistoryEncoder(Module):
    """Causal attention encoder that maps an observation window to one vector.

    Windows are left-aligned: a window of c observations holds them in
    slots 0..c-1, and the remaining slots are zero padding. Padding never
    influences the output because the key mask removes the padded slots
    and the readout is taken at slot c - 1.
    """

    def __init__(self, obs_size: int, cfg: EncoderConfig,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.out_dim = cfg.feat
        self.embed = Linear(obs_size, cfg.feat, rng)
        self.position = T.parameter(
            rng.normal(0.0, 0.02, size=(cfg.window, cfg.feat)))
        self.blocks = [EncoderBlock(cfg.feat, cfg.heads, cfg.hidden, rng)
                       for _ in range(cfg.blocks)]
        # a plain array, so neither a parameter nor a checkpoint entry:
        # `score_bias[c - 1]` is the (heads, window, window) attention mask
        # of a window of c observations, 0 where a key is causal (j <= i)
        # and holds real data and -1e9 elsewhere
        n = cfg.window
        prefix = np.tril(np.ones((n, n), dtype=bool))
        visible = prefix[None] & prefix[:, None, :]
        self.score_bias = np.repeat(
            np.where(visible, np.float32(0), np.float32(-1e9))[:, None],
            cfg.heads, axis=1)

        self._ws = Workspace()

    def _check(self, window: np.ndarray, counts: np.ndarray) -> tuple:
        b, n, _ = window.shape
        if n != self.cfg.window:
            raise SpecError(f"window length {n} != configured {self.cfg.window}")
        if counts.shape != (b,) or not all(1 <= c <= n
                                           for c in counts.tolist()):
            raise SpecError(f"counts must be {b} values in 1..{n}")
        return b, n

    def __call__(self, window: np.ndarray, counts: np.ndarray) -> Tensor:
        """window: (batch, window, obs); counts: (batch,) ints, the number
        of observations in each window, from 1 to the window length."""
        b, n = self._check(window, counts)
        last = counts - 1
        x = T.add(self.embed(window), self.position)
        bias = self.score_bias[last].reshape(b * self.cfg.heads, n, n)
        for block in self.blocks:
            x = block(x, bias)
        return T.take_per_row(x, last)

    def _buffers(self, k: int, dtype) -> tuple:
        """`rows`' buffers for k windows: the block input, which each block
        overwrites with its output, the score masks as `score_bias` rows
        and as `tensor.encoder_block` reads them, the blocks' scratch, and
        the first slot of each window in the (k * window, feat) rows."""
        c = self.cfg
        n = c.window
        bias = np.empty((k, c.heads, n, n), self.score_bias.dtype)
        return (np.empty((k, n, c.feat), dtype), bias,
                bias.reshape(k * c.heads, n, n),
                T._block_buffers(k, n, c.feat, c.heads, c.hidden, dtype),
                np.arange(0, k * n, n))

    def rows(self, window: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """`__call__`'s values as a fresh (batch, feat) array, with no tape:
        the acting path. Windows run in groups of at most `GROUP` on the
        module's `Workspace`, and each keeps the bits of a batch of one."""
        b, n = self._check(window, counts)
        if window.dtype.char not in "fd":   # as a `Tensor` takes it
            window = window.astype(np.float32)
        out = np.empty((b, self.out_dim), window.dtype)
        for s in range(0, b, GROUP):
            self._group(window[s:s + GROUP], counts[s:s + GROUP] - 1,
                        out[s:s + GROUP])
        return out

    def _group(self, window: np.ndarray, last: np.ndarray,
               out: np.ndarray) -> None:
        """`rows` on one group, whose windows read out at slots ``last``,
        into ``out``. Its own frame holds the workspace's arrays, so they
        are free when the workspace builds the next group size's."""
        x, masks, bias, bufs, first = self._ws.get(len(last), window.dtype,
                                                   self._buffers)
        x = T._affine_data(window, self.embed.w.data, self.embed.b.data, x)
        x += self.position.data
        self.score_bias.take(last, 0, masks)
        for block in self.blocks:
            x, _ = T._encoder_block_data(x, block._weights, self.cfg.heads,
                                         bias, keep=False, bufs=bufs, out=x)
        x.reshape(-1, self.out_dim).take(first + last, 0, out)
