"""Adam with per-parameter moments, allocated at the first step, so an
optimizer that never steps (an agent that only acts) holds none."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m: list[np.ndarray] | None = None   # allocated by `step`
        self.v: list[np.ndarray] | None = None

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        if self.m is None:
            self.m, self.v = self._zeros(), self._zeros()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                # no gradient reached this parameter; moments still decay
                m *= b1
                v *= b2
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def _zeros(self) -> list[np.ndarray]:
        """Zeros shaped like each parameter (float32, as `tensor.parameter`
        makes them), as views of one buffer. One small array per parameter,
        allocated among the first update's temporaries, raised the
        offline-sweep benchmark's peak RSS by about 4 MB; one buffer per
        moment does not."""
        sizes = [p.data.size for p in self.params]
        flat = np.zeros(sum(sizes), np.float32)
        return [part.reshape(p.data.shape) for p, part
                in zip(self.params, np.split(flat, np.cumsum(sizes)[:-1]))]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """``t`` and each parameter's moments; an optimizer that has not
        stepped has zero moments."""
        out: dict[str, np.ndarray] = {"t": np.array([self.t], dtype=np.float32)}
        moments = (zip(self.m, self.v) if self.m is not None
                   else ((z, z) for z in self._zeros()))
        for i, (m, v) in enumerate(moments):
            out[f"m.{i}"] = m.copy()
            out[f"v.{i}"] = v.copy()
        return out
