"""Minimal numpy-backed neural substrate: tape autodiff, layers, Adam and
squashed-Gaussian sampling. Agents store their weights with
`hvacrl.container` (see `Agent.save` and `load_agent`)."""
from . import tensor, layers, optim, sampling  # noqa: F401
from .tensor import Tensor, backward, no_grad  # noqa: F401
