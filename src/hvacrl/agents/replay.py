"""Episodic transition storage with history-window sampling.

Transitions live in flat column arrays (`ReplayView.COLUMNS`) plus a list
of episode start indices.  `ReplayView` is the one store of such columns:
an online `ReplayBuffer` is one that grows in place over its run, and a
stored dataset (`datagen.Dataset`) is a `ReplayView` with a header.
Sampling assembles fixed-length observation windows: window i holds its
``counts[i]`` observations left-aligned, the last of them at the sampled
step, and zeros after them, so a window never reaches across an episode
boundary.  A window is those observations and their count throughout the
program.  With ``seq_len == 1`` the windows collapse to plain flat
transitions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, SpecError


@dataclass
class WindowBatch:
    """One sampled minibatch of history windows.

    ``windows[i, j]`` holds an observation for ``j < counts[i]`` and zeros
    afterwards; slot ``counts[i] - 1`` is the observation at the sampled
    step.
    ``next_windows`` is the same construction advanced by one step (held in
    place on terminal steps, where it is masked out of the TD target anyway).
    """

    windows: np.ndarray        # (B, L, obs_dim) float32, zero padded
    counts: np.ndarray         # (B,) int, observations per window, 1..L
    actions: np.ndarray        # (B, act_dim) float32, normalized
    rewards: np.ndarray        # (B,) float32
    next_windows: np.ndarray   # (B, L, obs_dim) float32
    next_counts: np.ndarray    # (B,) int
    terminals: np.ndarray      # (B,) float32, 1.0 on episode-ending steps

    def __len__(self):
        return self.windows.shape[0]


class ReplayView:
    """Read-only window sampler over flat episodic columns.

    The columns are checked once, on construction, by `validate`; a
    subclass with stricter rules extends that method.
    """

    #: the per-step columns, in constructor order
    COLUMNS = ("obs", "actions", "rewards", "terminals")

    def __init__(self, obs, actions, rewards, terminals, episode_starts):
        self.obs = np.asarray(obs, dtype=np.float32)
        self.actions = np.asarray(actions, dtype=np.float32)
        self.rewards = np.asarray(rewards, dtype=np.float32)
        self.terminals = np.asarray(terminals, dtype=bool)
        self.episode_starts = np.asarray(episode_starts, dtype=np.int64)
        self.validate()
        n, starts = len(self), self.episode_starts
        lengths = np.diff(np.concatenate([starts, [n]]))
        self._start_of = np.repeat(starts, lengths)
        # the last stored step only has a successor once its episode closed
        self._sampleable = n if self.terminals[n - 1] else n - 1

    def validate(self) -> None:
        """The columns agree in length and every episode boundary, except
        possibly the live tail's, sits on a terminal step."""
        if self.obs.ndim != 2 or self.actions.ndim != 2:
            raise SpecError("obs and actions must be 2-D column arrays")
        n, starts, terminals = len(self), self.episode_starts, self.terminals
        if not (self.actions.shape[0] == self.rewards.shape[0]
                == terminals.shape[0] == n):
            raise SpecError("column lengths disagree")
        if n == 0:
            raise DataError("empty transition store")
        if starts.size == 0 or starts[0] != 0:
            raise DataError("episode starts must begin at index 0")
        if np.any(np.diff(starts) <= 0) or starts[-1] >= n:
            raise DataError("episode starts must be increasing and in range")
        ends = np.concatenate([starts[1:] - 1, [n - 1]])
        if not terminals[ends[:-1]].all():
            raise DataError("episode boundary without a terminal step")
        interior = np.ones(n, dtype=bool)
        interior[ends] = False
        if terminals[interior].any():
            raise DataError("terminal step without an episode boundary")

    def __len__(self):
        return self.obs.shape[0]

    @property
    def obs_dim(self):
        return self.obs.shape[1]

    @property
    def act_dim(self):
        return self.actions.shape[1]

    @property
    def num_episodes(self):
        return len(self.episode_starts)

    def episode_slice(self, i: int) -> slice:
        starts = self.episode_starts
        stop = starts[i + 1] if i + 1 < len(starts) else len(self)
        return slice(int(starts[i]), int(stop))

    def _assemble(self, steps: np.ndarray, seq_len: int):
        """Left-aligned windows whose last observation is at ``steps``, and
        the number of observations in each."""
        counts = np.minimum(seq_len, steps - self._start_of[steps] + 1)
        offs = np.arange(seq_len)
        valid = offs[None, :] < counts[:, None]
        idx = steps[:, None] - counts[:, None] + 1 + offs[None, :]
        idx = np.where(valid, idx, 0)
        windows = self.obs[idx] * valid[:, :, None].astype(np.float32)
        return windows, counts

    def sample_batch(self, batch_size: int, seq_len: int,
                     rng: np.random.Generator) -> WindowBatch:
        if self._sampleable == 0:
            raise DataError("no sampleable transitions yet")
        steps = rng.integers(0, self._sampleable, size=batch_size)
        windows, counts = self._assemble(steps, seq_len)
        term = self.terminals[steps]
        nxt = np.where(term, steps, steps + 1)
        next_windows, next_counts = self._assemble(nxt, seq_len)
        return WindowBatch(
            windows=windows,
            counts=counts,
            actions=self.actions[steps],
            rewards=self.rewards[steps],
            next_windows=next_windows,
            next_counts=next_counts,
            terminals=term.astype(np.float32),
        )


class ReplayBuffer(ReplayView):
    """Append-only online buffer that holds one whole run: ``capacity`` is
    the run's length, and an `add` past it is a `DataError`.

    The columns are preallocated and the first ``len`` rows are live; `add`
    keeps the sampling state current, so the buffer samples in place.
    """

    def __init__(self, obs_dim: int, act_dim: int, capacity: int):
        self.obs = np.zeros((capacity, obs_dim), dtype=np.float32)
        self.actions = np.zeros((capacity, act_dim), dtype=np.float32)
        self.rewards = np.zeros(capacity, dtype=np.float32)
        self.terminals = np.zeros(capacity, dtype=bool)
        self._start_of = np.zeros(capacity, dtype=np.int64)
        self._starts = [0]
        self._count = 0
        self._sampleable = 0

    def __len__(self):
        return self._count

    @property
    def episode_starts(self) -> np.ndarray:
        starts = self._starts[:-1] if self._starts[-1] == self._count \
            else self._starts
        return np.asarray(starts, dtype=np.int64)

    def add(self, obs, action, reward, terminal: bool):
        i = self._count
        if i == len(self.obs):
            raise DataError(f"replay buffer is full at {i} transitions")
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.terminals[i] = terminal
        self._start_of[i] = self._starts[-1]
        self._count += 1
        self._sampleable = self._count if terminal else i
        if terminal:
            self._starts.append(self._count)

    def view(self) -> ReplayView:
        """A `ReplayView` sharing the live rows' memory until the next `add`."""
        n = self._count
        return ReplayView(self.obs[:n], self.actions[:n], self.rewards[:n],
                          self.terminals[:n], self.episode_starts)
