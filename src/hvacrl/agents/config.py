"""Training configuration shared by all four algorithms."""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import SpecError

ALGOS = ("td3", "sac", "td3bc", "cql")
OFFLINE_ALGOS = ("td3bc", "cql")


@dataclass(frozen=True)
class AgentConfig:
    algo: str = "cql"            # td3 | sac | td3bc | cql
    gamma: float = 0.9           # discount
    batch_size: int = 256        # transitions per update
    train_steps: int = 10_000    # gradient steps (or env steps when online)
    epoch_steps: int = 1_000     # checkpoint/evaluation cadence
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    alpha_lr: float = 3e-4       # SAC temperature learning rate
    tau: float = 0.005           # polyak averaging rate for target nets
    policy_delay: int = 2        # TD3 actor update period
    target_noise: float = 0.2    # TD3 target policy smoothing std
    target_noise_clip: float = 0.5
    explore_noise: float = 0.1   # online exploration noise std (normalized)
    bc_weight: float = 2.5       # behavior-cloning weight (td3bc)
    cql_weight: float = 5.0      # conservative penalty weight (cql)
    cql_samples: int = 10        # policy samples for the penalty expectation
    hidden: int = 200            # MLP hidden width
    history: bool = False        # run actor/critic on observation windows
    seq_len: int = 1             # window length L
    enc_feat: int = 100          # encoder embedding width
    enc_blocks: int = 2
    enc_heads: int = 4
    enc_hidden: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise SpecError(f"unknown algorithm {self.algo!r}, pick from {ALGOS}")
        if not 0.0 <= self.gamma < 1.0:
            raise SpecError("gamma must be in [0, 1)")
        if self.batch_size < 1:
            raise SpecError("batch_size must be >= 1")
        if self.train_steps < 0 or self.epoch_steps < 1:
            raise SpecError("bad step counts")
        if min(self.bc_weight, self.cql_weight, self.explore_noise,
               self.target_noise, self.tau) < 0:
            raise SpecError("weights and noise scales must be >= 0")
        if self.cql_samples < 1 or self.policy_delay < 1:
            raise SpecError("cql_samples and policy_delay must be >= 1")
        if self.seq_len < 1:
            raise SpecError("seq_len must be >= 1")
        if self.seed < 0:
            raise SpecError("seed must be >= 0")
        if not self.history and self.seq_len != 1:
            raise SpecError("seq_len > 1 requires history=True")
        if min(self.hidden, self.enc_feat, self.enc_heads,
               self.enc_hidden) < 1 or self.enc_blocks < 0:
            raise SpecError("hidden, enc_feat, enc_heads and enc_hidden must "
                            "be >= 1, enc_blocks >= 0")
