"""Offline and online reinforcement-learning agents for HVAC control."""
from .config import ALGOS, OFFLINE_ALGOS, AgentConfig
from .core import (CHECKPOINT_MAGIC, Agent, CQLAgent, PolicyController,
                   Q_DIVERGENCE_LIMIT, RolloutWindow, SACAgent, TD3Agent,
                   TD3BCAgent, TrainSummary, load_agent, make_agent,
                   seeded_episodes, train_offline, train_online)
from .nets import DeterministicActor, FlatEncoder, GaussianActor, TwinCritic
from .replay import ReplayBuffer, ReplayView, WindowBatch

__all__ = [
    "ALGOS", "OFFLINE_ALGOS", "AgentConfig", "Agent", "CHECKPOINT_MAGIC",
    "CQLAgent", "PolicyController", "Q_DIVERGENCE_LIMIT", "RolloutWindow",
    "SACAgent", "TD3Agent", "TD3BCAgent", "TrainSummary", "load_agent",
    "make_agent", "seeded_episodes", "train_offline", "train_online",
    "DeterministicActor", "FlatEncoder", "GaussianActor", "TwinCritic",
    "ReplayBuffer", "ReplayView", "WindowBatch",
]
