"""Reinforcement-learning substrate: networks, optimizers, replay, agents."""

from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.nn import MLP, Linear
from repro.rl.noise import OrnsteinUhlenbeckNoise
from repro.rl.optim import Adam
from repro.rl.replay import ReplayBuffer

__all__ = [
    "MLP",
    "Linear",
    "Adam",
    "ReplayBuffer",
    "OrnsteinUhlenbeckNoise",
    "DDPGAgent",
    "DDPGConfig",
    "DQNAgent",
    "DQNConfig",
]
