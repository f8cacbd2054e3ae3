"""Deep Q-Network over a small discrete action set.

The paper mentions DDPG "has been shown to be more effective compared with
the classic models such as DQN"; this implementation exists so that the
comparison can be run as an ablation (the level-based tuner accepts either
agent — its action set is just {decrease, keep, increase}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import RLError
from repro.rl.nn import MLP, PairedNets, online_param_grads, stacked_forward
from repro.rl.optim import Adam
from repro.rl.replay import ReplayBuffer


@dataclass(frozen=True)
class DQNConfig:
    """Hyperparameters of one DQN agent."""

    state_dim: int = 8
    n_actions: int = 3
    hidden: "tuple[int, ...]" = (32, 32)
    lr: float = 1e-3
    gamma: float = 0.9
    buffer_capacity: int = 4096
    batch_size: int = 32
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.97
    target_sync_every: int = 16
    warmup: int = 8

    def validate(self) -> None:
        if self.state_dim < 1 or self.n_actions < 2:
            raise RLError("need state_dim >= 1 and n_actions >= 2")
        if not 0.0 <= self.gamma < 1.0:
            raise RLError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.epsilon_min <= self.epsilon_start <= 1.0:
            raise RLError("need 0 <= epsilon_min <= epsilon_start <= 1")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise RLError("need buffer_capacity >= batch_size >= 1")
        if self.target_sync_every < 1:
            raise RLError("target_sync_every must be >= 1")
        if self.warmup < 1:
            raise RLError(f"warmup must be >= 1, got {self.warmup}")
        if not 0.0 < self.lr < math.inf:
            raise RLError(f"lr must be finite and > 0, got {self.lr!r}")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise RLError(f"epsilon_decay must be in (0, 1], got {self.epsilon_decay!r}")


class DQNAgent(PairedNets):
    """ε-greedy Q-learner with a target network."""

    PAIRS = (("_nets", "q_net", "target_net"),)

    def __init__(self, config: DQNConfig, rng: np.random.Generator) -> None:
        config.validate()
        self.config = config
        self._rng = rng
        self.q_net = MLP(config.state_dim, list(config.hidden), config.n_actions, rng)
        self.target_net = MLP(
            config.state_dim, list(config.hidden), config.n_actions, rng
        )
        self.target_net.copy_params_from(self.q_net)
        self._pair_nets()
        self.opt = Adam(self.q_net, config.lr)
        # Actions are stored as a single index in the replay buffer.
        self.replay = ReplayBuffer(config.buffer_capacity, config.state_dim, 1, rng)
        self.epsilon = config.epsilon_start
        self.updates_done = 0

    def act(self, state: np.ndarray, explore: bool = True) -> int:
        """Greedy action index, ε-random when exploring."""
        if explore and self._rng.random() < self.epsilon:
            return int(self._rng.integers(0, self.config.n_actions))
        q_values = self.q_net.forward(np.atleast_2d(state))[0]
        return int(np.argmax(q_values))

    def decay_epsilon(self) -> None:
        self.epsilon = max(
            self.config.epsilon_min, self.epsilon * self.config.epsilon_decay
        )

    def reset_exploration(self, epsilon: Optional[float] = None) -> None:
        self.epsilon = (
            epsilon if epsilon is not None else self.config.epsilon_start
        )

    def observe(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool = False,
    ) -> None:
        self.replay.push(state, np.asarray([action], dtype=float), reward, next_state, done)

    def update(self) -> Optional[float]:
        """One TD(0) step on a replay mini-batch; returns the loss.

        Q(s) beside the target net's Q(s') is one stacked forward over the
        pair, and the Q-net's gradients come from row 0 (DESIGN.md §6)."""
        if len(self.replay) < self.config.warmup:
            return None
        cfg = self.config
        states, actions, rewards, next_states, dones = self.replay.sample(
            cfg.batch_size
        )
        rows, action_idx = np.arange(cfg.batch_size), actions[:, 0].astype(int)
        inputs, masks, q = stacked_forward(
            self.q_net.stacked(self._nets), np.stack((states, next_states)), False
        )
        y = rewards + cfg.gamma * (1.0 - dones) * q[1].max(axis=1)
        td_error = q[0, rows, action_idx] - y
        grad = np.zeros_like(q[0])
        grad[rows, action_idx] = (2.0 / cfg.batch_size) * td_error
        online_param_grads(self.q_net.layers, inputs, masks, grad)
        self.opt.step()

        self.updates_done += 1
        if self.updates_done % cfg.target_sync_every == 0:
            self.target_net.copy_params_from(self.q_net)
        return float(np.mean(td_error**2))
