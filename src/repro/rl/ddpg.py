"""Deep Deterministic Policy Gradient (Lillicrap et al., the paper's choice).

The paper (Section 5.1.4) selects DDPG for Lerp because it "has been shown
to be more effective compared with the classic models such as DQN". This is
a from-scratch implementation on :mod:`repro.rl.nn`:

* deterministic actor ``µ(s)`` with tanh output in ``[-1, 1]``;
* critic ``Q(s, a)`` taking the concatenated state-action;
* target copies of both, tracked by Polyak averaging;
* critic trained on the TD target
  ``y = r + γ (1 - done) Q'(s', µ'(s'))``;
* actor trained by the deterministic policy gradient: the gradient of
  ``-Q(s, µ(s))`` w.r.t. the action is computed by back-propagating through
  the critic's *input*, then pushed through the actor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import RLError
from repro.rl.nn import MLP, Linear
from repro.rl.noise import OrnsteinUhlenbeckNoise
from repro.rl.optim import Adam
from repro.rl.replay import ReplayBuffer


@dataclass(frozen=True)
class DDPGConfig:
    """Hyperparameters of one DDPG agent.

    The paper uses three hidden layers of 128 units for both networks;
    the default here is the same shape scaled down (the tuning state is a
    handful of scalars, so smaller nets converge in fewer missions and the
    benchmarks run faster). Pass ``hidden=(128, 128, 128)`` for the paper's
    exact architecture.
    """

    state_dim: int = 8
    action_dim: int = 1
    hidden: Sequence[int] = (32, 32)
    actor_lr: float = 2e-3
    critic_lr: float = 2e-3
    gamma: float = 0.85
    tau: float = 0.05
    buffer_capacity: int = 4096
    batch_size: int = 32
    noise_sigma: float = 0.4
    noise_decay: float = 0.99
    warmup: int = 8

    def validate(self) -> None:
        if self.state_dim < 1 or self.action_dim < 1:
            raise RLError("state_dim and action_dim must be >= 1")
        if not 0.0 <= self.gamma < 1.0:
            raise RLError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise RLError(f"tau must be in (0, 1], got {self.tau}")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise RLError("need buffer_capacity >= batch_size >= 1")
        if self.warmup < 1:
            raise RLError(f"warmup must be >= 1, got {self.warmup}")


class DDPGAgent:
    """One actor-critic learner over a continuous action space."""

    def __init__(self, config: DDPGConfig, rng: np.random.Generator) -> None:
        config.validate()
        self.config = config
        self._rng = rng
        hidden = list(config.hidden)
        self.actor = MLP(config.state_dim, hidden, config.action_dim, rng, "tanh")
        self.critic = MLP(config.state_dim + config.action_dim, hidden, 1, rng)
        self.target_actor = MLP(
            config.state_dim, hidden, config.action_dim, rng, "tanh"
        )
        self.target_critic = MLP(config.state_dim + config.action_dim, hidden, 1, rng)
        # Small final-layer init (Lillicrap et al. §7): keeps early actor
        # outputs near zero so exploration noise — not random saturation —
        # drives the first actions, and early Q estimates stay small.
        self._shrink_final_layer(self.actor, 0.05)
        self._shrink_final_layer(self.critic, 0.05)
        self.target_actor.copy_params_from(self.actor)
        self.target_critic.copy_params_from(self.critic)
        self.actor_opt = Adam(self.actor, config.actor_lr)
        self.critic_opt = Adam(self.critic, config.critic_lr)
        self.replay = ReplayBuffer(
            config.buffer_capacity, config.state_dim, config.action_dim, rng
        )
        self.noise = OrnsteinUhlenbeckNoise(
            config.action_dim, rng, sigma=config.noise_sigma, theta=0.3
        )
        self.updates_done = 0

    @staticmethod
    def _shrink_final_layer(net: MLP, scale: float) -> None:
        for layer in reversed(net.layers):
            if isinstance(layer, Linear):
                layer.weight *= scale
                break

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------
    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        """Action in ``[-1, 1]^action_dim`` for ``state``; adds OU noise
        when exploring."""
        action = self.actor.forward(np.atleast_2d(state))[0]
        if explore:
            action = action + self.noise.sample()
        return np.clip(action, -1.0, 1.0)

    def decay_noise(self) -> None:
        self.noise.scale_sigma(self.config.noise_decay)

    def reset_exploration(self, sigma: Optional[float] = None) -> None:
        """Restore exploration after a detected workload change."""
        self.noise.sigma = sigma if sigma is not None else self.config.noise_sigma
        self.noise.reset()

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def observe(
        self,
        state: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_state: np.ndarray,
        done: bool = False,
    ) -> None:
        self.replay.push(state, action, reward, next_state, done)

    def update(self) -> Optional[float]:
        """One gradient step on critic and actor from a replay mini-batch.

        Returns the critic TD loss, or ``None`` while the buffer has fewer
        than ``warmup`` samples.
        """
        if len(self.replay) < self.config.warmup:
            return None
        cfg = self.config
        states, actions, rewards, next_states, dones = self.replay.sample(
            cfg.batch_size
        )

        # --- critic update -------------------------------------------------
        next_actions = self.target_actor.forward(next_states)
        target_q = self.target_critic.forward(
            np.concatenate([next_states, next_actions], axis=1)
        )[:, 0]
        y = rewards + cfg.gamma * (1.0 - dones) * target_q

        self.critic.zero_grad()
        q = self.critic.forward(np.concatenate([states, actions], axis=1))[:, 0]
        td_error = q - y
        loss = float(np.mean(td_error**2))
        grad_q = (2.0 / cfg.batch_size) * td_error[:, None]
        self.critic.backward(grad_q)
        self.critic_opt.step()

        # --- actor update --------------------------------------------------
        self.actor.zero_grad()
        policy_actions = self.actor.forward(states)
        critic_in = np.concatenate([states, policy_actions], axis=1)
        # Scratch use of the critic: only dQ/d(input) is wanted, so its
        # parameter gradients are neither computed nor disturbed.
        self.critic.forward(critic_in)
        grad_in = self.critic.backward_input(np.full((cfg.batch_size, 1), 1.0))
        grad_action = grad_in[:, cfg.state_dim :]
        # Maximize Q  <=>  descend along -dQ/da, averaged over the batch.
        self.actor.backward(-grad_action / cfg.batch_size)
        self.actor_opt.step()

        # --- target tracking ----------------------------------------------
        self.target_actor.soft_update_from(self.actor, cfg.tau)
        self.target_critic.soft_update_from(self.critic, cfg.tau)
        self.updates_done += 1
        return loss
