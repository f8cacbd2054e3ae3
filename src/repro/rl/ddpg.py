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

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import RLError
from repro.rl.nn import MLP, PairedNets, online_param_grads, stacked_forward
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
        for name, ok in (
            ("actor_lr", 0.0 < self.actor_lr < math.inf),
            ("critic_lr", 0.0 < self.critic_lr < math.inf),
            ("noise_decay", 0.0 < self.noise_decay <= 1.0),
            ("noise_sigma", self.noise_sigma >= 0.0),
            ("hidden", len(self.hidden) > 0 and min(self.hidden) >= 1),
        ):
            if not ok:
                raise RLError(f"{name} out of range: {getattr(self, name)!r}")


class DDPGAgent(PairedNets):
    """One actor-critic learner over a continuous action space."""

    PAIRS = (("_actors", "actor", "target_actor"), ("_critics", "critic", "target_critic"))

    def __init__(self, config: DDPGConfig, rng: np.random.Generator) -> None:
        config.validate()
        self.config = config
        self._rng = rng
        hidden = list(config.hidden)
        self.actor = MLP(config.state_dim, hidden, config.action_dim, rng, "tanh")
        self.critic = MLP(config.state_dim + config.action_dim, hidden, 1, rng)
        self.target_actor = MLP(config.state_dim, hidden, config.action_dim, rng, "tanh")
        self.target_critic = MLP(config.state_dim + config.action_dim, hidden, 1, rng)
        # Small final-layer init (Lillicrap et al. §7): keeps early actor
        # outputs near zero so exploration noise — not random saturation —
        # drives the first actions, and early Q estimates stay small.
        self.actor.layers[-1].weight *= 0.05
        self.critic.layers[-1].weight *= 0.05
        self.target_actor.copy_params_from(self.actor)
        self.target_critic.copy_params_from(self.critic)
        self._pair_nets()
        self.actor_opt = Adam(self.actor, config.actor_lr)
        self.critic_opt = Adam(self.critic, config.critic_lr)
        self.replay = ReplayBuffer(config.buffer_capacity, config.state_dim, config.action_dim, rng)
        self.noise = OrnsteinUhlenbeckNoise(
            config.action_dim, rng, sigma=config.noise_sigma, theta=0.3
        )
        self.updates_done = 0

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

    def update(self, n: int = 1) -> Optional[float]:
        """``n`` gradient steps on critic and actor, each on its own replay
        mini-batch, as one fused pass (DESIGN.md §6): every float, and the
        RNG state, as after ``n`` single steps.

        Returns the last step's critic TD loss, or ``None`` while the buffer
        has fewer than ``warmup`` samples.
        """
        if n < 1:
            raise RLError(f"update needs n >= 1, got {n}")
        if len(self.replay) < self.config.warmup:
            return None
        cfg = self.config
        sd, batch = cfg.state_dim, cfg.batch_size
        states, actions, rewards, next_states, dones = self.replay.sample(n, batch)
        # Step i's stacked critic input: [s, a] for the critic (row 0) and
        # [s', µ'(s')] for its target (row 1). Its state columns are the
        # actor pair's input: µ(s) beside µ'(s').
        pair_in = np.empty((n, 2, batch, sd + cfg.action_dim))
        pair_in[:, 0, :, :sd] = states
        pair_in[:, 0, :, sd:] = actions
        pair_in[:, 1, :, :sd] = next_states
        actor_in = pair_in[..., :sd]
        policy_in = pair_in[:, 0].copy()  # [s, µ(s)] once µ(s) is known
        discounts = cfg.gamma * (1.0 - dones)
        actors = self.actor.stacked(self._actors)
        critics = self.critic.stacked(self._critics)
        actor_layers, critic_layers = self.actor.layers, self.critic.layers
        critic_hidden = [(layer.weight, layer.bias) for layer in critic_layers[:-1]]
        for i in range(n):
            # Neither pair has moved yet this step: µ(s) and µ'(s') in one
            # pass, then Q(s, a) and Q'(s', µ'(s')) in one.
            a_inputs, a_masks, mu = stacked_forward(actors, actor_in[i], True)
            pair_in[i, 1, :, sd:] = mu[1]
            c_inputs, c_masks, q = stacked_forward(critics, pair_in[i], False)

            # --- critic update ---------------------------------------------
            td_error = q[0, :, 0] - (rewards[i] + discounts[i] * q[1, :, 0])
            grad_q = (2.0 / batch) * td_error[:, None]
            online_param_grads(critic_layers, c_inputs, c_masks, grad_q)
            self.critic_opt.step()

            # --- actor update ----------------------------------------------
            # dQ/d(input) at (s, µ(s)) through the stepped critic, for a unit
            # output gradient: the last layer's product with a ones column
            # is its weight row, broadcast; its forward output is not read.
            policy_in[i, :, sd:] = mu[0]
            _, masks, last = stacked_forward(critic_hidden, policy_in[i], False)
            masks.append(last > 0)
            grad = critic_layers[-1].weight.T * masks[-1]
            for layer, mask in zip(critic_layers[-2:0:-1], masks[-2::-1]):
                grad = (grad @ layer.weight.T) * mask
            grad_action = (grad @ critic_layers[0].weight.T)[:, sd:]
            # Maximize Q  <=>  descend along -dQ/da, averaged over the
            # batch, then back through the actor's tanh.
            grad_mu = (-grad_action / batch) * (1.0 - mu[0] ** 2)
            online_param_grads(actor_layers, a_inputs, a_masks, grad_mu)
            self.actor_opt.step()

            # --- target tracking: row 1 of each pair toward row 0 ----------
            self.target_actor.soft_update_from(self.actor, cfg.tau)
            self.target_critic.soft_update_from(self.critic, cfg.tau)
        self.updates_done += n
        return float(np.mean(td_error**2))
