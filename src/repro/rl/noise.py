"""Exploration noise processes for continuous-action RL."""

from __future__ import annotations

import numpy as np

from repro.errors import RLError


class OrnsteinUhlenbeckNoise:
    """Temporally correlated exploration noise (the standard DDPG choice).

    ``dx = theta * (mu - x) dt + sigma * sqrt(dt) * N(0, 1)``
    """

    def __init__(
        self,
        action_dim: int,
        rng: np.random.Generator,
        mu: float = 0.0,
        theta: float = 0.15,
        sigma: float = 0.3,
        dt: float = 1.0,
    ) -> None:
        if action_dim < 1:
            raise RLError(f"action_dim must be >= 1, got {action_dim}")
        if sigma < 0 or theta < 0 or dt <= 0:
            raise RLError("sigma/theta must be >= 0 and dt > 0")
        self.mu = mu
        self.theta = theta
        self.sigma = sigma
        self.dt = dt
        self._rng = rng
        self._state = np.full(action_dim, mu, dtype=np.float64)

    def reset(self) -> None:
        """Return the process to its mean (called on workload shifts)."""
        self._state.fill(self.mu)

    def sample(self) -> np.ndarray:
        drift = self.theta * (self.mu - self._state) * self.dt
        diffusion = self.sigma * np.sqrt(self.dt) * self._rng.standard_normal(
            self._state.shape
        )
        self._state = self._state + drift + diffusion
        return self._state.copy()

    def scale_sigma(self, factor: float) -> None:
        """Decay (or boost) the noise magnitude, clipped to stay >= 0."""
        self.sigma = max(0.0, self.sigma * factor)
