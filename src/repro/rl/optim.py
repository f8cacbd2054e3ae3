"""Gradient-descent optimizers for the numpy networks."""

from __future__ import annotations

import numpy as np

from repro.errors import RLError
from repro.rl.nn import MLP


class Adam:
    """Adam (Kingma & Ba) over one network's flat parameter vector.

    The moments are flat vectors laid out like ``net.flat_params``, so a
    step is one elementwise pass over the whole network.
    """

    def __init__(
        self,
        net: MLP,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise RLError(f"lr must be > 0, got {lr}")
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise RLError("betas must be in [0, 1)")
        self._net = net
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = np.zeros_like(net.flat_params)
        self._v = np.zeros_like(net.flat_params)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        grad = self._net.flat_grads
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        self._net.flat_params -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
