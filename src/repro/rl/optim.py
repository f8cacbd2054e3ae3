"""Gradient-descent optimizers for the numpy networks."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import RLError
from repro.rl.nn import MLP

#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba) over one network's flat parameter vector.

    The moments are flat vectors laid out like ``net.flat_params``, so a
    step is one elementwise pass over the whole network.
    """

    def __init__(self, net: MLP, lr: float = 1e-3) -> None:
        if not 0.0 < lr < math.inf:
            raise RLError(f"lr must be finite and > 0, got {lr}")
        self._net = net
        self.lr = lr
        self._m = np.zeros_like(net.flat_params)
        self._v = np.zeros_like(net.flat_params)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - BETA1**self._t
        bias2 = 1.0 - BETA2**self._t
        grad = self._net.flat_grads
        m, v = self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        self._net.flat_params -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
