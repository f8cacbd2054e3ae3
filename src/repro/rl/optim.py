"""Gradient-descent optimizers for the numpy networks."""

from __future__ import annotations

import numpy as np

from repro.errors import RLError
from repro.rl.nn import MLP


class Adam:
    """Adam (Kingma & Ba) over one network's flat parameter vector.

    The moments are flat vectors laid out like ``net.flat_params``, so a
    step is one elementwise pass over the whole network; snapshots still
    carry them as per-parameter lists (``net.split``).
    """

    # _net's parameters are serialized by the MLP itself (and its gradient
    # vector is scratch); lr/beta1/beta2/eps are constructor hyperparameters.
    _snapshot_exempt = frozenset({"_net", "lr", "beta1", "beta2", "eps"})

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
        self._net.flat_params -= (
            self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        )

    # ------------------------------------------------------------------
    # Snapshot hooks (see repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of the moment estimates and step count."""
        split = self._net.split
        return {
            "kind": "adam",
            "t": self._t,
            "m": [m.copy() for m in split(self._m)],
            "v": [v.copy() for v in split(self._v)],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore moments in place (they are paired with live parameters)."""
        pairs = []
        for flat, theirs in ((self._m, state["m"]), (self._v, state["v"])):
            mine = self._net.split(flat)
            if [a.shape for a in mine] != [np.shape(b) for b in theirs]:
                raise RLError("optimizer state does not match parameter layout")
            pairs.extend(zip(mine, theirs))
        self._t = int(state["t"])
        for mine_array, their_array in pairs:
            mine_array[...] = their_array
