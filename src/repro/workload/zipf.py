"""Zipfian key sampling (the YCSB default request distribution).

YCSB's Zipfian generator draws item *ranks* with probability proportional to
``1 / rank^s`` (s ≈ 0.99) and then *scrambles* ranks onto the key space so
hot keys are spread out rather than clustered at low key values. Both pieces
are reproduced here; sampling uses an exact inverse-CDF lookup over a
precomputed table, which is fast for the key-space sizes this simulator
targets (≲ tens of millions).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError

_SCRAMBLE_MUL = np.uint64(0xC6A4A7935BD1E995)  # 64-bit FNV/Murmur-style mixer


class ZipfianSampler:
    """Samples integers in ``[0, n_items)`` with Zipf(s) popularity."""

    def __init__(
        self,
        n_items: int,
        rng: np.random.Generator,
        exponent: float = 0.99,
        scrambled: bool = True,
    ) -> None:
        if n_items < 1:
            raise WorkloadError(f"n_items must be >= 1, got {n_items}")
        if exponent < 0:
            raise WorkloadError(f"exponent must be >= 0, got {exponent}")
        self.n_items = n_items
        self.exponent = exponent
        self.scrambled = scrambled
        self._rng = rng
        weights = 1.0 / np.power(np.arange(1, n_items + 1, dtype=np.float64), exponent)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def _scramble(self, ranks: np.ndarray) -> np.ndarray:
        """Map ranks to spread-out item ids (stable, collision-free within
        the modulus for odd multipliers). The +1 offset keeps rank 0 — the
        hottest item — from trivially mapping to item 0."""
        shifted = ranks.astype(np.uint64) + np.uint64(1)
        mixed = (shifted * _SCRAMBLE_MUL) % np.uint64(self.n_items)
        return mixed.astype(np.int64)

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` item ids."""
        if size < 0:
            raise WorkloadError(f"size must be >= 0, got {size}")
        uniform = self._rng.random(size)
        ranks = np.searchsorted(self._cdf, uniform, side="left")
        ranks = np.minimum(ranks, self.n_items - 1)
        if self.scrambled:
            return self._scramble(ranks)
        return ranks.astype(np.int64)
