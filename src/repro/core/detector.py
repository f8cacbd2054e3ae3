"""Workload change detection.

RusKey's statistics collector "collects the operation composition in each
mission for detecting changes in the application workload" (Section 3);
when the workload shifts, "the actor-critic network is no longer in
convergence, and Lerp will restart to exploit compaction policies under the
new workload". This detector supplies the restart signal: it tracks an
exponential moving average of the mission lookup fraction and fires when
recent missions deviate persistently.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError


class WorkloadChangeDetector:
    """EMA-based shift detector over the mission lookup fraction."""

    def __init__(
        self,
        threshold: float = 0.12,
        ema_alpha: float = 0.1,
        consecutive: int = 2,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
        if not 0.0 < ema_alpha <= 1.0:
            raise ConfigError(f"ema_alpha must be in (0, 1], got {ema_alpha}")
        if consecutive < 1:
            raise ConfigError(f"consecutive must be >= 1, got {consecutive}")
        self.threshold = threshold
        self.ema_alpha = ema_alpha
        self.consecutive = consecutive
        self._ema: Optional[float] = None
        self._streak = 0
        self.changes_detected = 0

    @property
    def baseline(self) -> Optional[float]:
        """Current EMA of the lookup fraction (``None`` before any input)."""
        return self._ema

    def observe(self, lookup_fraction: float) -> bool:
        """Feed one mission's lookup fraction; returns ``True`` on a shift.

        On detection the baseline snaps to the new composition so that one
        shift produces one signal.
        """
        if not 0.0 <= lookup_fraction <= 1.0:
            raise ConfigError(
                f"lookup_fraction must be in [0, 1], got {lookup_fraction}"
            )
        if self._ema is None:
            self._ema = lookup_fraction
            return False
        deviated = abs(lookup_fraction - self._ema) > self.threshold
        if deviated:
            self._streak += 1
            if self._streak >= self.consecutive:
                self._ema = lookup_fraction
                self._streak = 0
                self.changes_detected += 1
                return True
        else:
            self._streak = 0
            self._ema = (
                self.ema_alpha * lookup_fraction + (1.0 - self.ema_alpha) * self._ema
            )
        return False

    def reset(self) -> None:
        self._ema = None
        self._streak = 0
