"""Simulated wall clock.

Every component that "spends time" (disk I/O, CPU work during compaction,
Bloom probes) advances a shared :class:`SimClock`. The clock is the single
source of truth for the latency figures reported by the benchmark harness,
which keeps the reproduction deterministic and independent of the host
machine's speed.
"""

from __future__ import annotations

from repro.errors import StorageError


class SimClock:
    """Monotonic simulated clock measured in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise StorageError(f"clock cannot start before 0, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time.

        Negative advances are rejected: simulated time never runs backwards.
        """
        if seconds < 0:
            raise StorageError(f"cannot advance clock by {seconds} s")
        self._now += seconds
        return self._now

    def advance_to(self, now: float) -> None:
        """Move the clock to ``now``: the write-back of a read-plan pass
        (``ReadPlan._replay``) that added each charge to a local in
        per-event order — bit-equivalent to one :meth:`advance` per charge."""
        if not now >= self._now:
            raise StorageError(
                f"cannot move clock back from {self._now} s to {now} s"
            )
        self._now = now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f}s)"
