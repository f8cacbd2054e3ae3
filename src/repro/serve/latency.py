"""Streaming log-bucketed latency histograms for the serving layer.

The serving subsystem measures *wall-clock* request latency (queueing +
service), which is unbounded and heavy-tailed — exactly what a fixed-width
histogram handles badly. :class:`LatencyHistogram` uses geometrically
spaced buckets (a fixed number per decade, HdrHistogram style): any
recorded value lands in a bucket whose edges are within a known *relative*
error of the true value, so quantile estimates carry a guaranteed relative
error bound of ``bucket_growth() - 1`` regardless of where the mass lies.

Histograms are plain count arrays, so they **merge** by addition: per-shard
and per-tenant histograms recorded lock-free by single writer threads are
combined after the fact, and merging is associative and commutative (a
property test in ``tests/test_latency.py`` checks this). Exact count, sum,
min and max are tracked alongside the buckets, so means are exact and only
quantiles are approximate.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

#: Default resolution: 10^(1/40) growth ≈ 5.9 % relative quantile error.
DEFAULT_BUCKETS_PER_DECADE = 40

#: Default measurable range: 100 ns .. 1000 s of wall-clock latency.
DEFAULT_MIN_LATENCY = 1e-7
DEFAULT_MAX_LATENCY = 1e3


class LatencyHistogram:
    """A mergeable histogram with geometrically spaced buckets.

    Bucket ``i`` (``0 <= i < n_buckets``) covers latencies in
    ``[min_latency * g**i, min_latency * g**(i+1))`` with
    ``g = 10**(1/buckets_per_decade)``. Values below ``min_latency`` clamp
    into the first bucket, values at or above ``max_latency`` into the
    last — the error bound holds for everything in range.

    Recording is not synchronized: each histogram must have a single
    writer (the serving layer keeps one per worker thread) and readers
    merge copies.
    """

    # Bucket geometry derived deterministically from constructor arguments;
    # only the counts array is mutable state.
    _snapshot_exempt = frozenset({"n_buckets", "_log_min", "_scale"})

    def __init__(
        self,
        min_latency: float = DEFAULT_MIN_LATENCY,
        max_latency: float = DEFAULT_MAX_LATENCY,
        buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
    ) -> None:
        if min_latency <= 0.0 or max_latency <= min_latency:
            raise ConfigError(
                f"need 0 < min_latency < max_latency, got "
                f"{min_latency}, {max_latency}"
            )
        if buckets_per_decade < 1:
            raise ConfigError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.min_latency = float(min_latency)
        self.max_latency = float(max_latency)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(self.max_latency / self.min_latency)
        self.n_buckets = max(1, int(math.ceil(decades * buckets_per_decade)))
        self.counts = np.zeros(self.n_buckets, dtype=np.int64)
        # Exact side statistics (buckets only approximate the distribution).
        self.count = 0
        self.sum = 0.0
        self.min_seen = math.inf
        self.max_seen = 0.0
        # Precomputed for vectorized index math.
        self._log_min = math.log10(self.min_latency)
        self._scale = float(buckets_per_decade)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _index(self, seconds: float) -> int:
        if seconds < self.min_latency:
            return 0
        i = int((math.log10(seconds) - self._log_min) * self._scale)
        return min(i, self.n_buckets - 1)

    def record(self, seconds: float) -> None:
        """Record one latency measurement (in seconds)."""
        if seconds < 0.0:
            raise ValueError(f"latency must be >= 0, got {seconds}")
        self.counts[self._index(seconds)] += 1
        self.count += 1
        self.sum += seconds
        if seconds < self.min_seen:
            self.min_seen = seconds
        if seconds > self.max_seen:
            self.max_seen = seconds

    def record_many(self, seconds: Sequence[float]) -> None:
        """:meth:`record` for a batch. The body is chosen from its size: the
        numpy calls below cost ~9 µs however few values they see, as much as
        sixteen scalar records, and a serving lane hands over one latency a
        batch under a synchronous client, hundreds when saturated."""
        if len(seconds) < 16:
            for value in seconds:
                self.record(float(value))
            return
        values = np.asarray(seconds, dtype=np.float64)
        lowest = float(values.min())
        if lowest < 0.0:
            raise ValueError("latencies must be >= 0")
        clipped = np.maximum(values, self.min_latency)
        idx = ((np.log10(clipped) - self._log_min) * self._scale).astype(np.int64)
        np.minimum(idx, self.n_buckets - 1, out=idx)  # clipped: never below 0
        self.counts += np.bincount(idx, minlength=self.n_buckets)
        self.count += len(values)
        self.sum += float(values.sum())
        self.min_seen = min(self.min_seen, lowest)
        self.max_seen = max(self.max_seen, float(values.max()))

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def compatible_with(self, other: "LatencyHistogram") -> bool:
        return (
            self.min_latency == other.min_latency
            and self.max_latency == other.max_latency
            and self.buckets_per_decade == other.buckets_per_decade
        )

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Add ``other``'s contents into this histogram (in place)."""
        if not self.compatible_with(other):
            raise ConfigError("cannot merge histograms with different bucketing")
        self.counts += other.counts
        self.count += other.count
        self.sum += other.sum
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)
        return self

    def copy(self) -> "LatencyHistogram":
        clone = LatencyHistogram(
            self.min_latency, self.max_latency, self.buckets_per_decade
        )
        clone.counts = self.counts.copy()
        clone.count = self.count
        clone.sum = self.sum
        clone.min_seen = self.min_seen
        clone.max_seen = self.max_seen
        return clone

    def diff(self, base: "LatencyHistogram") -> "LatencyHistogram":
        """Everything recorded since ``base`` (an earlier copy of this
        histogram's contents). Bucket counts, count and sum subtract
        exactly. When ``base`` holds recordings, the delta period's exact
        min/max are unknowable, so they tighten to the outermost
        non-empty delta buckets' edges — the quantile error bound is
        unaffected."""
        if not self.compatible_with(base):
            raise ConfigError("cannot diff histograms with different bucketing")
        delta = self.copy()
        delta.counts = self.counts - base.counts
        if (delta.counts < 0).any() or self.count < base.count:
            raise ValueError("base is not a prefix of this histogram")
        delta.count = self.count - base.count
        delta.sum = max(0.0, self.sum - base.sum)
        if base.count == 0:
            return delta  # the copy's exact min/max already apply
        nonzero = np.flatnonzero(delta.counts)
        if len(nonzero) == 0:
            delta.min_seen = math.inf
            delta.max_seen = 0.0
        else:
            delta.min_seen = self.bucket_edges(int(nonzero[0]))[0]
            delta.max_seen = self.bucket_edges(int(nonzero[-1]))[1]
        return delta

    @classmethod
    def merged(
        cls,
        parts: Iterable["LatencyHistogram"],
        template: Optional["LatencyHistogram"] = None,
    ) -> "LatencyHistogram":
        """A fresh histogram holding the sum of ``parts``.

        With no parts the result is an empty histogram bucketed like
        ``template`` (or default-bucketed when none is given)."""
        result: Optional[LatencyHistogram] = None
        for part in parts:
            if result is None:
                result = part.copy()
            else:
                result.merge(part)
        if result is not None:
            return result
        if template is not None:
            return cls(
                template.min_latency,
                template.max_latency,
                template.buckets_per_decade,
            )
        return cls()

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def bucket_growth(self) -> float:
        """The geometric bucket width ``g``; quantiles are exact to within
        a factor of ``g`` (relative error ``g - 1``)."""
        return 10.0 ** (1.0 / self.buckets_per_decade)

    def bucket_edges(self, index: int) -> Tuple[float, float]:
        """The ``[lo, hi)`` latency range bucket ``index`` covers."""
        g = self.bucket_growth()
        lo = self.min_latency * g**index
        return lo, lo * g

    def quantile_bounds(self, q: float) -> Tuple[float, float]:
        """Edges of the bucket containing the ``q``-quantile (0 with no
        recorded data). The true quantile of the recorded in-range samples
        lies within these bounds."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0, 0.0
        # The k-th order statistic (1-based), matching the "lower" method.
        rank = min(self.count, max(1, int(math.ceil(q * self.count))))
        cumulative = np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, rank))
        return self.bucket_edges(index)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimated as the geometric midpoint of its
        bucket, clamped into the exact observed ``[min, max]`` range."""
        lo, hi = self.quantile_bounds(q)
        if hi == 0.0:
            return 0.0
        estimate = math.sqrt(lo * hi)
        return min(max(estimate, self.min_seen), self.max_seen)

    def percentiles(
        self, points: Sequence[float] = (50.0, 95.0, 99.0, 99.9)
    ) -> Dict[float, float]:
        """Quantile estimates for percentile ``points`` (e.g. 99.9)."""
        return {p: self.quantile(p / 100.0) for p in points}

    @property
    def mean(self) -> float:
        """Exact mean of all recorded latencies (0 with no data)."""
        return self.sum / self.count if self.count else 0.0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @staticmethod
    def _percentile_key(point: float) -> str:
        """``50.0 -> "p50"``, ``99.9 -> "p999"`` — the benchmark metrics
        vocabulary (``p50_ms`` / ``p99_ms`` / ``p999_ms``)."""
        text = f"{point:g}".replace(".", "")
        return f"p{text}"

    def percentile_summary(
        self,
        points: Sequence[float] = (50.0, 99.0, 99.9),
        unit: str = "ms",
    ) -> Dict[str, float]:
        """Named percentile estimates, scaled to ``unit``.

        Returns ``{"p50_ms": ..., "p99_ms": ..., "p999_ms": ...}`` — the
        single source of the p-latency columns emitted by the serving
        experiments and benchmarks, so the key naming and unit scaling
        live in one place.
        """
        try:
            scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        except KeyError:
            raise ValueError(f"unit must be s, ms or us, got {unit!r}") from None
        return {
            f"{self._percentile_key(p)}_{unit}": self.quantile(p / 100.0) * scale
            for p in points
        }

    def render(
        self,
        points: Sequence[float] = (50.0, 95.0, 99.0, 99.9),
        unit: str = "ms",
    ) -> str:
        """One-line ``p50=...ms p95=...ms ...`` rendering of ``points``."""
        try:
            scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        except KeyError:
            raise ValueError(f"unit must be s, ms or us, got {unit!r}") from None
        return " ".join(
            f"p{p:g}={self.quantile(p / 100.0) * scale:.3f}{unit}"
            for p in points
        )

    def summary(self) -> str:
        """One-line ``count/mean/p50/p95/p99/p99.9/max`` summary (ms)."""
        if self.count == 0:
            return "no samples"
        return (
            f"n={self.count} mean={self.mean * 1e3:.3f}ms "
            f"{self.render()} max={self.max_seen * 1e3:.3f}ms"
        )

    # ------------------------------------------------------------------
    # Persistence (used by the obs metrics registry)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serializable snapshot (primitives + one numpy array)."""
        return {
            "min_latency": self.min_latency,
            "max_latency": self.max_latency,
            "buckets_per_decade": self.buckets_per_decade,
            "counts": self.counts.copy(),
            "count": self.count,
            "sum": self.sum,
            "min_seen": self.min_seen,
            "max_seen": self.max_seen,
        }

    @classmethod
    def from_state_dict(cls, state: Dict[str, object]) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`state_dict` output."""
        hist = cls(
            float(state["min_latency"]),
            float(state["max_latency"]),
            int(state["buckets_per_decade"]),
        )
        counts = np.asarray(state["counts"], dtype=np.int64)
        if counts.shape != hist.counts.shape:
            raise ConfigError(
                f"histogram state has {counts.shape[0]} buckets, "
                f"expected {hist.n_buckets}"
            )
        hist.counts = counts.copy()
        hist.count = int(state["count"])
        hist.sum = float(state["sum"])
        hist.min_seen = float(state["min_seen"])
        hist.max_seen = float(state["max_seen"])
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyHistogram({self.summary()})"
