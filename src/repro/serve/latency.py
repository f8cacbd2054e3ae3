"""Streaming log-bucketed latency histograms for the serving layer.

The serving subsystem measures *wall-clock* request latency (queueing +
service), which is unbounded and heavy-tailed — exactly what a fixed-width
histogram handles badly. :class:`LatencyHistogram` uses geometrically
spaced buckets (a fixed number per decade, HdrHistogram style): any
recorded value lands in a bucket whose edges are within a known *relative*
error of the true value, so quantile estimates carry a guaranteed relative
error bound of ``bucket_growth() - 1`` regardless of where the mass lies.

Every histogram has the same bucket geometry (the constants below), so
histograms are plain count arrays that **merge** by addition: per-lane
histograms recorded lock-free by single writer threads are combined after
the fact, and merging is associative and commutative (a property test in
``tests/test_latency.py`` checks this). Exact count, sum, min and max are
tracked alongside the buckets, so means are exact and only quantiles are
approximate. :func:`repro.obs.telemetry_view` reports each lane's histogram
by its count, sum, min, max, mean and
:meth:`LatencyHistogram.percentile_summary`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

#: Resolution: 10^(1/40) growth ≈ 5.9 % relative quantile error.
BUCKETS_PER_DECADE = 40

#: Measurable range: 100 ns .. 1000 s of wall-clock latency.
MIN_LATENCY = 1e-7
MAX_LATENCY = 1e3

N_BUCKETS = int(math.ceil(math.log10(MAX_LATENCY / MIN_LATENCY) * BUCKETS_PER_DECADE))
# Precomputed for the index math.
_LOG_MIN = math.log10(MIN_LATENCY)
_SCALE = float(BUCKETS_PER_DECADE)


class LatencyHistogram:
    """A mergeable histogram with geometrically spaced buckets.

    Bucket ``i`` (``0 <= i < N_BUCKETS``) covers latencies in
    ``[MIN_LATENCY * g**i, MIN_LATENCY * g**(i+1))`` with
    ``g = 10**(1/BUCKETS_PER_DECADE)``. Values below ``MIN_LATENCY`` clamp
    into the first bucket, values at or above ``MAX_LATENCY`` into the
    last — the error bound holds for everything in range.

    Recording is not synchronized: each histogram must have a single
    writer (the serving layer keeps one per worker thread) and readers
    merge copies.
    """

    def __init__(self) -> None:
        self.counts = np.zeros(N_BUCKETS, dtype=np.int64)
        # Exact side statistics (buckets only approximate the distribution).
        self.count = 0
        self.sum = 0.0
        self.min_seen = math.inf
        self.max_seen = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @staticmethod
    def _index(seconds: float) -> int:
        if seconds < MIN_LATENCY:
            return 0
        i = int((math.log10(seconds) - _LOG_MIN) * _SCALE)
        return min(i, N_BUCKETS - 1)

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
        clipped = np.maximum(values, MIN_LATENCY)
        idx = ((np.log10(clipped) - _LOG_MIN) * _SCALE).astype(np.int64)
        np.minimum(idx, N_BUCKETS - 1, out=idx)  # clipped: never below 0
        self.counts += np.bincount(idx, minlength=N_BUCKETS)
        self.count += len(values)
        self.sum += float(values.sum())
        self.min_seen = min(self.min_seen, lowest)
        self.max_seen = max(self.max_seen, float(values.max()))

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Add ``other``'s contents into this histogram (in place)."""
        self.counts += other.counts
        self.count += other.count
        self.sum += other.sum
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)
        return self

    def copy(self) -> "LatencyHistogram":
        clone = LatencyHistogram()
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
    def merged(cls, parts: Iterable["LatencyHistogram"]) -> "LatencyHistogram":
        """A fresh histogram holding the sum of ``parts`` (empty with none)."""
        result = cls()
        for part in parts:
            result.merge(part)
        return result

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def bucket_growth(self) -> float:
        """The geometric bucket width ``g``; quantiles are exact to within
        a factor of ``g`` (relative error ``g - 1``)."""
        return 10.0 ** (1.0 / BUCKETS_PER_DECADE)

    def bucket_edges(self, index: int) -> Tuple[float, float]:
        """The ``[lo, hi)`` latency range bucket ``index`` covers."""
        g = self.bucket_growth()
        lo = MIN_LATENCY * g**index
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

    def percentile_summary(self, unit: str = "ms") -> Dict[str, float]:
        """The p50 / p99 / p99.9 estimates, scaled to ``unit``.

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
            for p in (50.0, 99.0, 99.9)
        }

    def summary(self) -> str:
        """One-line ``count/mean/p50/p95/p99/p99.9/max`` summary (ms)."""
        if self.count == 0:
            return "no samples"
        points = " ".join(f"p{p:g}={q * 1e3:.3f}ms" for p, q in self.percentiles().items())
        return (
            f"n={self.count} mean={self.mean * 1e3:.3f}ms "
            f"{points} max={self.max_seen * 1e3:.3f}ms"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyHistogram({self.summary()})"
