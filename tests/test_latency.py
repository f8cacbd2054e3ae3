"""Tests for the serving layer's log-bucketed latency histogram.

The two guarantees the serving reports rely on: quantiles are correct to
within one geometric bucket of the exact sample quantile, and merging is
exact (associative, commutative, lossless) so per-lane histograms can be
combined in any order. Every histogram has the same bucket geometry
(``repro.serve.latency``'s constants).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.latency import (
    BUCKETS_PER_DECADE,
    MAX_LATENCY,
    MIN_LATENCY,
    N_BUCKETS,
    LatencyHistogram,
)

#: Quantile points exercised against numpy (percent).
POINTS = (10.0, 50.0, 90.0, 95.0, 99.0, 99.9)


def exact_quantile(data: np.ndarray, percent: float) -> float:
    """The order statistic the histogram's rank convention targets."""
    return float(np.percentile(data, percent, method="inverted_cdf"))


class TestBucketing:
    def test_rejects_negative_latency(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record(-1e-3)
        with pytest.raises(ValueError):
            hist.record_many(np.array([1e-3, -1e-3]))

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0
        assert hist.summary() == "no samples"

    def test_record_many_matches_scalar_record(self, rng):
        # Sizes on both sides of record_many's scalar / vector selection
        # (a lane hands over 1 latency per batch, or hundreds), as an
        # array and as the plain list the serving lane passes.
        for size in (0, 1, 15, 16, 512, 2_000):
            values = rng.lognormal(mean=-7.0, sigma=1.5, size=size)
            a = LatencyHistogram()
            b = LatencyHistogram()
            c = LatencyHistogram()
            a.record_many(values)
            for v in values:
                b.record(float(v))
            c.record_many(values.tolist())
            for many in (a, c):
                assert np.array_equal(many.counts, b.counts)
                assert many.count == b.count == size
                assert many.min_seen == b.min_seen
                assert many.max_seen == b.max_seen
                assert many.sum == pytest.approx(b.sum)
                assert type(many.sum) is float

    def test_exact_side_statistics(self, rng):
        values = rng.uniform(1e-5, 1e-2, size=500)
        hist = LatencyHistogram()
        hist.record_many(values)
        assert hist.count == 500
        assert hist.mean == pytest.approx(float(values.mean()))
        assert hist.min_seen == pytest.approx(float(values.min()))
        assert hist.max_seen == pytest.approx(float(values.max()))

    def test_out_of_range_values_clamp(self):
        hist = LatencyHistogram()
        hist.record(MIN_LATENCY / 1e5)  # below range -> first bucket
        hist.record(MAX_LATENCY * 50)  # above range -> last bucket
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1
        assert hist.count == 2


class TestQuantileErrorBounds:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "distribution",
        ["lognormal", "uniform", "exponential", "bimodal"],
    )
    def test_quantiles_within_bucket_error_of_numpy(self, seed, distribution):
        """Every quantile estimate is within one geometric bucket of the
        exact sample quantile, across shapes and seeds."""
        rng = np.random.default_rng(seed)
        n = 5_000
        if distribution == "lognormal":
            data = rng.lognormal(mean=-7.0, sigma=2.0, size=n)
        elif distribution == "uniform":
            data = rng.uniform(2e-6, 5e-1, size=n)
        elif distribution == "exponential":
            data = rng.exponential(1e-3, size=n)
        else:
            data = np.concatenate(
                [rng.normal(2e-4, 2e-5, n // 2), rng.normal(3e-2, 3e-3, n // 2)]
            )
        data = np.clip(data, 1e-6, 5e2)  # keep inside the default range
        hist = LatencyHistogram()
        hist.record_many(data)
        g = hist.bucket_growth()
        for percent in POINTS:
            true = exact_quantile(data, percent)
            lo, hi = hist.quantile_bounds(percent / 100.0)
            # The exact order statistic lies in the reported bucket (one
            # float ulp of slack for the log10 index arithmetic).
            assert lo / (1.0 + 1e-9) <= true <= hi * (1.0 + 1e-9), (
                percent,
                true,
                (lo, hi),
            )
            # And the point estimate is within one bucket's relative error.
            estimate = hist.quantile(percent / 100.0)
            assert estimate <= true * g * (1.0 + 1e-9)
            assert estimate >= true / (g * (1.0 + 1e-9))

    def test_single_value_quantiles_are_exact(self):
        hist = LatencyHistogram()
        for _ in range(100):
            hist.record(3.3e-4)
        # Clamping to [min_seen, max_seen] collapses to the exact value.
        assert hist.quantile(0.5) == pytest.approx(3.3e-4)
        assert hist.quantile(0.999) == pytest.approx(3.3e-4)


class TestMerge:
    def test_merge_equals_joint_recording(self, rng):
        x = rng.exponential(1e-3, size=1_000)
        y = rng.lognormal(-6.0, 1.0, size=700)
        joint = LatencyHistogram()
        joint.record_many(np.concatenate([x, y]))
        merged = LatencyHistogram()
        part = LatencyHistogram()
        merged.record_many(x)
        part.record_many(y)
        merged.merge(part)
        assert np.array_equal(joint.counts, merged.counts)
        assert joint.count == merged.count
        assert joint.min_seen == merged.min_seen
        assert joint.max_seen == merged.max_seen
        assert joint.sum == pytest.approx(merged.sum)

    @settings(max_examples=50, deadline=None)
    @given(
        parts=st.lists(
            st.lists(
                st.floats(min_value=1e-6, max_value=1e2, allow_nan=False),
                min_size=0,
                max_size=40,
            ),
            min_size=1,
            max_size=6,
        ),
        split=st.integers(min_value=0, max_value=6),
    )
    def test_merge_associativity_property(self, parts, split):
        """((a+b)+c) == (a+(b+c)) == fold in any grouping: merging is
        associative, so any tree of per-lane merges agrees."""
        hists = []
        for values in parts:
            h = LatencyHistogram()
            h.record_many(np.asarray(values, dtype=np.float64))
            hists.append(h)
        split = min(split, len(hists))
        left = LatencyHistogram.merged(hists[:split])
        right = LatencyHistogram.merged(hists[split:])
        grouped = left.merge(right)  # (fold left) + (fold right)
        flat = LatencyHistogram.merged(hists)  # fold all, left to right
        assert np.array_equal(grouped.counts, flat.counts)
        assert grouped.count == flat.count
        assert grouped.sum == pytest.approx(flat.sum)
        assert grouped.min_seen == flat.min_seen
        assert grouped.max_seen == flat.max_seen
        # Quantiles agree exactly: same counts, same exact min/max clamp.
        for q in (0.5, 0.99):
            assert grouped.quantile(q) == flat.quantile(q)

    def test_merged_of_nothing_is_empty(self):
        hist = LatencyHistogram.merged([])
        assert hist.count == 0

    def test_diff_recovers_the_delta_period(self, rng):
        first = rng.exponential(1e-3, size=400)
        second = rng.lognormal(-6.0, 1.0, size=300)
        hist = LatencyHistogram()
        hist.record_many(first)
        base = hist.copy()
        hist.record_many(second)
        delta = hist.diff(base)
        expected = LatencyHistogram()
        expected.record_many(second)
        assert np.array_equal(delta.counts, expected.counts)
        assert delta.count == 300
        assert delta.sum == pytest.approx(expected.sum)
        # Min/max tighten to delta bucket edges (exact values unknowable).
        g = hist.bucket_growth()
        assert delta.min_seen <= expected.min_seen * (1 + 1e-9)
        assert delta.max_seen >= expected.max_seen / (1 + 1e-9)
        assert delta.min_seen >= expected.min_seen / (g * (1 + 1e-9))
        assert delta.max_seen <= expected.max_seen * g * (1 + 1e-9)

    def test_diff_with_empty_base_is_exact(self, rng):
        values = rng.exponential(1e-3, size=100)
        hist = LatencyHistogram()
        base = hist.copy()
        hist.record_many(values)
        delta = hist.diff(base)
        assert delta.count == 100
        assert delta.min_seen == hist.min_seen
        assert delta.max_seen == hist.max_seen

    def test_diff_rejects_non_prefix_base(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        b.record(1e-3)
        with pytest.raises(ValueError):
            a.diff(b)

    def test_copy_is_independent(self):
        a = LatencyHistogram()
        a.record(1e-3)
        b = a.copy()
        b.record(1e-3)
        assert a.count == 1
        assert b.count == 2


class TestReporting:
    def test_percentiles_keys(self, rng):
        hist = LatencyHistogram()
        hist.record_many(rng.exponential(1e-3, size=200))
        p = hist.percentiles()
        assert set(p) == {50.0, 95.0, 99.0, 99.9}
        assert all(v > 0 for v in p.values())

    def test_summary_mentions_tails(self, rng):
        hist = LatencyHistogram()
        hist.record_many(rng.exponential(1e-3, size=200))
        text = hist.summary()
        assert "p99.9" in text and "mean" in text

    def test_bucket_geometry_matches_constants(self):
        hist = LatencyHistogram()
        assert hist.bucket_growth() == pytest.approx(10 ** (1 / BUCKETS_PER_DECADE))
        lo, hi = hist.bucket_edges(0)
        assert lo == pytest.approx(MIN_LATENCY)
        assert hi / lo == pytest.approx(hist.bucket_growth())
        # The buckets cover the whole measurable range, and no more than it.
        assert len(hist.counts) == N_BUCKETS
        assert hist.bucket_edges(N_BUCKETS - 1)[1] >= MAX_LATENCY * (1 - 1e-9)
        assert hist.bucket_edges(N_BUCKETS - 2)[1] < MAX_LATENCY
