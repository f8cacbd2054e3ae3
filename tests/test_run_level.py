"""Tests for repro.lsm.run and repro.lsm.level."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_get import bloom_positive, find, find_batch, page_of_position
from reference_range import range_slice

from repro.config import BloomMode
from repro.errors import PolicyError, TreeStateError
from repro.lsm.level import Level
from repro.lsm.run import SortedRun


def make_run(keys, values=None, run_id=0, fpr=0.01, capacity=1000,
             entries_per_page=4, sealed=False, bloom=BloomMode.ANALYTICAL):
    keys = np.asarray(keys, dtype=np.int64)
    if values is None:
        values = keys * 10
    values = np.asarray(values, dtype=np.int64)
    return SortedRun(
        run_id=run_id,
        level_no=1,
        keys=keys,
        values=values,
        fpr=fpr,
        capacity_entries=capacity,
        entries_per_page=entries_per_page,
        bloom_mode=bloom,
        rng=np.random.default_rng(0),
        sealed=sealed,
    )


class TestSortedRunConstruction:
    def test_rejects_unsorted_keys(self):
        with pytest.raises(TreeStateError):
            make_run([3, 1, 2])

    def test_rejects_duplicate_keys(self):
        with pytest.raises(TreeStateError):
            make_run([1, 1, 2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(TreeStateError):
            make_run([1, 2], values=[1])

    def test_rejects_bad_entries_per_page(self):
        with pytest.raises(TreeStateError):
            make_run([1], entries_per_page=0)

    def test_size_accounting(self):
        run = make_run(range(0, 20, 2), entries_per_page=4)
        assert run.n_entries == 10
        assert run.n_pages == 3  # ceil(10/4)
        assert run.keys[0] == 0 and run.keys[-1] == 18
        assert not run.is_empty

    def test_empty_run(self):
        run = make_run([])
        assert run.is_empty
        assert run.n_pages == 0
        assert len(run.keys) == 0

    def test_capacity_flag(self):
        run = make_run([1, 2, 3], capacity=3)
        assert run.is_at_capacity
        assert not make_run([1, 2], capacity=3).is_at_capacity

    def test_seal(self):
        run = make_run([1])
        assert not run.sealed
        run.seal()
        assert run.sealed

    def test_repr_shows_state(self):
        assert "active" in repr(make_run([1]))
        assert "sealed" in repr(make_run([1], sealed=True))


class TestSortedRunLookups:
    def test_find_present(self):
        run = make_run([10, 20, 30])
        found, value, page = find(run, 20)
        assert found and value == 200

    def test_find_absent_gives_probe_page(self):
        run = make_run(range(0, 40, 2), entries_per_page=4)
        found, _, page = find(run, 33)
        assert not found
        assert 0 <= page < run.n_pages

    def test_page_of_position_layout(self):
        run = make_run(range(10), entries_per_page=4)
        assert page_of_position(run, 0) == 0
        assert page_of_position(run, 3) == 0
        assert page_of_position(run, 4) == 1
        assert page_of_position(run, 9) == 2

    def test_find_batch_matches_single(self):
        rng = np.random.default_rng(3)
        keys = np.sort(rng.choice(1000, size=100, replace=False))
        run = make_run(keys)
        probes = rng.integers(0, 1200, size=200).astype(np.int64)
        found, values, pages = find_batch(run, probes)
        for i, probe in enumerate(probes):
            f, v, p = find(run, int(probe))
            assert found[i] == f
            assert pages[i] == p
            if f:
                assert values[i] == v

    def test_find_batch_empty_run(self):
        run = make_run([])
        found, values, pages = find_batch(run, np.asarray([1, 2], dtype=np.int64))
        assert not found.any()

    def test_bloom_negative_only_for_absent(self):
        run = make_run([1, 2, 3], fpr=0.5)
        for key in (1, 2, 3):
            assert bloom_positive(run, key)

    def test_bitarray_mode_works(self):
        run = make_run(range(100), bloom=BloomMode.BIT_ARRAY, fpr=0.01)
        assert bloom_positive(run, 50)
        batch = run.bloom_positive_batch(np.arange(100, dtype=np.int64))
        assert batch.all()


class TestSortedRunRange:
    def test_range_slice_inclusive(self):
        run = make_run(range(0, 100, 10))
        keys, values, pages = range_slice(run, 20, 50)
        assert keys.tolist() == [20, 30, 40, 50]
        assert pages >= 1

    def test_range_slice_empty_overlap_costs_nothing(self):
        run = make_run(range(0, 100, 10))
        keys, _, pages = range_slice(run, 101, 200)
        assert len(keys) == 0
        assert pages == 0

    def test_range_slice_page_count(self):
        run = make_run(range(16), entries_per_page=4)
        _, _, pages = range_slice(run, 0, 15)
        assert pages == 4
        _, _, pages = range_slice(run, 0, 3)
        assert pages == 1

    @given(
        st.lists(st.integers(0, 500), min_size=1, max_size=80, unique=True),
        st.integers(0, 500),
        st.integers(0, 500),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_matches_filter(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        run = make_run(sorted(keys))
        got, _, _ = range_slice(run, lo, hi)
        assert got.tolist() == sorted(k for k in keys if lo <= k <= hi)


class TestLevel:
    def _level(self, policy=2, capacity=100, max_policy=10):
        return Level(
            level_no=1, capacity_entries=capacity, policy=policy,
            fpr=0.01, max_policy=max_policy,
        )

    def test_validation(self):
        with pytest.raises(TreeStateError):
            Level(0, 100, 1, 0.01, 10)
        with pytest.raises(TreeStateError):
            Level(1, 0, 1, 0.01, 10)
        with pytest.raises(PolicyError):
            self._level(policy=0)
        with pytest.raises(PolicyError):
            self._level(policy=11)

    def test_active_run_capacity(self):
        level = self._level(policy=4, capacity=100)
        assert level.active_run_capacity() == 25

    def test_fill_and_counts(self):
        level = self._level(capacity=100)
        level.runs.append(make_run(range(30), sealed=True))
        level.runs.append(make_run(range(100, 120)))
        assert level.data_entries == 50
        assert level.fill_ratio == pytest.approx(0.5)
        assert level.n_runs == 2
        assert level.active_run is not None
        assert len(level.sealed_runs) == 1

    def test_active_run_none_when_tail_sealed(self):
        level = self._level()
        level.runs.append(make_run(range(10), sealed=True))
        assert level.active_run is None

    def test_replace_active_returns_old(self):
        level = self._level(capacity=100)
        old = make_run(range(5))
        level.runs.append(old)
        new = make_run(range(10), run_id=1)
        replaced = level.replace_active(new)
        assert replaced is old
        assert level.runs[-1] is new

    def test_replace_active_seals_at_capacity(self):
        level = self._level(policy=2, capacity=20)
        full = make_run(range(10), capacity=10)
        level.replace_active(full)
        assert full.sealed

    def test_flexible_shrink_seals_oversized_active(self):
        level = self._level(policy=1, capacity=100)
        active = make_run(range(60), capacity=100)
        level.runs.append(active)
        level.set_policy_flexible(10)  # new active capacity = 10 < 60
        assert active.sealed
        assert active.capacity_entries == 10
        assert level.policy == 10

    def test_flexible_grow_keeps_active_open(self):
        level = self._level(policy=10, capacity=100)
        active = make_run(range(5), capacity=10)
        level.runs.append(active)
        level.set_policy_flexible(2)
        assert not active.sealed
        assert active.capacity_entries == 50

    def test_flexible_never_touches_sealed_runs(self):
        level = self._level(policy=5, capacity=100)
        sealed = make_run(range(20), capacity=20, sealed=True)
        level.runs.append(sealed)
        level.set_policy_flexible(1)
        assert sealed.capacity_entries == 20  # untouched

    def test_lazy_policy_applies_on_empty(self):
        level = self._level(policy=2)
        level.set_policy_lazy(7)
        assert level.policy == 2
        assert level.pending_policy == 7
        level.drop_all_runs()
        assert level.policy == 7
        assert level.pending_policy is None

    def test_lazy_same_policy_clears_pending(self):
        level = self._level(policy=2)
        level.set_policy_lazy(7)
        level.set_policy_lazy(2)
        assert level.pending_policy is None

    def test_immediate_policy_clears_pending(self):
        level = self._level(policy=2)
        level.set_policy_lazy(7)
        level.set_policy_immediate(3)
        assert level.policy == 3
        assert level.pending_policy is None

    def test_invariants_detect_unsealed_middle_run(self):
        level = self._level()
        level.runs.append(make_run(range(5)))  # unsealed, not tail
        level.runs.append(make_run(range(10, 15)))
        with pytest.raises(TreeStateError):
            level.check_invariants()
