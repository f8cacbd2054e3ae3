"""Tests for repro.lsm.entry and repro.lsm.memtable."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_range import range_items_scan

from repro.errors import ConfigError
from repro.lsm.entry import TOMBSTONE, merge_sorted_sources, validate_value
from repro.lsm.memtable import MemTable


def buffer_put(table, key, value):
    """One write through the memtable's one write entry."""
    table.put_batch(
        np.array([key], dtype=np.int64), np.array([value], dtype=np.int64)
    )


def buffer_delete(table, key):
    """A delete is a write of the tombstone."""
    buffer_put(table, key, TOMBSTONE)


class TestEntry:
    def test_validate_value_rejects_tombstone(self):
        with pytest.raises(ValueError):
            validate_value(TOMBSTONE)

    def test_validate_value_passes_normal(self):
        assert validate_value(42) == 42
        assert validate_value(-1) == -1


class TestMergeSortedSources:
    def _merge(self, *sources, drop=False):
        keys = [np.asarray(k, dtype=np.int64) for k, _ in sources]
        vals = [np.asarray(v, dtype=np.int64) for _, v in sources]
        return merge_sorted_sources(keys, vals, drop_tombstones=drop)

    def test_empty_input(self):
        keys, values = merge_sorted_sources([], [])
        assert len(keys) == 0
        assert len(values) == 0

    def test_single_source_passthrough(self):
        keys, values = self._merge(([1, 2, 3], [10, 20, 30]))
        assert keys.tolist() == [1, 2, 3]
        assert values.tolist() == [10, 20, 30]

    def test_newest_wins(self):
        keys, values = self._merge(
            ([1, 2], [10, 20]),  # oldest
            ([2, 3], [99, 30]),  # newest
        )
        assert keys.tolist() == [1, 2, 3]
        assert values.tolist() == [10, 99, 30]

    def test_three_way_priority(self):
        keys, values = self._merge(
            ([5], [1]),
            ([5], [2]),
            ([5], [3]),
        )
        assert keys.tolist() == [5]
        assert values.tolist() == [3]

    def test_tombstones_kept_by_default(self):
        keys, values = self._merge(([1, 2], [10, TOMBSTONE]))
        assert values.tolist() == [10, TOMBSTONE]

    def test_tombstones_dropped_on_request(self):
        keys, values = self._merge(
            ([1, 2], [10, 20]),
            ([2], [TOMBSTONE]),
            drop=True,
        )
        assert keys.tolist() == [1]
        assert values.tolist() == [10]

    def test_tombstone_overridden_by_newer_put(self):
        keys, values = self._merge(
            ([2], [TOMBSTONE]),
            ([2], [77]),
            drop=True,
        )
        assert keys.tolist() == [2]
        assert values.tolist() == [77]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            merge_sorted_sources([np.zeros(1, dtype=np.int64)], [])

    @given(
        st.lists(
            st.dictionaries(
                st.integers(-1000, 1000), st.integers(-100, 100), max_size=30
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_semantics(self, layers):
        """Merging layers oldest→newest equals stacking dict updates."""
        expected = {}
        key_arrays, value_arrays = [], []
        for layer in layers:
            expected.update(layer)
            items = sorted(layer.items())
            key_arrays.append(np.asarray([k for k, _ in items], dtype=np.int64))
            value_arrays.append(np.asarray([v for _, v in items], dtype=np.int64))
        keys, values = merge_sorted_sources(key_arrays, value_arrays)
        assert dict(zip(keys.tolist(), values.tolist())) == expected
        assert keys.tolist() == sorted(expected)


class TestMemTable:
    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            MemTable(0)

    def test_put_get(self):
        table = MemTable(4)
        buffer_put(table, 1, 100)
        assert table.get(1) == 100
        assert table.get(2) is None

    def test_overwrite_keeps_size(self):
        table = MemTable(4)
        buffer_put(table, 1, 100)
        buffer_put(table, 1, 200)
        assert len(table) == 1
        assert table.get(1) == 200

    def test_is_full(self):
        table = MemTable(2)
        buffer_put(table, 1, 1)
        assert not table.is_full
        buffer_put(table, 2, 2)
        assert table.is_full

    def test_delete_buffers_tombstone(self):
        table = MemTable(4)
        buffer_delete(table, 9)
        assert table.get(9) == TOMBSTONE
        assert 9 in table

    def test_drain_sorted_returns_sorted_and_clears(self):
        table = MemTable(8)
        for key in (5, 1, 3):
            buffer_put(table, key, key * 10)
        keys, values = table.drain_sorted()
        assert keys.tolist() == [1, 3, 5]
        assert values.tolist() == [10, 30, 50]
        assert len(table) == 0

    def test_drain_empty(self):
        keys, values = MemTable(4).drain_sorted()
        assert len(keys) == 0
        assert len(values) == 0

    def test_drain_keeps_tombstones(self):
        table = MemTable(4)
        buffer_put(table, 1, 10)
        buffer_delete(table, 2)
        keys, values = table.drain_sorted()
        assert keys.tolist() == [1, 2]
        assert values.tolist() == [10, TOMBSTONE]

    def test_range_items_scan(self):
        table = MemTable(8)
        for key in range(6):
            buffer_put(table, key, key)
        assert range_items_scan(table, 2, 4) == {2: 2, 3: 3, 4: 4}

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 100)), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_model(self, operations):
        table = MemTable(1000)
        model = {}
        for key, value in operations:
            buffer_put(table, key, value)
            model[key] = value
        for key in model:
            assert table.get(key) == model[key]
        keys, values = table.drain_sorted()
        assert dict(zip(keys.tolist(), values.tolist())) == model

    def test_get_batch_matches_serial_get(self):
        table = MemTable(64)
        rng = np.random.default_rng(5)
        for key in rng.integers(0, 40, size=50):
            buffer_put(table, int(key), int(key) * 7)
        buffer_delete(table, 3)
        probes = rng.integers(-5, 60, size=200)
        buffered, values = table.get_batch(probes)
        for i, key in enumerate(probes.tolist()):
            expected = table.get(key)
            if expected is None:
                assert not buffered[i]
            else:
                assert buffered[i]
                assert values[i] == expected

    def test_get_batch_surfaces_tombstones(self):
        table = MemTable(8)
        buffer_put(table, 1, 10)
        buffer_delete(table, 2)
        buffered, values = table.get_batch(np.asarray([1, 2, 3]))
        assert buffered.tolist() == [True, True, False]
        assert values[0] == 10
        assert values[1] == TOMBSTONE

    def test_get_batch_empty_cases(self):
        table = MemTable(4)
        buffered, values = table.get_batch(np.zeros(0, dtype=np.int64))
        assert len(buffered) == 0 and len(values) == 0
        buffered, values = table.get_batch(np.asarray([1, 2]))
        assert not buffered.any()
