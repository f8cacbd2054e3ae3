"""Tests for repro.lsm.tree: compaction mechanics, cost accounting and
invariants. Correctness against a dict model, for this tree and every
engine built on it, is the differential oracle's (``tests/test_oracle.py``)."""

import numpy as np
import pytest

from repro.config import TransitionKind
from repro.errors import TreeStateError
from repro.lsm.iterators import live_items
from repro.lsm.tree import LSMTree


def build_tree(config):
    return LSMTree(config)


class TestBasicOperations:
    def test_put_get_roundtrip(self, tiny_config):
        tree = build_tree(tiny_config)
        tree.put(1, 100)
        assert tree.get(1) == 100

    def test_get_missing_returns_none(self, tiny_config):
        tree = build_tree(tiny_config)
        assert tree.get(42) is None

    def test_overwrite(self, tiny_config):
        tree = build_tree(tiny_config)
        tree.put(1, 100)
        tree.put(1, 200)
        assert tree.get(1) == 200

    def test_delete_hides_key(self, tiny_config):
        tree = build_tree(tiny_config)
        tree.put(1, 100)
        tree.delete(1)
        assert tree.get(1) is None

    def test_delete_survives_flushes(self, tiny_config):
        tree = build_tree(tiny_config)
        tree.put(1, 100)
        # Force several flushes so both versions reach disk.
        for i in range(100, 200):
            tree.put(i, i)
        tree.delete(1)
        for i in range(200, 300):
            tree.put(i, i)
        assert tree.get(1) is None

    def test_updates_cross_levels(self, tiny_config):
        tree = build_tree(tiny_config)
        tree.put(5, 1)
        for i in range(1000, 1300):
            tree.put(i, i)  # push version of key 5 deep
        tree.put(5, 2)
        assert tree.get(5) == 2

    def test_operation_counting(self, tiny_config):
        tree = build_tree(tiny_config)
        tree.put(1, 1)
        tree.get(1)
        tree.get(2)
        tree.delete(1)
        assert tree.stats.total_updates == 2
        assert tree.stats.total_lookups == 2


class TestCompactionMechanics:
    def test_flush_creates_level_one(self, tiny_config):
        tree = build_tree(tiny_config)
        capacity = tiny_config.buffer_capacity_entries
        for i in range(capacity):
            tree.put(i, i)
        assert tree.n_levels >= 1
        assert tree.level(1).data_entries > 0

    def test_cascade_creates_deeper_levels(self, tiny_config):
        tree = build_tree(tiny_config)
        for i in range(2000):
            tree.put(i, i)
        assert tree.n_levels >= 3
        tree.check_invariants()

    def test_levels_respect_capacity(self, tiny_config):
        tree = build_tree(tiny_config)
        for i in range(3000):
            tree.put(int(i * 7919 % 100000), i)
        tree.check_invariants()
        for level in tree.levels:
            assert level.data_entries <= level.capacity_entries

    def test_compaction_charges_write_time(self, tiny_config):
        tree = build_tree(tiny_config)
        for i in range(200):
            tree.put(i, i)
        assert tree.stats.total_write_time > 0
        assert tree.clock.now > 0

    def test_lookup_charges_read_time(self, tiny_config):
        tree = build_tree(tiny_config)
        for i in range(200):
            tree.put(i, i)
        before = tree.stats.total_read_time
        tree.get(50)
        assert tree.stats.total_read_time > before

    def test_tombstones_dropped_at_bottom(self, tiny_config):
        tree = build_tree(tiny_config)
        for i in range(50):
            tree.put(i, i)
        for i in range(50):
            tree.delete(i)
        # Push everything to the bottom via more writes.
        for i in range(1000, 3000):
            tree.put(i, i)
        keys, values = live_items(tree)
        assert not (np.isin(np.arange(50), keys)).any()

    def test_force_merge_empties_level(self, tiny_config):
        tree = build_tree(tiny_config)
        for i in range(500):
            tree.put(i, i)
        populated = [l.level_no for l in tree.levels if not l.is_empty]
        target = populated[0]
        tree.force_merge_level(target)
        assert tree.level(target).is_empty
        tree.check_invariants()

    def test_merge_preserves_data(self, tiny_config):
        tree = build_tree(tiny_config)
        expected = {}
        for i in range(700):
            key = int(i * 31 % 900)
            tree.put(key, i)
            expected[key] = i
        tree.force_merge_level(1)
        keys, values = live_items(tree)
        assert dict(zip(keys.tolist(), values.tolist())) == expected


class TestBatchAndRange:
    def _loaded_tree(self, config, n=800):
        tree = build_tree(config)
        model = {}
        rng = np.random.default_rng(5)
        for i in range(n):
            key = int(rng.integers(0, 2000))
            value = int(rng.integers(0, 10**6))
            tree.put(key, value)
            model[key] = value
        return tree, model, rng

    def test_get_batch_matches_serial(self, tiny_config):
        tree, model, rng = self._loaded_tree(tiny_config)
        probes = rng.integers(0, 2500, size=300).astype(np.int64)
        found, values = tree.get_batch(probes)
        for i, probe in enumerate(probes):
            expected = model.get(int(probe))
            if expected is None:
                assert not found[i]
            else:
                assert found[i] and values[i] == expected

    def test_get_batch_counts_lookups(self, tiny_config):
        tree, _, _ = self._loaded_tree(tiny_config, n=100)
        before = tree.stats.total_lookups
        tree.get_batch(np.arange(50, dtype=np.int64))
        assert tree.stats.total_lookups == before + 50

    def test_get_batch_sees_memtable(self, tiny_config):
        tree = build_tree(tiny_config)
        tree.put(3, 33)  # stays in memtable (buffer not full)
        found, values = tree.get_batch(np.asarray([3], dtype=np.int64))
        assert found[0] and values[0] == 33

    def test_get_batch_respects_tombstones(self, tiny_config):
        tree, model, _ = self._loaded_tree(tiny_config, n=200)
        victim = next(iter(model))
        tree.delete(victim)
        found, _ = tree.get_batch(np.asarray([victim], dtype=np.int64))
        assert not found[0]

    def test_range_lookup_matches_model(self, tiny_config):
        tree, model, _ = self._loaded_tree(tiny_config)
        result = tree.range_lookup(100, 400)
        expected = sorted((k, v) for k, v in model.items() if 100 <= k <= 400)
        assert result == expected

    def test_range_lookup_includes_memtable(self, tiny_config):
        tree = build_tree(tiny_config)
        tree.put(5, 50)
        assert tree.range_lookup(0, 10) == [(5, 50)]

    def test_range_lookup_excludes_deleted(self, tiny_config):
        tree, model, _ = self._loaded_tree(tiny_config, n=300)
        victim = sorted(model)[0]
        tree.delete(victim)
        result = dict(tree.range_lookup(victim, victim + 10))
        assert victim not in result

    def test_range_rejects_inverted_bounds(self, tiny_config):
        with pytest.raises(ValueError):
            build_tree(tiny_config).range_lookup(10, 5)

    def test_range_counts_as_range_op(self, tiny_config):
        tree = build_tree(tiny_config)
        tree.range_lookup(0, 10)
        assert tree.stats.total_ranges == 1


class TestBulkLoad:
    def test_bulk_load_lookups_work(self, tiny_config, rng):
        tree = build_tree(tiny_config)
        keys = rng.choice(10**5, size=400, replace=False).astype(np.int64)
        values = np.arange(400, dtype=np.int64)
        tree.bulk_load(keys, values)
        for i in (0, 100, 399):
            assert tree.get(int(keys[i])) == int(values[i])

    def test_bulk_load_is_free(self, tiny_config, rng):
        tree = build_tree(tiny_config)
        keys = rng.choice(10**5, size=400, replace=False).astype(np.int64)
        tree.bulk_load(keys, keys)
        assert tree.clock.now == 0.0

    def test_bulk_load_requires_empty_tree(self, tiny_config):
        tree = build_tree(tiny_config)
        tree.put(1, 1)
        with pytest.raises(TreeStateError):
            tree.bulk_load(np.asarray([2], dtype=np.int64), np.asarray([2]))

    def test_bulk_load_distribute_splits_runs(self, small_config, rng):
        config = small_config.with_updates(initial_policy=10)
        tree = build_tree(config)
        keys = rng.choice(10**6, size=20_000, replace=False).astype(np.int64)
        tree.bulk_load(keys, keys, distribute=True)
        tree.check_invariants()
        # At K=10 a ~63%-full bottom level should carry several sealed runs.
        deepest = tree.levels[-1]
        assert deepest.n_runs >= 3
        keys_live, _ = live_items(tree)
        assert len(keys_live) == 20_000

    def test_bulk_load_distribute_preserves_lookups(self, small_config, rng):
        tree = build_tree(small_config.with_updates(initial_policy=5))
        keys = rng.choice(10**6, size=3000, replace=False).astype(np.int64)
        values = rng.integers(0, 10**6, size=3000).astype(np.int64)
        tree.bulk_load(keys, values, distribute=True)
        idx = rng.integers(0, 3000, size=100)
        for i in idx:
            assert tree.get(int(keys[i])) == int(values[i])

    def test_bulk_load_empty_is_noop(self, tiny_config):
        tree = build_tree(tiny_config)
        tree.bulk_load(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert tree.n_levels == 0


class TestPolicyControl:
    def test_set_policies_applies_each_level(self, tiny_config):
        tree = build_tree(tiny_config)
        for i in range(1500):
            tree.put(i, i)
        n = tree.n_levels
        target = [min(i + 1, tiny_config.size_ratio) for i in range(n)]
        tree.set_policies(target, TransitionKind.FLEXIBLE)
        assert tree.policies() == target

    def test_describe_structure(self, tiny_config):
        tree = build_tree(tiny_config)
        for i in range(200):
            tree.put(i, i)
        description = tree.describe()
        assert description[0]["level"] == 1
        assert set(description[0]) >= {"policy", "runs", "entries", "fill"}

    def test_level_accessor_bounds(self, tiny_config):
        tree = build_tree(tiny_config)
        with pytest.raises(TreeStateError):
            tree.level(1)

    def test_bitarray_bloom_end_to_end(self, bitarray_config):
        tree = build_tree(bitarray_config)
        model = {}
        for i in range(600):
            key = int(i * 13 % 1500)
            tree.put(key, i)
            model[key] = i
        for key in list(model)[:100]:
            assert tree.get(key) == model[key]

    def test_block_cache_reduces_read_time(self, tiny_config):
        base = build_tree(tiny_config)
        cached = build_tree(tiny_config.with_updates(block_cache_pages=4096))
        for tree in (base, cached):
            for i in range(500):
                tree.put(i, i)
        # Repeated hot lookups: the cached tree should spend less read time.
        for tree in (base, cached):
            for _ in range(30):
                for key in range(40):
                    tree.get(key)
        assert cached.stats.total_read_time < base.stats.total_read_time


class TestSetBitsPerKey:
    def test_updates_level_fprs(self, tiny_config):
        tree = LSMTree(tiny_config)
        for i in range(300):
            tree.put(i, i)
        old_fprs = [level.fpr for level in tree.levels]
        tree.set_bits_per_key(tiny_config.bits_per_key * 2)
        new_fprs = [level.fpr for level in tree.levels]
        assert all(new < old for new, old in zip(new_fprs, old_fprs))

    def test_existing_runs_keep_filters(self, tiny_config):
        tree = LSMTree(tiny_config)
        for i in range(300):
            tree.put(i, i)
        run = next(r for level in tree.levels for r in level.runs)
        fpr_before = run.fpr
        tree.set_bits_per_key(16.0)
        assert run.fpr == fpr_before

    def test_new_runs_use_new_budget(self, tiny_config):
        tree = LSMTree(tiny_config)
        for i in range(300):
            tree.put(i, i)
        tree.set_bits_per_key(16.0)
        for i in range(300, 600):
            tree.put(i, i)
        newest = tree.levels[0].runs[-1]
        assert newest.fpr == pytest.approx(tree.levels[0].fpr)

    def test_rejects_nonpositive(self, tiny_config):
        tree = LSMTree(tiny_config)
        with pytest.raises(TreeStateError):
            tree.set_bits_per_key(0.0)

    def test_lookups_still_correct_after_change(self, tiny_config):
        tree = LSMTree(tiny_config)
        for i in range(400):
            tree.put(i, i * 3)
        tree.set_bits_per_key(2.0)
        for i in range(400, 800):
            tree.put(i, i * 3)
        for key in (0, 200, 500, 799):
            assert tree.get(key) == key * 3
