"""Tests for repro.engine: the KVEngine protocol, the sharded store and the
vectorized batch write path."""

import contextlib
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_put import reference_delete, reference_put
from test_readpath import DYADIC_COSTS, ENGINE_KINDS, make_engine

from repro.config import SystemConfig, TransitionKind
from repro.core.lerp import Lerp
from repro.core.missions import MissionRunner
from repro.core.ruskey import RusKey
from repro.core.tuners import StaticTuner
from repro.engine import (
    KVEngine,
    ShardedStore,
    merge_mission_stats,
    shard_of,
    shard_of_key,
)
from repro.errors import ConfigError, TreeStateError
from repro.lsm.entry import TOMBSTONE
from repro.lsm import FLSMTree
from repro.lsm.memtable import MemTable
from repro.lsm.tree import LSMTree
from repro.workload.uniform import UniformWorkload
from repro.workload.ycsb import YCSBWorkload


@pytest.fixture
def records(rng):
    keys = rng.choice(10**6, size=4000, replace=False).astype(np.int64)
    values = rng.integers(0, 2**31, size=4000).astype(np.int64)
    return keys, values


def assert_mission_stats_equal(a, b, exact_times=True):
    assert a.n_lookups == b.n_lookups
    assert a.n_updates == b.n_updates
    assert a.n_ranges == b.n_ranges
    if exact_times:
        assert a.io == b.io
        assert a.read_time == pytest.approx(b.read_time, abs=0.0)
        assert a.write_time == pytest.approx(b.write_time, abs=0.0)
        assert a.sim_duration == pytest.approx(b.sim_duration, abs=0.0)
        assert a.level_read_time == b.level_read_time
        assert a.level_write_time == b.level_write_time
    else:
        assert a.io.total == pytest.approx(b.io.total, rel=0.05)
        assert a.total_time == pytest.approx(b.total_time, rel=0.05)


def write_observables(engine):
    """Everything a write may change: the view, the structure and, per
    tree, memtable insertion order and the Bloom RNG state."""
    trees = engine.tuning_targets()
    return (
        engine.view(),
        [tree.describe() for tree in trees],
        [list(tree.memtable._entries.items()) for tree in trees],
        [tree._rng.bit_generator.state for tree in trees],
    )


@contextlib.contextmanager
def write_twins(kind, config, data_dir):
    """An engine of ``kind`` for the batch path and its twin for the
    test-side per-key reference loop (``tests/reference_put.py``). A
    durable store's twin is a bare tree: the reference writes skip the
    WAL, and the store must be sim-identical to a bare tree anyway."""
    batched = make_engine(kind, config, data_dir)
    serial = make_engine("tree" if kind == "durable" else kind, config, None)
    try:
        yield batched, serial
    finally:
        if kind == "durable":
            batched.close()


def apply_write_stream(op, batched, serial, keys, values, chunk):
    """``keys`` (and ``values`` for a put stream) through the batch path,
    ``chunk`` at a time, and through the reference loop, key by key."""
    if op == "put":
        for start in range(0, len(keys), chunk):
            batched.put_batch(keys[start : start + chunk], values[start : start + chunk])
        for k, v in zip(keys.tolist(), values.tolist()):
            reference_put(serial, k, v)
    else:
        for start in range(0, len(keys), chunk):
            batched.delete_batch(keys[start : start + chunk])
        for k in keys.tolist():
            reference_delete(serial, k)


class TestProtocol:
    def test_trees_conform(self, tiny_config):
        assert isinstance(LSMTree(tiny_config), KVEngine)
        assert isinstance(FLSMTree(tiny_config), KVEngine)

    def test_sharded_store_conforms(self, tiny_config):
        assert isinstance(ShardedStore(tiny_config, 4), KVEngine)

    def test_non_engine_rejected(self):
        assert not isinstance(object(), KVEngine)

    def test_tree_engine_surface(self, tiny_config):
        tree = LSMTree(tiny_config)
        assert tree.tuning_targets() == [tree]
        assert tree.io_counters is tree.disk.counters
        assert tree.clock_now == tree.clock.now
        tree.begin_mission()
        tree.put(1, 2)
        stats = tree.end_mission()
        assert stats.n_updates == 1
        assert tree.last_mission_breakdown() == [stats]


class TestShardRouting:
    def test_scalar_matches_vector(self, rng):
        keys = rng.integers(-(2**62), 2**62, size=1000).astype(np.int64)
        for n_shards in (1, 2, 4, 7):
            vec = shard_of(keys, n_shards)
            assert vec.min() >= 0 and vec.max() < n_shards
            scalars = [shard_of_key(int(k), n_shards) for k in keys]
            assert vec.tolist() == scalars

    def test_spread_is_even_for_sequential_keys(self):
        ids = shard_of(np.arange(100_000, dtype=np.int64), 4)
        counts = np.bincount(ids, minlength=4)
        assert counts.min() > 20_000  # ~25k each

    def test_bad_shard_count(self, tiny_config):
        with pytest.raises(ConfigError):
            ShardedStore(tiny_config, 0)
        with pytest.raises(ConfigError):
            RusKey(tiny_config, n_shards=0)


class TestPutBatch:
    def test_memtable_batch_stops_at_capacity(self):
        table = MemTable(4)
        keys = np.arange(10, dtype=np.int64)
        consumed = 0
        while consumed < len(keys) and not table.is_full:
            consumed += table.put_batch(keys[consumed:], keys[consumed:])
        assert consumed == 4  # stops exactly where per-key puts would flush
        assert table.is_full
        table.clear()
        assert table.put_batch(keys[:3], keys[:3]) == 3
        assert not table.is_full

    def test_memtable_batch_duplicates_do_not_consume_capacity(self):
        table = MemTable(4)
        keys = np.array([1, 1, 2, 2, 3, 3], dtype=np.int64)
        values = np.arange(6, dtype=np.int64)
        consumed = 0
        while consumed < len(keys) and not table.is_full:
            consumed += table.put_batch(keys[consumed:], values[consumed:])
        assert consumed == 6
        assert len(table) == 3
        assert not table.is_full
        # Newest value of each duplicate wins, as with per-key puts.
        assert table.get(1) == 1 and table.get(2) == 3 and table.get(3) == 5

    def test_tree_batch_exact_at_fill_boundary_with_duplicates(self, tiny_config):
        """A batch that exactly fills the buffer and then keeps overwriting
        must flush at the same point a per-key loop would."""
        capacity = tiny_config.buffer_capacity_entries
        fill = np.arange(capacity, dtype=np.int64)
        # Fill to capacity, then overwrite some of the same keys.
        keys = np.concatenate([fill, fill[: capacity // 2]])
        values = np.arange(len(keys), dtype=np.int64)
        serial, batched = LSMTree(tiny_config), LSMTree(tiny_config)
        for k, v in zip(keys.tolist(), values.tolist()):
            reference_put(serial, k, v)
        batched.put_batch(keys, values)
        assert serial.clock_now == batched.clock_now
        assert serial.io_counters == batched.io_counters
        assert len(serial.memtable) == len(batched.memtable)
        probe = np.arange(capacity, dtype=np.int64)
        _, sv = serial.get_batch(probe)
        _, bv = batched.get_batch(probe)
        assert (sv == bv).all()

    @pytest.mark.parametrize("op", ("put", "delete"))
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_exactly_matches_per_key_puts(
        self, tiny_config, records, tmp_path, kind, op
    ):
        """``put_batch`` / ``delete_batch`` ≡ the per-key reference loop in
        every simulated observable, on every engine kind. The delete
        stream runs over the ingested records: live keys, absent keys and
        keys deleted twice."""
        keys, values = records
        with write_twins(kind, tiny_config, str(tmp_path)) as (batched, serial):
            if op == "delete":
                for engine in (batched, serial):
                    engine.put_batch(keys, values)
                keys = np.concatenate([keys[::2], keys[::3] + 10**6, keys[::4]])
            # An odd batch size crosses flush boundaries mid-batch.
            apply_write_stream(op, batched, serial, keys, values, 97)
            assert write_observables(serial) == write_observables(batched)
            assert batched.view().total_updates >= len(keys)

    @pytest.mark.parametrize("op", ("put", "delete"))
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_duplicate_heavy_stream_matches_per_key_puts(
        self, tiny_config, rng, tmp_path, kind, op
    ):
        """Skewed write streams (many overwrites, or many re-deletes) must
        keep exact flush boundaries through the batch path, across many
        flush cycles."""
        keys = rng.integers(0, 120, size=6000).astype(np.int64)  # heavy dups
        values = rng.integers(0, 2**31, size=6000).astype(np.int64)
        with write_twins(kind, tiny_config, str(tmp_path)) as (batched, serial):
            if op == "delete":
                for engine in (batched, serial):
                    engine.put_batch(keys, values)
                keys = rng.integers(0, 160, size=6000).astype(np.int64)
            apply_write_stream(op, batched, serial, keys, values, 113)
            assert write_observables(serial) == write_observables(batched)
            probe = np.arange(160, dtype=np.int64)
            sf, sv = serial.get_batch(probe)
            bf, bv = batched.get_batch(probe)
            assert (sf == bf).all() and (sv == bv).all()
            if op == "delete":  # 6000 draws over 160 keys hit every one
                assert not bf.any()

    def test_batch_with_duplicate_keys(self, tiny_config):
        tree = LSMTree(tiny_config)
        keys = np.array([5, 5, 5], dtype=np.int64)
        values = np.array([1, 2, 3], dtype=np.int64)
        tree.put_batch(keys, values)
        assert tree.get(5) == 3

    @pytest.mark.parametrize("method", ("put_batch", "bulk_load"))
    def test_rejects_tombstone_values(self, tiny_config, method):
        tree = LSMTree(tiny_config)
        write = getattr(tree, method)
        with pytest.raises(ValueError, match="tombstone sentinel"):
            write(np.array([1, 2, 3]), np.array([10, TOMBSTONE, 30]))
        with pytest.raises(ValueError, match="equal length"):
            write(np.arange(3, dtype=np.int64), np.arange(2, dtype=np.int64))
        assert tree.total_entries == 0 and tree.n_levels == 0

    @pytest.mark.parametrize("method", ("put_batch", "bulk_load"))
    @pytest.mark.parametrize("n_shards", (1, 4))
    def test_sharded_rejected_batch_applies_nothing(
        self, tiny_config, n_shards, method
    ):
        store = ShardedStore(tiny_config, n_shards)
        keys = np.arange(40, dtype=np.int64)
        values = keys + 1
        # Poison the entry whose home shard is visited last.
        values[int(np.argmax(shard_of(keys, n_shards)))] = TOMBSTONE
        with pytest.raises(ValueError):
            getattr(store, method)(keys, values)
        assert store.total_entries == 0
        assert store.stats.total_updates == 0
        assert store.clock_now == 0.0
        # A delete batch that cannot be converted is rejected whole, too.
        store.put_batch(keys, keys)
        before = store.view()
        with pytest.raises(OverflowError):
            store.delete_batch([1, 2, 2**63])
        assert store.view() == before

    @pytest.mark.parametrize("n_shards", (0, 4))
    def test_two_dimensional_batch_rejected_before_counting(
        self, tiny_config, n_shards
    ):
        """A batch is a 1-D array: a (2, 3) one is refused whole, before a
        single update is counted."""
        store = ShardedStore(tiny_config, n_shards) if n_shards else LSMTree(tiny_config)
        store.put_batch(np.arange(5), np.arange(5) + 100)
        before = store.view()
        grid = np.arange(6).reshape(2, 3)
        with pytest.raises(ValueError, match="1-D"):
            store.put_batch(grid, grid)
        with pytest.raises(ValueError, match="1-D"):
            store.delete_batch(grid)
        assert store.view() == before

    def test_empty_batch_is_noop(self, tiny_config):
        tree = LSMTree(tiny_config)
        tree.put_batch(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert tree.total_entries == 0
        assert tree.stats.total_updates == 0

    def test_sharded_batch_matches_per_key_routing(self, tiny_config, records):
        keys, values = records
        serial = ShardedStore(tiny_config, 4)
        batched = ShardedStore(tiny_config, 4)
        for k, v in zip(keys.tolist(), values.tolist()):
            reference_put(serial, k, v)
        batched.put_batch(keys, values)
        assert serial.clock_now == batched.clock_now
        assert serial.io_counters == batched.io_counters

    def test_sharded_get_batch_matches_per_key_routing(
        self, tiny_config, records, rng
    ):
        """The grouped (one argsort, one batch call per shard) lookup path
        is bit-exact against per-key routed gets: same results, same
        simulated cost charging, same probe order within each shard."""
        keys, values = records
        grouped = ShardedStore(tiny_config, 4)
        serial = ShardedStore(tiny_config, 4)
        grouped.bulk_load(keys, values)
        serial.bulk_load(keys, values)
        probe = np.concatenate(
            [
                rng.choice(keys, size=400),
                rng.integers(10**6, 2 * 10**6, size=100).astype(np.int64),
            ]
        )
        found_grouped, values_grouped = grouped.get_batch(probe)
        found_serial = np.zeros(len(probe), dtype=bool)
        values_serial = np.zeros(len(probe), dtype=np.int64)
        for i, key in enumerate(probe.tolist()):
            got = serial.get(key)
            if got is not None:
                found_serial[i] = True
                values_serial[i] = got
        assert (found_grouped == found_serial).all()
        assert (values_grouped[found_grouped] == values_serial[found_serial]).all()
        # Cost parity: identical page I/O and op counts; the clock agrees
        # to float summation order (the batch path charges one fused CPU
        # probe per run instead of one per key).
        assert grouped.clock_now == pytest.approx(serial.clock_now, rel=1e-12)
        assert grouped.io_counters == serial.io_counters
        assert grouped.stats.total_lookups == serial.stats.total_lookups

    def test_sharded_bulk_load_grouping_matches_mask_routing(
        self, tiny_config, records
    ):
        """Grouped bulk_load partitions records identically to per-shard
        mask selection (same per-shard record order, same structure)."""
        keys, values = records
        grouped = ShardedStore(tiny_config, 4)
        grouped.bulk_load(keys, values)
        masked = ShardedStore(tiny_config, 4)
        shard_ids = shard_of(keys, 4)
        for s in range(4):
            idx = np.flatnonzero(shard_ids == s)
            if len(idx):
                masked.shards[s].bulk_load(keys[idx], values[idx])
        assert grouped.describe() == masked.describe()
        assert grouped.total_entries == masked.total_entries


class TestCrossShardCorrectness:
    """The sharded equivalence suite: a 4-shard store must behave exactly
    like one tree for results, and its stats must aggregate consistently."""

    def _loaded_pair(self, config, records):
        keys, values = records
        single = FLSMTree(config)
        sharded = ShardedStore(config, 4)
        single.bulk_load(keys, values)
        sharded.bulk_load(keys, values)
        return single, sharded

    def test_bulk_load_and_gets_match(self, tiny_config, records, rng):
        keys, values = records
        single, sharded = self._loaded_pair(tiny_config, records)
        assert single.total_entries == sharded.total_entries == len(keys)
        probe = rng.choice(keys, size=300)
        misses = rng.integers(2 * 10**6, 3 * 10**6, size=100).astype(np.int64)
        probe = np.concatenate([probe, misses])
        f1, v1 = single.get_batch(probe)
        f2, v2 = sharded.get_batch(probe)
        assert (f1 == f2).all()
        assert (v1[f1] == v2[f2]).all()

    def test_range_lookup_spans_shard_boundaries(self, tiny_config, records):
        keys, values = records
        single, sharded = self._loaded_pair(tiny_config, records)
        lo, hi = int(np.percentile(keys, 10)), int(np.percentile(keys, 60))
        span = shard_of(np.arange(lo, min(lo + 200, hi), dtype=np.int64), 4)
        assert len(set(span.tolist())) > 1  # the range truly crosses shards
        expected = single.range_lookup(lo, hi)
        assert sharded.range_lookup(lo, hi) == expected
        assert len(expected) > 0

    def test_tombstones_visible_through_get_batch(self, tiny_config, records):
        keys, values = records
        _, sharded = self._loaded_pair(tiny_config, records)
        doomed = keys[::5]
        for k in doomed.tolist():
            sharded.delete(k)
        found, _ = sharded.get_batch(keys)
        assert not found[::5].any()
        mask = np.ones(len(keys), dtype=bool)
        mask[::5] = False
        assert found[mask].all()
        # Deleted keys also vanish from cross-shard range scans.
        lo, hi = int(keys.min()), int(keys.max())
        alive = {k for k in keys.tolist()} - {k for k in doomed.tolist()}
        assert {k for k, _ in sharded.range_lookup(lo, hi)} == alive

    def test_operation_counts_match_unsharded(self, tiny_config, records):
        single, sharded = self._loaded_pair(tiny_config, records)
        keys, _ = records
        for engine in (single, sharded):
            engine.get_batch(keys[:123])
            for k in keys[:7].tolist():
                engine.get(k)
            engine.range_lookup(0, 10**6)
            engine.put_batch(keys[:50], np.arange(50, dtype=np.int64))
        for field in ("total_lookups", "total_updates", "total_ranges"):
            assert getattr(single.stats, field) == getattr(sharded.stats, field)

    def test_stats_aggregation_sums_to_per_shard(self, tiny_config, records):
        keys, values = records
        sharded = ShardedStore(tiny_config, 4)
        sharded.begin_mission()
        sharded.put_batch(keys, values)
        sharded.get_batch(keys[:500])
        sharded.range_lookup(int(keys.min()), int(keys.min()) + 10_000)
        mission = sharded.end_mission()
        collectors = [shard.stats for shard in sharded.shards]
        assert len(collectors) == 4
        # Totals are exact sums of the per-shard collectors.
        assert sharded.stats.total_lookups == sum(c.total_lookups for c in collectors)
        assert sharded.stats.total_updates == sum(c.total_updates for c in collectors)
        assert sharded.stats.total_ranges == sum(c.total_ranges for c in collectors)
        assert sharded.stats.total_read_time == sum(
            c.total_read_time for c in collectors
        )
        assert sharded.stats.total_write_time == sum(
            c.total_write_time for c in collectors
        )
        for level_no, seconds in sharded.stats.level_write_time.items():
            assert seconds == sum(
                c.level_write_time.get(level_no, 0.0) for c in collectors
            )
        # The aggregated mission record is the field-wise sum of the windows.
        parts = sharded.last_mission_breakdown()
        assert len(parts) == 4
        assert merge_mission_stats(mission.index, parts) == mission
        assert mission.n_updates == len(keys)
        assert mission.n_ranges == 1
        # Aggregated I/O and clock views sum the shards too.
        assert sharded.io_counters == reduce(
            add, [s.io_counters for s in sharded.shards]
        )
        assert sharded.clock_now == sum(s.clock_now for s in sharded.shards)

    def test_twin_sharded_runs_merge_to_equal_records(self, tiny_config, records):
        """A mission record is a pure function of (config, seed): twin
        4-shard runs close ``==`` windows, merged and per shard."""
        keys, values = records

        def run():
            sharded = ShardedStore(tiny_config, 4)
            sharded.begin_mission()
            sharded.put_batch(keys, values)
            sharded.get_batch(keys[:500])
            sharded.range_lookup(int(keys.min()), int(keys.min()) + 10_000)
            return sharded.end_mission(), sharded.last_mission_breakdown()

        (first, first_parts), (second, second_parts) = run(), run()
        assert first == second
        assert list(first_parts) == list(second_parts)
        assert merge_mission_stats(0, first_parts) == merge_mission_stats(
            0, second_parts
        )

    def test_mission_totals_match_unsharded(self, tiny_config, records):
        """Same mission stream on 1 tree and 4 shards: identical op counts,
        and total simulated time in the same ballpark (flush timing shifts
        because each shard fills its own memtable)."""
        keys, values = records
        workload = UniformWorkload(4000, lookup_fraction=0.5, seed=3)
        missions = list(workload.missions(4, 400))
        results = []
        for engine in (FLSMTree(self_config := SystemConfig(
            size_ratio=4, write_buffer_bytes=16 * 1024, seed=7
        )), ShardedStore(self_config, 4)):
            engine.bulk_load(*workload.load_records())
            runner = MissionRunner(engine, chunk_size=64)
            results.append([runner.run(m) for m in missions])
        for single_m, sharded_m in zip(*results):
            assert single_m.n_lookups == sharded_m.n_lookups
            assert single_m.n_updates == sharded_m.n_updates
            assert single_m.n_ranges == sharded_m.n_ranges
        total_single = sum(m.total_time for m in results[0])
        total_sharded = sum(m.total_time for m in results[1])
        assert total_sharded == pytest.approx(total_single, rel=0.35)

    def test_invariants_and_policy_fanout(self, tiny_config, records):
        _, sharded = self._loaded_pair(tiny_config, records)
        sharded.set_policies([3, 2], TransitionKind.FLEXIBLE)
        for shard in sharded.shards:
            assert shard.policies()[: 2] == [3, 2][: shard.n_levels]
        sharded.set_policy(1, 4, TransitionKind.FLEXIBLE)
        assert all(s.policies()[0] == 4 for s in sharded.shards)
        sharded.check_invariants()
        assert sharded.policies() == sharded.shards[0].policies()
        assert sharded.view().policies == tuple(
            tuple(s.policies()) for s in sharded.shards
        )

    def test_bulk_load_requires_empty(self, tiny_config, records):
        keys, values = records
        sharded = ShardedStore(tiny_config, 2)
        sharded.bulk_load(keys, values)
        with pytest.raises(TreeStateError):
            sharded.bulk_load(keys, values)


class TestEngineView:
    """``view()``: one immutable reading per engine, ``+`` across shards."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=300),
        key_space=st.integers(min_value=1, max_value=900),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_fold_law(self, n, key_space, seed):
        """A store's view is the left fold of its shards' views, ``+`` is
        associative, and one shard reads exactly as the bare tree does.
        Dyadic cost constants make every float sum exact, so regrouping
        may demand bit equality."""
        config = SystemConfig(
            write_buffer_bytes=4 * 1024,
            size_ratio=3,
            block_cache_pages=16,
            seed=11,
            costs=DYADIC_COSTS,
        )
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, key_space, size=n)
        values = rng.integers(0, 10**6, size=n)
        probes = rng.integers(0, key_space + 8, size=64)
        los = rng.integers(0, key_space, size=8)
        tree, one, four = LSMTree(config), ShardedStore(config, 1), ShardedStore(config, 4)
        for engine in (tree, one, four):
            engine.set_named_policy("tiering")
            engine.begin_mission()
            engine.put_batch(keys, values)
            engine.delete_batch(keys[::7])
            engine.get_batch(probes)
            engine.range_scan_batch(los, los + 25)
            engine.end_mission()
        assert one.view() == tree.view()
        a, b, c, d = (shard.view() for shard in four.shards)
        assert four.view() == ((a + b) + c) + d
        assert (a + b) + (c + d) == a + (b + (c + d)) == ((a + b) + c) + d
        # What the fold must preserve: counts land on exactly one shard,
        # per-target tuples stay in shard order.
        assert four.view().total_updates == tree.view().total_updates
        assert four.view().total_ranges == tree.view().total_ranges == 8
        assert four.view().policies == tuple(tuple(s.policies()) for s in four.shards)
        assert four.view().n_levels == max(s.n_levels for s in four.shards)
        assert four.view().windows_closed == 4
        assert four.stats == four.view()  # ``stats`` is the view

    def test_view_is_a_snapshot(self, tiny_config):
        tree = LSMTree(tiny_config)
        tree.put_batch(np.arange(40), np.arange(40))
        before = tree.view()
        frozen = (before.clock_now, dict(before.level_write_time), before.io_counters.seq_writes)
        tree.put_batch(np.arange(40, 80), np.arange(40))
        assert (
            before.clock_now, before.level_write_time, before.io_counters.seq_writes
        ) == frozen
        assert tree.view() != before
        with pytest.raises(AttributeError):
            before.clock_now = 0.0


class TestDurableShards:
    """``ShardedStore`` takes any ``LSMTree`` factory, so N durable shards
    (one WAL + manifest per directory) are a factory argument — and, the
    durable layer being wall-clock side only, sim-identical to N
    in-memory shards on the same stream."""

    def test_durable_shards_sim_identical_and_recoverable(
        self, tiny_config, tmp_path, rng
    ):
        from repro.durable import DurableStore

        config = tiny_config.with_updates(block_cache_pages=16)
        memory = ShardedStore(config, 4)
        durable = ShardedStore(
            config,
            4,
            tree_factory=lambda c, i: DurableStore(
                tmp_path / f"shard-{i}", c.with_updates(seed=c.seed + i)
            ),
        )
        model = {}
        missions = [[], []]
        for window in range(2):
            for engine in (memory, durable):
                engine.begin_mission()
            for step in range(6):
                keys = rng.integers(0, 3000, size=150).astype(np.int64)
                values = rng.integers(0, 2**31, size=150).astype(np.int64)
                doomed = rng.integers(0, 3000, size=5).tolist()
                probe = rng.integers(0, 3500, size=120).astype(np.int64)
                los = rng.integers(0, 2800, size=8).astype(np.int64)
                his = los + rng.integers(1, 200, size=8)
                for engine in (memory, durable):
                    engine.put_batch(keys, values)
                    for key in doomed:
                        engine.delete(key)
                    if window == 0 and step == 3:
                        engine.set_policies([3, 2], TransitionKind.GREEDY)
                model.update(zip(keys.tolist(), values.tolist()))
                for key in doomed:
                    model.pop(key, None)
                gets = [e.get_batch(probe) for e in (memory, durable)]
                scans = [e.range_scan_batch(los, his) for e in (memory, durable)]
                for mem_part, dur_part in zip(gets[0] + scans[0], gets[1] + scans[1]):
                    np.testing.assert_array_equal(mem_part, dur_part)
            for log, engine in zip(missions, (memory, durable)):
                log.append(engine.end_mission())

        # Clock, charges, counts, counters, cache traffic, per-shard policies.
        assert durable.view() == memory.view()
        assert memory.cache_hits > 0
        # The stacked range scan charges each shard through its own clock
        # and collector: durable and in-memory agree shard by shard.
        for mem_shard, dur_shard in zip(memory.shards, durable.shards):
            assert dur_shard.clock.now == mem_shard.clock.now
            assert dur_shard.stats.total_read_time == mem_shard.stats.total_read_time
            assert dur_shard.stats.level_read_time == mem_shard.stats.level_read_time
            assert dur_shard.disk.counters == mem_shard.disk.counters
        for mem_stats, dur_stats in zip(*missions):
            assert_mission_stats_equal(mem_stats, dur_stats)
            assert mem_stats.cache_hits == dur_stats.cache_hits
            assert mem_stats.cache_misses == dur_stats.cache_misses
        durable.check_invariants()

        for shard in durable.shards:
            shard.close()
        recovered = {}
        for i in range(4):
            with DurableStore(tmp_path / f"shard-{i}") as shard:
                shard.check_invariants()
                recovered.update(shard.range_lookup(0, 10**6))
        assert recovered == model


class TestChunkedExecutionRegression:
    """Satellite: chunk_size=1 serial execution vs chunked batch execution
    on a sharded store."""

    def _run(self, config, chunk_size, mission, workload=None):
        engine = ShardedStore(config, 4)
        if workload is not None:
            engine.bulk_load(*workload.load_records())
        runner = MissionRunner(engine, chunk_size=chunk_size)
        return runner.run(mission)

    def test_write_only_mission_identical(self, tiny_config, rng):
        workload = UniformWorkload(3000, lookup_fraction=0.0, seed=11)
        mission = next(iter(workload.missions(1, 1500)))
        serial = self._run(tiny_config, 1, mission)
        chunked = self._run(tiny_config, 128, mission)
        # Updates keep their original order through the batch path, so the
        # two executions are bit-identical, not just statistically close.
        assert_mission_stats_equal(serial, chunked, exact_times=True)

    def test_mixed_mission_counts_identical_costs_close(self, tiny_config):
        workload = YCSBWorkload(
            3000, lookup_fraction=0.5, seed=11, range_fraction=0.1
        )
        mission = next(iter(workload.missions(1, 1500)))
        serial = self._run(tiny_config, 1, mission, workload)
        chunked = self._run(tiny_config, 128, mission, workload)
        assert_mission_stats_equal(serial, chunked, exact_times=False)


class TestRusKeyEngineFacade:
    def test_default_sharded_builds_one_lerp_per_shard(self, tiny_config):
        store = RusKey(tiny_config, n_shards=3)
        assert isinstance(store.engine, ShardedStore)
        assert len(store.tuners) == 3
        assert all(isinstance(t, Lerp) for t in store.tuners)
        assert len({id(t) for t in store.tuners}) == 3
        # Independent tuners must not share an exploration RNG stream:
        # shard i's is seeded seed + i.
        assert [t.config.seed for t in store.tuners] == [0, 1, 2]

    def test_engine_and_n_shards_conflict_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            RusKey(
                tiny_config,
                engine=FLSMTree(tiny_config),
                n_shards=4,
            )

    def test_explicit_tuner_is_shared_across_shards(self, tiny_config):
        tuner = StaticTuner(2)
        store = RusKey(tiny_config, tuner=tuner, n_shards=3)
        assert store.tuners == [tuner, tuner, tuner]

    def test_tuners_list_gives_each_shard_its_own(self, tiny_config):
        tuners = [StaticTuner(3), StaticTuner(3)]
        store = RusKey(tiny_config, n_shards=2, tuners=tuners)
        assert [id(t) for t in store.tuners] == [id(t) for t in tuners]
        with pytest.raises(ConfigError):
            RusKey(tiny_config, n_shards=3, tuners=tuners)

    def test_sharded_mission_loop_tunes_every_shard(self, tiny_config):
        store = RusKey(tiny_config, tuner=StaticTuner(2), n_shards=4)
        workload = UniformWorkload(2000, lookup_fraction=0.5, seed=1)
        store.run_workload(workload, n_missions=3, mission_size=300)
        assert len(store.mission_log) == 3
        for shard in store.engine.shards:
            assert all(p == 2 for p in shard.policies())

    def test_sharded_tuning_time_lands_on_the_tuners(self, tiny_config):
        store = RusKey(tiny_config, n_shards=2)
        workload = UniformWorkload(2000, lookup_fraction=0.5, seed=1)
        store.run_workload(workload, n_missions=2, mission_size=300)
        assert all(t.total_model_update_s > 0.0 for t in store.tuners)
        # The log holds the engine's aggregate record, untouched by tuning.
        last = store.mission_log[-1]
        assert last == merge_mission_stats(
            last.index, store.engine.last_mission_breakdown()
        )

    def test_custom_engine_injection(self, tiny_config):
        engine = ShardedStore(tiny_config, 2)
        store = RusKey(tiny_config, tuner=StaticTuner(1), engine=engine)
        assert store.engine is engine
        store.put(1, 5)
        assert store.get(1) == 5
        f, v = store.get_batch(np.array([1, 2], dtype=np.int64))
        assert f.tolist() == [True, False] and v[0] == 5


class TestHarnessShardingKnob:
    def test_system_spec_runs_sharded(self, tiny_config):
        from repro.bench.harness import Experiment, SystemSpec, run_system

        experiment = Experiment(
            name="sharded-smoke",
            workload=YCSBWorkload(3000, lookup_fraction=0.3, seed=2),
            n_missions=3,
            mission_size=200,
            base_config=tiny_config,
            chunk_size=64,
            systems=[
                SystemSpec("K=1x4", lambda config: StaticTuner(1), 1, n_shards=4),
            ],
        )
        result = run_system(experiment, experiment.systems[0])
        assert len(result.missions) == 3
        assert all(m.n_operations == 200 for m in result.missions)
        assert (result.latencies > 0).all()
