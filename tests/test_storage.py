"""Tests for repro.storage: clock, cache, disk model."""

import pickle
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from reference_cache import ReferenceLRUCache, cache_state
from reference_get import probe_cpu, random_read_batch

from repro import RusKey
from repro.config import CostModelParams, SystemConfig
from repro.errors import StorageError
from repro.lsm import FLSMTree
from repro.lsm.level import LevelLookupIndex
from repro.lsm.readplan import ReadPlan
from repro.storage import DiskModel, IOCounters, LRUBlockCache, SimClock
from repro.storage.cache import PAGE_LIMIT
from repro.workload import YCSBWorkload


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(StorageError):
            SimClock(-1.0)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(StorageError):
            SimClock().advance(-0.1)

    def test_advance_to_writes_back_a_replay(self):
        clock, replayed = SimClock(0.3), SimClock(0.3)
        now = replayed.now
        for charge in (0.1, 0.2, 1e-9, 0.7):
            clock.advance(charge)
            now += charge
        replayed.advance_to(now)
        assert replayed.now == clock.now
        replayed.advance_to(replayed.now)  # an empty replay is a no-op

    @pytest.mark.parametrize("now", (0.5, float("nan")))
    def test_advance_to_rejects_going_back(self, now):
        clock = SimClock(1.0)
        with pytest.raises(StorageError):
            clock.advance_to(now)
        assert clock.now == 1.0

    def test_repr_mentions_time(self):
        assert "now=" in repr(SimClock())


def both(capacity):
    """The shipped cache and its per-page reference, side by side."""
    return LRUBlockCache(capacity), ReferenceLRUCache(capacity)


def assert_same_machine(cache, reference):
    """Equal observable state, and every resident page below its run's span
    (the range ``invalidate_run`` pops)."""
    assert list(cache) == list(reference)
    assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
    assert all(page < cache._spans[run_id] for run_id, page in cache)


class TestLRUBlockCache:
    def test_zero_capacity_never_hits(self):
        cache, reference = both(0)
        assert reference.access((1, 0)) is False
        assert reference.access((1, 0)) is False
        assert cache.access_batch(1, [0, 0]) == 0
        assert (cache.hits, cache.misses) == (0, 2)
        assert_same_machine(cache, reference)

    def test_hit_after_admission(self):
        cache, reference = both(2)
        assert reference.access((1, 0)) is False
        assert reference.access((1, 0)) is True
        assert cache.access_batch(1, [0]) == 0
        assert cache.access_batch(1, [0]) == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert_same_machine(cache, reference)

    def test_lru_eviction_order(self):
        cache, reference = both(2)
        # 0, 1, then 0 again: (1, 1) is now LRU and the miss on 2 evicts it.
        for machine in (cache, reference):
            machine.access_batch(1, [0, 1, 0, 2])
        assert list(cache) == [(1, 0), (1, 2)]
        assert_same_machine(cache, reference)

    def test_capacity_bound(self):
        cache, reference = both(3)
        for machine in (cache, reference):
            machine.access_batch(0, list(range(10)))
        assert len(cache) == 3
        assert_same_machine(cache, reference)

    def test_invalidate_run_drops_only_that_run(self):
        cache, reference = both(8)
        for machine in (cache, reference):
            machine.access_batch(1, [0, 1])
            machine.access_batch(2, [0])
            assert machine.invalidate_run(1) == 2
            assert machine.invalidate_run(1) == 0
        assert list(cache) == [(2, 0)]
        assert_same_machine(cache, reference)

    def test_eviction_of_a_runs_last_page_forgets_the_run(self):
        cache, reference = both(2)
        for machine in (cache, reference):
            machine.access_batch(1, [0])
            machine.access_batch(2, [0, 1])  # evicts (1, 0)
            assert machine.invalidate_run(1) == 0
        assert 1 not in cache._spans
        assert_same_machine(cache, reference)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            LRUBlockCache(-1)

    def test_clear_keeps_counters(self):
        cache, reference = both(2)
        for machine in (cache, reference):
            machine.access_batch(1, [0])
            machine.clear()
        assert len(cache) == 0
        assert cache.misses == 1
        assert_same_machine(cache, reference)

    def test_invalidate_run_never_walks_the_recency_list(self):
        """Count-based, not timed: a drop costs the pages it drops."""

        class CountingPages(OrderedDict):
            walks = 0

            def __iter__(self):
                CountingPages.walks += 1
                return super().__iter__()

            def keys(self):
                CountingPages.walks += 1
                return super().keys()

            def items(self):
                CountingPages.walks += 1
                return super().items()

        cache = LRUBlockCache(50_000)
        for run_id in range(500):
            cache.access_batch(run_id, list(range(100)))
        cache._pages = CountingPages(cache._pages)
        CountingPages.walks = 0
        dropped = sum(cache.invalidate_run(run_id) for run_id in range(250, 1250))
        assert dropped == 250 * 100  # 250 resident runs, 750 unknown ids
        assert len(cache) == 25_000
        assert CountingPages.walks == 0
        list(cache)
        assert CountingPages.walks == 1  # the counter does count

    def test_bytes_per_resident_page(self):
        """``tracemalloc`` bytes per page of a full 4,096-page cache, 16
        runs resident: 168 B with a packed int key in the recency list,
        351 B with a ``(run, page)`` tuple key plus a per-run page set."""
        tracemalloc.start()
        try:
            cache = LRUBlockCache(4_096)
            for start in range(0, 3_000, 250):
                for run_id in range(16):
                    cache.access_batch(run_id, list(range(start, start + 250)))
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(cache) == 4_096
        assert used / len(cache) < 200


class CacheComparedToReference(RuleBasedStateMachine):
    """The indexed cache and the per-page reference are one state machine."""

    def __init__(self):
        super().__init__()
        self.cache, self.reference = both(0)

    @initialize(capacity=st.integers(0, 12))
    def sized(self, capacity):
        self.cache, self.reference = both(capacity)

    @rule(run_id=st.integers(0, 4), pages=st.lists(st.integers(0, 9), max_size=12))
    def access_batch(self, run_id, pages):
        assert self.cache.access_batch(run_id, pages) == sum(
            self.reference.access((run_id, page)) for page in pages
        )

    @rule(run_id=st.integers(0, 5))
    def invalidate_run(self, run_id):
        assert self.cache.invalidate_run(run_id) == self.reference.invalidate_run(run_id)

    @rule()
    def clear(self):
        self.cache.clear()
        self.reference.clear()

    @rule()
    def snapshot_roundtrip(self):
        self.cache = pickle.loads(pickle.dumps(self.cache))

    @invariant()
    def same_machine(self):
        assert_same_machine(self.cache, self.reference)


TestCacheComparedToReference = CacheComparedToReference.TestCase


class TestWholeStoreOnTheReferenceCache:
    """Equivalence end to end: a store whose trees run on the per-page
    reference and one on the shipped cache, same workload, Lerp tuning."""

    @pytest.mark.parametrize("n_shards", (1, 4))
    @pytest.mark.parametrize("cache_pages", (64, 4_096))
    def test_twin_run_ends_with_the_same_cache(
        self, small_config, monkeypatch, n_shards, cache_pages
    ):
        config = small_config.with_updates(block_cache_pages=cache_pages)
        workload = YCSBWorkload(
            6_000, lookup_fraction=0.5, range_fraction=0.2, range_span=16, seed=5
        )

        def run():
            store = RusKey(config, n_shards=n_shards)
            store.run_workload(workload, n_missions=8, mission_size=500)
            return store

        dropped = []
        real_drop = LRUBlockCache.invalidate_run
        with monkeypatch.context() as patch:
            patch.setattr(
                LRUBlockCache,
                "invalidate_run",
                lambda cache, run_id: dropped.append(real_drop(cache, run_id)) or dropped[-1],
            )
            shipped = run()
        # The run exercised what the index is for: drops of resident pages.
        assert sum(dropped) > 100
        monkeypatch.setattr("repro.lsm.tree.LRUBlockCache", ReferenceLRUCache)
        reference = run()
        trees = shipped.engine.tuning_targets()
        twins = reference.engine.tuning_targets()
        assert all(type(twin.cache) is ReferenceLRUCache for twin in twins)
        for tree, twin in zip(trees, twins):
            assert list(tree.cache) == list(twin.cache)
            assert 0 < len(tree.cache) <= cache_pages
            assert_same_machine(tree.cache, twin.cache)
            assert tree.clock.now == twin.clock.now
        assert shipped.engine.view() == reference.engine.view()
        assert shipped.mission_log == reference.mission_log
        if cache_pages == 64:  # evictions too
            assert all(len(tree.cache) == cache_pages for tree in trees)


class TestIOCounters:
    def test_totals(self):
        io = IOCounters(random_reads=2, random_writes=3, seq_reads=5, seq_writes=7)
        assert io.total_reads == 7
        assert io.total_writes == 10
        assert io.total == 17

    def test_snapshot_is_independent(self):
        io = IOCounters(random_reads=1)
        snap = io.snapshot()
        io.random_reads += 5
        assert snap.random_reads == 1

    def test_diff(self):
        io = IOCounters(random_reads=10, seq_writes=4)
        earlier = IOCounters(random_reads=3, seq_writes=1)
        diff = io.diff(earlier)
        assert diff.random_reads == 7
        assert diff.seq_writes == 3


class TestDiskModel:
    def _make(self, cache_pages: int = 0):
        clock = SimClock()
        cache = LRUBlockCache(cache_pages)
        costs = CostModelParams(
            random_read_s=10e-6,
            random_write_s=20e-6,
            seq_read_s=1e-6,
            seq_write_s=2e-6,
            run_probe_cpu_s=0.5e-6,
            compaction_entry_cpu_s=0.25e-6,
        )
        return DiskModel(costs, clock, cache), clock

    def test_random_read_charges_and_counts(self):
        disk, clock = self._make()
        cost = random_read_batch(disk, 1, [0])
        assert cost == pytest.approx(10e-6)
        assert clock.now == pytest.approx(10e-6)
        assert disk.counters.random_reads == 1

    def test_random_read_cached_is_free(self):
        disk, clock = self._make(cache_pages=4)
        random_read_batch(disk, 1, [0])
        cost = random_read_batch(disk, 1, [0])
        assert cost == 0.0
        assert disk.counters.random_reads == 1

    def test_random_read_batch_no_cache_prices_everything(self):
        disk, clock = self._make()
        cost = random_read_batch(disk, 1, [0, 1, 2])
        assert cost == pytest.approx(30e-6)
        assert disk.counters.random_reads == 3

    def test_random_read_batch_with_cache_dedups(self):
        disk, _ = self._make(cache_pages=8)
        random_read_batch(disk, 1, [0, 0, 1])
        assert disk.counters.random_reads == 2  # second 0 hit the cache

    def test_sequential_costs(self):
        disk, clock = self._make()
        disk.sequential_read(3)
        disk.sequential_write(2)
        assert disk.counters.seq_reads == 3
        assert disk.counters.seq_writes == 2
        assert clock.now == pytest.approx(3e-6 + 4e-6)

    def test_cpu_costs_advance_clock(self):
        disk, clock = self._make()
        probe_cpu(disk, 4)
        disk.compaction_cpu(8)
        assert clock.now == pytest.approx(4 * 0.5e-6 + 8 * 0.25e-6)

    def test_negative_amounts_rejected(self):
        disk, _ = self._make()
        with pytest.raises(StorageError):
            disk.sequential_read(-1)
        with pytest.raises(StorageError):
            disk.sequential_write(-1)
        with pytest.raises(StorageError):
            probe_cpu(disk, -1)
        with pytest.raises(StorageError):
            disk.compaction_cpu(-1)
        with pytest.raises(StorageError):
            # The cache-off branch prices a batch without reading its pages.
            random_read_batch(self._make(cache_pages=4)[0], 1, [-1])

    def test_page_index_beyond_the_packed_key_refused(self, monkeypatch):
        """A cached page is keyed ``run_id << 32 | page``: a page index of
        2**32 would collide with the next run's page 0. A read-plan pass
        checks every page before it charges or admits any, so a refused
        pass of two chunks — the first one fine — leaves the clock, the
        LRU and the counters as they were; page 2**32 - 1 is admitted."""
        tree = FLSMTree(SystemConfig(write_buffer_bytes=8 * 1024, block_cache_pages=4))
        keys = np.arange(0, 400, 2)
        tree.bulk_load(keys, keys)
        tree.get_batch(keys[:3])  # some pages resident
        honest = LevelLookupIndex.run_positions

        def run_positions_ending_at(page):
            def run_positions(index, run, *args):
                positions = honest(index, run, *args)
                positions[-1] = page * run.entries_per_page  # chunk 2's last probe
                return positions
            return run_positions

        def charge_two_chunks():
            plan = ReadPlan(tree)
            plan.lookup(keys[10:14])
            plan.lookup(keys[100:101])
            plan.charge()

        def state():
            return tree.clock.now, cache_state(tree.disk.cache), tree.disk.counters.snapshot()

        before = state()
        for page in (PAGE_LIMIT, -1):
            monkeypatch.setattr(LevelLookupIndex, "run_positions", run_positions_ending_at(page))
            with pytest.raises(StorageError, match="2\\*\\*32"):
                charge_two_chunks()
            assert state() == before
        boundary = run_positions_ending_at(PAGE_LIMIT - 1)
        monkeypatch.setattr(LevelLookupIndex, "run_positions", boundary)
        charge_two_chunks()  # the last page read is the boundary one
        assert all(a != b for a, b in zip(state(), before))
        (holder,) = (run for level in tree.levels for run in level.runs if keys[100] in run.keys)
        assert list(tree.disk.cache)[-1] == (holder.run_id, PAGE_LIMIT - 1)

    def test_drop_run_invalidates_cache(self):
        disk, _ = self._make(cache_pages=4)
        random_read_batch(disk, 7, [0])
        disk.drop_run(7)
        assert random_read_batch(disk, 7, [0]) > 0  # miss again after invalidation

    def test_zero_page_operations_are_free(self):
        disk, clock = self._make()
        assert disk.sequential_read(0) == 0.0
        assert disk.sequential_write(0) == 0.0
        assert random_read_batch(disk, 1, []) == 0.0
        assert clock.now == 0.0
