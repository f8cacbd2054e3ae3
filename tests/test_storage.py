"""Tests for repro.storage: clock, cache, disk model."""

import pytest

from repro.config import CostModelParams
from repro.errors import StorageError
from repro.storage import DiskModel, IOCounters, LRUBlockCache, SimClock


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


class TestLRUBlockCache:
    def test_zero_capacity_never_hits(self):
        cache = LRUBlockCache(0)
        assert cache.access((1, 0)) is False
        assert cache.access((1, 0)) is False
        assert cache.hits == 0
        assert cache.misses == 2

    def test_hit_after_admission(self):
        cache = LRUBlockCache(2)
        assert cache.access((1, 0)) is False
        assert cache.access((1, 0)) is True
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_order(self):
        cache = LRUBlockCache(2)
        cache.access((1, 0))
        cache.access((1, 1))
        cache.access((1, 0))  # refresh (1,0); (1,1) is now LRU
        cache.access((1, 2))  # evicts (1,1)
        assert (1, 1) not in cache
        assert (1, 0) in cache
        assert (1, 2) in cache

    def test_capacity_bound(self):
        cache = LRUBlockCache(3)
        for i in range(10):
            cache.access((0, i))
        assert len(cache) == 3

    def test_invalidate_run_drops_only_that_run(self):
        cache = LRUBlockCache(8)
        cache.access((1, 0))
        cache.access((1, 1))
        cache.access((2, 0))
        dropped = cache.invalidate_run(1)
        assert dropped == 2
        assert (2, 0) in cache
        assert len(cache) == 1

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            LRUBlockCache(-1)

    def test_clear_keeps_counters(self):
        cache = LRUBlockCache(2)
        cache.access((1, 0))
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1


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
        cost = disk.random_read(1, 0)
        assert cost == pytest.approx(10e-6)
        assert clock.now == pytest.approx(10e-6)
        assert disk.counters.random_reads == 1

    def test_random_read_cached_is_free(self):
        disk, clock = self._make(cache_pages=4)
        disk.random_read(1, 0)
        cost = disk.random_read(1, 0)
        assert cost == 0.0
        assert disk.counters.random_reads == 1

    def test_random_read_batch_no_cache_prices_everything(self):
        disk, clock = self._make()
        cost = disk.random_read_batch(1, [0, 1, 2])
        assert cost == pytest.approx(30e-6)
        assert disk.counters.random_reads == 3

    def test_random_read_batch_with_cache_dedups(self):
        disk, _ = self._make(cache_pages=8)
        disk.random_read_batch(1, [0, 0, 1])
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
        disk.probe_cpu(4)
        disk.compaction_cpu(8)
        assert clock.now == pytest.approx(4 * 0.5e-6 + 8 * 0.25e-6)

    def test_negative_amounts_rejected(self):
        disk, _ = self._make()
        with pytest.raises(StorageError):
            disk.sequential_read(-1)
        with pytest.raises(StorageError):
            disk.sequential_write(-1)
        with pytest.raises(StorageError):
            disk.probe_cpu(-1)
        with pytest.raises(StorageError):
            disk.compaction_cpu(-1)
        with pytest.raises(StorageError):
            disk.random_read(1, -1)
        with pytest.raises(StorageError):
            disk.random_write(-1)

    def test_drop_run_invalidates_cache(self):
        disk, _ = self._make(cache_pages=4)
        disk.random_read(7, 0)
        disk.drop_run(7)
        assert disk.random_read(7, 0) > 0  # miss again after invalidation

    def test_zero_page_operations_are_free(self):
        disk, clock = self._make()
        assert disk.sequential_read(0) == 0.0
        assert disk.sequential_write(0) == 0.0
        assert disk.random_read_batch(1, []) == 0.0
        assert clock.now == 0.0
