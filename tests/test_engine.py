"""Tests for repro.engine: the KVEngine protocol, shard routing, the
view fold and the RusKey facade over a sharded store.

That every engine — tree, sharded store, durable store, sharded durable
store — holds what a dict holds and is sim-identical to its per-op
reference is the differential oracle's (``tests/test_oracle.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracle import DYADIC_COSTS

from repro.config import SystemConfig
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
from repro.errors import ConfigError
from repro.lsm import FLSMTree
from repro.lsm.memtable import MemTable
from repro.lsm.tree import LSMTree
from repro.workload.uniform import UniformWorkload
from repro.workload.ycsb import YCSBWorkload


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


def test_mission_totals_match_unsharded():
    """Same mission stream on 1 tree and 4 shards: identical op counts,
    and total simulated time in the same ballpark (flush timing shifts
    because each shard fills its own memtable)."""
    config = SystemConfig(size_ratio=4, write_buffer_bytes=16 * 1024, seed=7)
    workload = UniformWorkload(4000, lookup_fraction=0.5, seed=3)
    missions = list(workload.missions(4, 400))
    results = []
    for engine in (FLSMTree(config), ShardedStore(config, 4)):
        engine.bulk_load(*workload.load_records())
        runner = MissionRunner(engine, chunk_size=64)
        results.append([runner.run(m) for m in missions])
    for single, sharded in zip(*results):
        assert (single.n_lookups, single.n_updates, single.n_ranges) == (
            sharded.n_lookups,
            sharded.n_updates,
            sharded.n_ranges,
        )
    total_single = sum(m.total_time for m in results[0])
    total_sharded = sum(m.total_time for m in results[1])
    assert total_sharded == pytest.approx(total_single, rel=0.35)


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
