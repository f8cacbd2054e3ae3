"""Equivalence suite for the vectorized batch range-scan path.

:meth:`LSMTree.range_scan_batch` must be **bit-identical** to the per-op
reference (:func:`reference_range.reference_range_scan_batch`) in
every simulated observable, and per-range identical to
:meth:`LSMTree.range_lookup`. This module pins both contracts across the
engine layers that dispatch ranges (tree, sharded store, mission runner,
serve lane), plus the memtable sorted view the pipeline rides on
(:meth:`MemTable.sorted_view`, :func:`repro.lsm.iterators.live_items`)
and the profiler's range stages.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_range import range_items_scan, reference_range_scan_batch
from test_entry_memtable import buffer_delete, buffer_put
from test_readpath import (
    ENGINE_KINDS,
    assert_trees_match_twins,
    build_stacked_tree,
    drawn_engine_with_twins,
    sim_observables,
)

from repro.config import SystemConfig
from repro.core.missions import MissionRunner
from repro.engine.sharded import ShardedStore, shard_of_key
from repro.lsm import FLSMTree
from repro.lsm.iterators import live_items
from repro.lsm.memtable import MemTable
from repro.lsm.rangepath import RANGE_STAGES, multi_arange, scan_batch
from repro.obs import Tracer
from repro.serve.server import REQ_GET, REQ_PUT, REQ_RANGE, KVServer, Request
from repro.workload.spec import (
    OP_LOOKUP,
    OP_RANGE,
    OP_UPDATE,
    mission_from_mix,
)

POLICIES = ("leveling", "tiering", "lazy-leveling")


def make_ranges(rng, n, key_space=15000, max_span=80):
    """Mixed inclusive ranges: wide, degenerate (lo == hi via span 0) and
    out-of-domain (no overlap with any stored key)."""
    los = rng.integers(-key_space // 8, key_space, size=n)
    spans = rng.integers(0, max_span, size=n)
    spans[rng.random(n) < 0.15] = 0  # lo == hi
    los[rng.random(n) < 0.1] += 10 * key_space  # past every stored key
    return los.astype(np.int64), (los + spans).astype(np.int64)


def assert_batch_equal(a, b):
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def loaded_store(n_shards, seed=5):
    """A sharded store with multi-level shards, buffered writes and
    tombstones (some buffered, some over disk-resident keys)."""
    cfg = SystemConfig(write_buffer_bytes=8 * 1024, size_ratio=4, seed=seed)
    store = ShardedStore(cfg, n_shards)
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 30000, size=6000))
    store.bulk_load(keys, rng.integers(0, 10**6, size=len(keys)))
    store.put_batch(
        rng.integers(0, 30000, size=400), rng.integers(0, 10**6, size=400)
    )
    for key in rng.integers(0, 30000, size=40).tolist():
        store.delete(key)
    return store, rng


def snapshot_twin(tree):
    twin = FLSMTree(tree.config)
    twin.load_state_dict(tree.state_dict())
    return twin


def pairs_per_range(result):
    keys, values, offsets = result
    bounds = offsets.tolist()
    return [
        list(zip(keys[a:b].tolist(), values[a:b].tolist()))
        for a, b in zip(bounds, bounds[1:])
    ]


def reference_over_trees(twins, los, his):
    """Per-tree reference scans merged per range: the trees are
    key-disjoint, so a range's answer is the key-sorted union. The
    reference counts every range on every tree it scans; ``scan_batch``
    leaves op counting to the engines, so the counts are taken back."""
    parts = []
    for twin in twins:
        parts.append(pairs_per_range(reference_range_scan_batch(twin, los, his)))
        twin.stats.count_range(-len(los))
    return [sorted(sum(per_tree, [])) for per_tree in zip(*parts)]


class TestBitIdenticalToReference:
    """New pipeline vs the verbatim per-op loop, on identical tree state."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("cache_pages", (0, 64))
    def test_range_scan_batch_matches_reference(self, policy, cache_pages):
        tree, rng = build_stacked_tree(policy, cache_pages=cache_pages)
        state = tree.state_dict()
        los, his = make_ranges(rng, 300)

        out_new = tree.range_scan_batch(los, his)
        after_new = sim_observables(tree)

        twin = FLSMTree(tree.config)
        twin.load_state_dict(state)
        out_ref = reference_range_scan_batch(twin, los, his)
        after_ref = sim_observables(twin)

        assert_batch_equal(out_new, out_ref)
        assert after_new == after_ref
        assert tree.stats.total_ranges == twin.stats.total_ranges == 300

    def test_repeated_batches_with_interleaved_writes(self):
        # Tombstones and fresh writes between batches must not break
        # equivalence (they invalidate the memtable sorted view and can
        # trigger flushes/compactions on both twins identically).
        tree, rng = build_stacked_tree("tiering")
        twin = snapshot_twin(tree)
        for step in range(4):
            los, his = make_ranges(rng, 80)
            assert_batch_equal(
                tree.range_scan_batch(los, his),
                reference_range_scan_batch(twin, los, his),
            )
            assert sim_observables(tree) == sim_observables(twin)
            extra = rng.integers(0, 15000, size=30)
            tree.put_batch(extra, extra * 2)
            twin.put_batch(extra, extra * 2)
            for key in extra[:5].tolist():
                tree.delete(key)
                twin.delete(key)

    def test_memtable_only_tree(self):
        # No levels at all: the batch must still answer from the buffer.
        cfg = SystemConfig(write_buffer_bytes=64 * 1024, seed=1)
        tree = FLSMTree(cfg)
        twin = FLSMTree(cfg)
        for t in (tree, twin):
            t.put(5, 50)
            t.put(9, 90)
            t.delete(5)
        los = np.array([0, 5, 6, 100], dtype=np.int64)
        his = np.array([20, 5, 8, 200], dtype=np.int64)
        keys, values, offsets = tree.range_scan_batch(los, his)
        assert_batch_equal(
            (keys, values, offsets),
            reference_range_scan_batch(twin, los, his),
        )
        assert keys.tolist() == [9]
        assert values.tolist() == [90]
        assert offsets.tolist() == [0, 1, 1, 1, 1]
        assert sim_observables(tree) == sim_observables(twin)

    def test_empty_batch_is_noop(self):
        tree, _ = build_stacked_tree("leveling")
        before = sim_observables(tree)
        empty = np.zeros(0, dtype=np.int64)
        keys, values, offsets = tree.range_scan_batch(empty, empty)
        assert len(keys) == 0 and len(values) == 0
        assert offsets.tolist() == [0]
        assert sim_observables(tree) == before
        assert tree.stats.total_ranges == 0

    def test_inverted_range_rejected_without_charges(self):
        tree, _ = build_stacked_tree("leveling")
        before = sim_observables(tree)
        with pytest.raises(ValueError, match="empty range"):
            tree.range_scan_batch(
                np.array([1, 10], dtype=np.int64),
                np.array([5, 9], dtype=np.int64),
            )
        # Unlike the per-op loop, batch validation happens up front: a
        # rejected batch leaves the simulation untouched.
        assert sim_observables(tree) == before
        assert tree.stats.total_ranges == 0

    def test_mismatched_shapes_rejected(self):
        tree, _ = build_stacked_tree("leveling")
        with pytest.raises(ValueError, match="equal length"):
            tree.range_scan_batch(
                np.array([1, 2], dtype=np.int64),
                np.array([3], dtype=np.int64),
            )


class TestBatchMatchesPerOpRangeLookup:
    """range_scan_batch ≡ per-op range_lookup, exactly.

    The batch path replays charges in the reference order, so equality is
    exact under *any* cost model — no dyadic-cost crutch needed.
    """

    def _check(self, tree, los, his):
        twin = snapshot_twin(tree)

        t0 = tree.clock.now
        got = pairs_per_range(tree.range_scan_batch(los, his))
        batch_sim_s = tree.clock.now - t0

        t0 = twin.clock.now
        expected = [
            twin.range_lookup(int(lo), int(hi)) for lo, hi in zip(los, his)
        ]
        scalar_sim_s = twin.clock.now - t0

        assert got == expected
        assert batch_sim_s == scalar_sim_s
        assert dict(tree.stats.level_read_time) == dict(
            twin.stats.level_read_time
        )
        assert tree.stats.total_ranges == twin.stats.total_ranges
        assert (
            tree.disk.counters.state_dict()
            == twin.disk.counters.state_dict()
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_policies(self, policy):
        tree, rng = build_stacked_tree(policy)
        los, his = make_ranges(rng, 200)
        self._check(tree, los, his)

    @pytest.mark.parametrize("policy", POLICIES)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_property(self, policy, data):
        n = data.draw(st.integers(min_value=0, max_value=400), label="n_writes")
        key_space = data.draw(
            st.integers(min_value=1, max_value=1200), label="key_space"
        )
        cfg = SystemConfig(
            write_buffer_bytes=4 * 1024,
            size_ratio=3,
            seed=11,
        )
        tree = FLSMTree(cfg)
        tree.set_named_policy(policy)
        rng = np.random.default_rng(
            data.draw(st.integers(min_value=0, max_value=2**31), label="seed")
        )
        if n:
            keys = rng.integers(0, key_space, size=n)
            tree.put_batch(keys, rng.integers(0, 10**6, size=n))
            # Tombstones over live keys, some still in the memtable, so
            # the merge must shadow disk-resident versions mid-batch.
            for key in keys[rng.random(n) < 0.1].tolist():
                tree.delete(key)
        n_ranges = data.draw(
            st.integers(min_value=0, max_value=60), label="n_ranges"
        )
        los, his = make_ranges(
            rng, n_ranges, key_space=key_space + 16, max_span=40
        )
        self._check(tree, los, his)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_scalar_range_lookup_matches_reference(self, kind, data):
        """Per-range ``range_lookup`` through every engine ≡ the reference
        loop over every tree behind it: pairs, clock, per-level charges,
        IO and cache counters, op counts."""
        with drawn_engine_with_twins(data, kind) as (
            engine, twins, rng, key_space
        ):
            n_ranges = data.draw(
                st.integers(min_value=0, max_value=40), label="n_ranges"
            )
            los, his = make_ranges(
                rng, n_ranges, key_space=key_space + 16, max_span=40
            )
            for lo, hi in zip(los.tolist(), his.tolist()):
                expected = []
                home = shard_of_key(lo, len(twins))
                for shard_no, twin in enumerate(twins):
                    keys, values, _ = reference_range_scan_batch(
                        twin, np.array([lo]), np.array([hi])
                    )
                    expected.extend(zip(keys.tolist(), values.tolist()))
                    if shard_no != home:
                        # The reference counts on every tree it scans; an
                        # engine counts a range once, on lo's home shard.
                        twin.stats.total_ranges -= 1
                assert engine.range_lookup(lo, hi) == sorted(expected)
            assert_trees_match_twins(engine, twins)


class TestStackedScanOverTrees:
    """``scan_batch(trees, ...)`` — one pass over several key-disjoint
    trees — against one reference scan per tree on snapshot twins."""

    @pytest.mark.parametrize("in_mission", (False, True), ids=["idle", "window"])
    @pytest.mark.parametrize("n_trees", (1, 2, 4))
    def test_matches_per_tree_reference(self, n_trees, in_mission):
        store, rng = loaded_store(n_trees)
        trees = store.shards
        twins = [snapshot_twin(tree) for tree in trees]
        los, his = make_ranges(rng, 150, key_space=30000)
        if in_mission:
            # The window's own accumulators start from earlier charges.
            probe = rng.integers(0, 30000, size=64)
            for tree in trees + twins:
                tree.begin_mission()
                tree.get_batch(probe)

        got = scan_batch(trees, los, his)

        assert pairs_per_range(got) == reference_over_trees(twins, los, his)
        for tree, twin in zip(trees, twins):
            # Clock, total_read_time, level_read_time, seq_reads, cache.
            assert sim_observables(tree) == sim_observables(twin)
            if in_mission:
                ours, theirs = tree.end_mission(), twin.end_mission()
                assert ours.read_time == theirs.read_time > 0.0
                assert ours.level_read_time == theirs.level_read_time
                assert ours.sim_duration == theirs.sim_duration
                assert ours.io == theirs.io

    def _disjoint_trees(self):
        """Four key-disjoint trees (keys congruent to the tree number mod
        4), one per degenerate source shape."""
        cfg = SystemConfig(write_buffer_bytes=8 * 1024, size_ratio=4, seed=2)
        rng = np.random.default_rng(2)
        empty, buffered, hollow, shadowed = (FLSMTree(cfg) for _ in range(4))
        # 1: memtable only, with a buffered tombstone.
        buffered.put_batch(np.arange(29, 50, 4), np.arange(29, 50, 4) * 7)
        buffered.delete(41)
        # 2: multi-level, plus an empty active run hung below everything.
        hollow.set_named_policy("tiering")
        keys = np.arange(2, 12000, 4)
        hollow.put_batch(keys, rng.integers(0, 10**6, size=len(keys)))
        none = np.zeros(0, dtype=np.int64)
        bottom = hollow._ensure_level(hollow.n_levels + 1)
        bottom.replace_active(
            hollow._new_run(bottom, none, none, bottom.active_run_capacity())
        )
        # 3: multi-level, then tombstones (flushed and buffered) over keys
        # whose live copies sit in deeper runs.
        shadowed.set_named_policy("tiering")
        keys = np.arange(3, 12000, 4)
        shadowed.put_batch(keys, rng.integers(0, 10**6, size=len(keys)))
        for key in keys[100:160].tolist():
            shadowed.delete(key)
        assert shadowed.n_levels >= 2 and len(shadowed.memtable)
        return [empty, buffered, hollow, shadowed], keys[100:160]

    def test_degenerate_sources(self):
        trees, deleted = self._disjoint_trees()
        assert trees[0].n_levels == 0 and len(trees[0].memtable) == 0
        assert trees[1].n_levels == 0 and len(trees[1].memtable)
        assert trees[2].levels[-1].runs[0].n_entries == 0
        twins = [snapshot_twin(tree) for tree in trees]
        # Wide ranges over every tree's keys (and the deleted stretch),
        # point ranges on a buffered tombstone, and ranges past all keys.
        los = np.array([0, 30, 41, 350, 11000, 10**6], dtype=np.int64)
        his = np.array([250, 60, 41, 700, 13000, 10**7], dtype=np.int64)

        got = pairs_per_range(scan_batch(trees, los, his))

        assert got == reference_over_trees(twins, los, his)
        for tree, twin in zip(trees, twins):
            assert sim_observables(tree) == sim_observables(twin)
        # The empty tree was charged nothing, the others at least probes.
        assert trees[0].clock.now == 0.0 and trees[0].stats.level_read_time == {}
        assert trees[1].stats.level_read_time == {}
        # Each wide range interleaves all three populated trees, minus
        # the shadowed keys; neighbours from the other trees survive.
        assert {key % 4 for key, _ in got[0]} == {1, 2, 3}
        assert got[2] == []  # buffered tombstone
        found = {key for key, _ in got[3]}
        gone = set(deleted.tolist()) & set(range(350, 701))
        assert gone and not gone & found
        assert {key - 1 for key in gone} <= found
        assert got[5] == []

    def test_batch_without_overlap_still_charges_probes(self):
        store, _ = loaded_store(4)
        trees = store.shards
        twins = [snapshot_twin(tree) for tree in trees]
        los = np.array([10**6, 10**7, -500], dtype=np.int64)
        his = los + 50
        seq_reads = [tree.disk.counters.seq_reads for tree in trees]
        keys, values, offsets = scan_batch(trees, los, his)
        assert len(keys) == 0 and len(values) == 0
        assert offsets.tolist() == [0, 0, 0, 0]
        reference_over_trees(twins, los, his)
        for tree, twin in zip(trees, twins):
            assert tree.clock.now == twin.clock.now > 0.0
            assert sim_observables(tree) == sim_observables(twin)
        assert seq_reads == [tree.disk.counters.seq_reads for tree in trees]

    def test_stages_lapped_once_per_store_call(self):
        # The scan over every shard is one pass: the store's span is
        # lapped once per stage, not once per tree.
        store, rng = loaded_store(4)
        tracer = Tracer()
        store.set_tracer(tracer)
        los, his = make_ranges(rng, 40, key_space=30000)
        store.range_scan_batch(los, his)
        (span,) = tracer.spans()
        assert span.name == "store.range_scan_batch" and not span.children
        assert span.attrs["n_ranges"] == 40
        assert {stage: calls for stage, (_, calls) in span.stages.items()} == dict.fromkeys(
            RANGE_STAGES, 1
        )


class TestShardedConformance:

    @pytest.mark.parametrize("n_shards", (1, 4))
    def test_batch_matches_per_op(self, n_shards):
        store, rng = loaded_store(n_shards)
        twin = ShardedStore(store.config, n_shards)
        twin.load_state_dict(store.state_dict())
        los, his = make_ranges(rng, 150, key_space=30000)

        got = pairs_per_range(store.range_scan_batch(los, his))
        assert got == [
            twin.range_lookup(int(lo), int(hi)) for lo, hi in zip(los, his)
        ]
        # Home-shard op counting and per-shard charges must agree shard
        # by shard, not just in aggregate.
        for a, b in zip(store.shards, twin.shards):
            assert a.clock.now == b.clock.now
            assert a.stats.total_ranges == b.stats.total_ranges
            assert dict(a.stats.level_read_time) == dict(
                b.stats.level_read_time
            )
        assert (
            store.stats.total_ranges == twin.stats.total_ranges == len(los)
        )

    def test_empty_and_invalid_batches(self):
        store, _ = loaded_store(2)
        empty = np.zeros(0, dtype=np.int64)
        keys, values, offsets = store.range_scan_batch(empty, empty)
        assert len(keys) == 0 and offsets.tolist() == [0]
        before = store.clock_now
        with pytest.raises(ValueError, match="empty range"):
            store.range_scan_batch(
                np.array([9], dtype=np.int64), np.array([1], dtype=np.int64)
            )
        with pytest.raises(ValueError, match="equal length"):
            store.range_scan_batch(
                np.array([1, 2], dtype=np.int64), np.array([3], dtype=np.int64)
            )
        assert store.clock_now == before
        assert store.stats.total_ranges == 0


class TestMissionRunnerBatchesRanges:
    def test_chunked_run_matches_per_op_replay(self):
        cfg = SystemConfig(write_buffer_bytes=8 * 1024, size_ratio=4, seed=3)
        rng = np.random.default_rng(9)
        size = 800
        mission = mission_from_mix(
            rng,
            size,
            0.6,
            rng.integers(0, 5000, size=size),
            rng.integers(0, 5000, size=size),
            rng.integers(0, 10**6, size=size),
            range_fraction=0.3,
            range_span=40,
        )
        load_keys = np.arange(5000, dtype=np.int64)
        load_values = rng.integers(0, 10**6, size=5000)
        chunked = FLSMTree(cfg)
        replay = FLSMTree(cfg)
        chunked.bulk_load(load_keys, load_values)
        replay.bulk_load(load_keys, load_values)

        chunk_size = 64
        got = MissionRunner(chunked, chunk_size=chunk_size).run(mission)

        # The pre-PR chunk body: per-op range_lookup in chunk order.
        replay.begin_mission()
        for start in range(0, size, chunk_size):
            stop = min(start + chunk_size, size)
            kinds = mission.kinds[start:stop]
            keys = mission.keys[start:stop]
            spans = mission.spans[start:stop]
            updates = kinds == OP_UPDATE
            if updates.any():
                replay.put_batch(
                    keys[updates], mission.values[start:stop][updates]
                )
            lookups = kinds == OP_LOOKUP
            if lookups.any():
                replay.get_batch(keys[lookups])
            for i in np.flatnonzero(kinds == OP_RANGE):
                lo = int(keys[i])
                replay.range_lookup(lo, lo + max(0, int(spans[i]) - 1))
        want = replay.end_mission()

        assert got.n_ranges == want.n_ranges > 0
        assert got.read_time == want.read_time
        assert got.write_time == want.write_time
        assert got.level_read_time == want.level_read_time
        assert got.io.state_dict() == want.io.state_dict()
        assert chunked.clock.now == replay.clock.now


class TestServeConformance:
    def _server(self, n_shards=2, seed=7):
        cfg = SystemConfig(
            write_buffer_bytes=64 * 1024, size_ratio=6, seed=seed
        )
        store = ShardedStore(cfg, n_shards)
        rng = np.random.default_rng(seed)
        keys = np.unique(rng.integers(0, 8000, size=4000))
        store.bulk_load(keys, rng.integers(0, 10**6, size=len(keys)))
        server = KVServer(store, max_batch=64)
        server._running = True  # enqueue without workers: one exact batch
        return server, store, rng

    def test_served_batch_matches_direct_engine(self):
        server, store, rng = self._server()
        direct = ShardedStore(store.config, store.n_shards)
        direct.load_state_dict(store.state_dict())
        lane = server.lanes[0]
        requests = [
            Request(REQ_PUT, 17, value=1),
            Request(REQ_GET, 17),
            Request(REQ_RANGE, 50, span=20),
            Request(REQ_RANGE, 50, span=0),  # degenerate: single key
            Request(REQ_RANGE, 10**7, span=5),  # no overlap
            Request(REQ_RANGE, 4000, span=64),
        ]
        for request in requests:
            request.t_submit = time.perf_counter()
        server._serve_batch(lane, requests)

        direct.put(17, 1)
        direct.get(17)
        ranges = [r for r in requests if r.kind == REQ_RANGE]
        los = np.array([r.key for r in ranges], dtype=np.int64)
        his = np.array(
            [r.key + max(0, r.span - 1) for r in ranges], dtype=np.int64
        )
        keys, values, offsets = direct.range_scan_batch(los, his)
        bounds = offsets.tolist()
        for i, request in enumerate(ranges):
            got_keys, got_values = request.result
            np.testing.assert_array_equal(
                got_keys, keys[bounds[i] : bounds[i + 1]]
            )
            np.testing.assert_array_equal(
                got_values, values[bounds[i] : bounds[i + 1]]
            )
        # Serving the coalesced batch charges the same simulated totals
        # as the offline batch path.
        for a, b in zip(store.shards, direct.shards):
            assert a.clock.now == b.clock.now
            assert a.stats.total_ranges == b.stats.total_ranges


def _view_items(table, lo, hi):
    """``lo <= key <= hi`` sliced out of the sorted view, the way
    ``scan_batch`` reads the memtable."""
    mk, mv = table.sorted_view()
    start = int(np.searchsorted(mk, lo, side="left"))
    stop = int(np.searchsorted(mk, hi, side="right"))
    return dict(zip(mk[start:stop].tolist(), mv[start:stop].tolist()))


class TestMemtableSortedView:
    def _table(self, with_view):
        table = MemTable(256)
        rng = np.random.default_rng(2)
        for key in rng.integers(0, 500, size=120).tolist():
            buffer_put(table, key, key * 3)
        buffer_delete(table, 7)
        buffer_put(table, 13, 1)
        buffer_delete(table, 13)  # tombstone over a live buffered key
        if with_view:
            table.sorted_view()
            assert table._sorted_view is not None
        else:
            assert table._sorted_view is None
        return table

    @pytest.mark.parametrize("with_view", (False, True), ids=["stale", "cached"])
    @pytest.mark.parametrize(
        "bounds",
        [(0, 499), (100, 100), (7, 13), (600, 900), (-50, 20), (499, 10**6)],
    )
    def test_equivalence_with_dict_scan(self, with_view, bounds):
        table = self._table(with_view)
        lo, hi = bounds
        assert _view_items(table, lo, hi) == range_items_scan(table, lo, hi)

    def test_view_includes_tombstones(self):
        table = self._table(with_view=True)
        from repro.lsm.entry import TOMBSTONE

        items = _view_items(table, 7, 13)
        assert items[7] == TOMBSTONE and items[13] == TOMBSTONE

    def test_stale_view_rebuild(self):
        table = self._table(with_view=True)
        buffer_put(table, 10_000, 5)  # invalidates the view
        assert table._sorted_view is None
        # The next reader rebuilds the view and must see the write.
        assert _view_items(table, 10_000, 10_000) == {10_000: 5}
        assert table._sorted_view is not None
        assert _view_items(table, 0, 10**6) == range_items_scan(table, 0, 10**6)

    def test_sorted_view_is_cached_and_sorted(self):
        table = self._table(with_view=False)
        mk, mv = table.sorted_view()
        assert (np.diff(mk) > 0).all()
        again = table.sorted_view()
        assert again[0] is mk and again[1] is mv  # no rebuild
        assert len(mk) == len(table)

    def test_empty_table_view(self):
        table = MemTable(8)
        mk, mv = table.sorted_view()
        assert len(mk) == 0 and len(mv) == 0
        assert range_items_scan(table, 0, 100) == {}


class TestLiveItemsUsesSortedView:
    def test_matches_reference_merge_and_builds_view(self):
        tree, _ = build_stacked_tree("tiering")
        tree.put(10**6, 42)  # guarantee a buffered live entry
        assert tree.memtable._sorted_view is None
        keys, values = live_items(tree)
        assert tree.memtable._sorted_view is not None  # view reused
        # Against the ground truth: per-key gets see the same live set.
        assert (np.diff(keys) > 0).all()
        lookup = dict(zip(keys.tolist(), values.tolist()))
        assert lookup[10**6] == 42
        for key in list(lookup)[::97]:
            assert tree.get(key) == lookup[key]


class TestRangeStageLaps:
    def _traced_twin(self, tree):
        traced = FLSMTree(tree.config)
        traced.load_state_dict(tree.state_dict())
        tracer = Tracer()
        traced.set_tracer(tracer)
        return traced, tracer

    def test_tracing_does_not_change_simulation(self):
        tree, rng = build_stacked_tree("tiering")
        traced, _ = self._traced_twin(tree)
        los, his = make_ranges(rng, 120)
        assert_batch_equal(
            tree.range_scan_batch(los, his),
            traced.range_scan_batch(los, his),
        )
        assert sim_observables(tree) == sim_observables(traced)

    def test_stages_populated(self):
        tree, rng = build_stacked_tree("tiering")
        traced, tracer = self._traced_twin(tree)
        los, his = make_ranges(rng, 50)
        traced.range_scan_batch(los, his)
        (span,) = tracer.spans()
        assert span.name == "lsm.range_scan_batch"
        assert span.attrs["n_ranges"] == 50
        # The four range stages, once each, and no point stage.
        assert tuple(span.stages) == RANGE_STAGES
        assert all(calls == 1 for _, calls in span.stages.values())


class TestMultiArange:
    def test_matches_concatenated_aranges(self):
        rng = np.random.default_rng(4)
        starts = rng.integers(0, 100, size=30)
        lengths = rng.integers(0, 10, size=30)
        lengths[::5] = 0  # zero-length blocks vanish
        expected = np.concatenate(
            [np.arange(s, s + n) for s, n in zip(starts, lengths)]
            or [np.zeros(0, dtype=np.int64)]
        )
        np.testing.assert_array_equal(
            multi_arange(starts, lengths), expected
        )

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert len(multi_arange(empty, empty)) == 0
