"""The batch range-scan path's neighbours.

That :meth:`LSMTree.range_scan_batch` — one stacked pass over one tree or
every shard of a store — is bit-identical to the per-op reference
(``tests/reference_range.py``) and to per-range :meth:`range_lookup`, on
every engine, is the differential oracle's (``tests/test_oracle.py``). This
module pins the layers that dispatch ranges (mission runner, serve lane),
the memtable sorted view the pipeline rides on (:meth:`MemTable.sorted_view`,
:func:`repro.lsm.iterators.live_items`) and the range stage laps.
"""

from __future__ import annotations

import copy
import time

import numpy as np
import pytest
from reference_range import range_items_scan
from test_entry_memtable import buffer_delete, buffer_put
from test_readpath import build_stacked_tree

from repro.config import SystemConfig
from repro.core.missions import MissionRunner
from repro.engine.sharded import ShardedStore
from repro.lsm import FLSMTree
from repro.lsm.iterators import live_items
from repro.lsm.memtable import MemTable
from repro.lsm.rangepath import RANGE_STAGES, multi_arange
from repro.obs import Tracer
from repro.serve.server import REQ_GET, REQ_PUT, REQ_RANGE, KVServer, Request
from repro.workload.spec import (
    OP_LOOKUP,
    OP_RANGE,
    OP_UPDATE,
    mission_from_mix,
)


def make_ranges(rng, n, key_space=15000, max_span=80):
    """Mixed inclusive ranges: wide, degenerate (lo == hi via span 0) and
    out-of-domain (no overlap with any stored key)."""
    los = rng.integers(-key_space // 8, key_space, size=n)
    spans = rng.integers(0, max_span, size=n)
    spans[rng.random(n) < 0.15] = 0  # lo == hi
    los[rng.random(n) < 0.1] += 10 * key_space  # past every stored key
    return los.astype(np.int64), (los + spans).astype(np.int64)


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
        assert got.io == want.io
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
        direct = copy.deepcopy(store)
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
        traced = copy.deepcopy(tree)
        tracer = Tracer()
        traced.set_tracer(tracer)
        return traced, tracer

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

    def test_stages_lapped_once_per_store_call(self):
        # The scan over every shard is one pass: the store's span is
        # lapped once per stage, not once per tree.
        store = ShardedStore(SystemConfig(write_buffer_bytes=8 * 1024, size_ratio=4, seed=5), 4)
        rng = np.random.default_rng(5)
        store.put_batch(rng.integers(0, 30000, size=6000), rng.integers(0, 10**6, size=6000))
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
