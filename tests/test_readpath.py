"""The level-at-a-time read path's parts.

That :meth:`LSMTree.get_batch` is bit-identical to the run-at-a-time
reference (``tests/reference_get.py``) and to per-key :meth:`LSMTree.get`,
on every engine, is the differential oracle's (``tests/test_oracle.py``).
This module pins the parts the pipeline rides on: the stacked level index,
the batched storage primitives (:meth:`LRUBlockCache.access_batch`,
:meth:`DiskModel.random_read_batch`, :meth:`SimClock.advance_repeated`), the
memtable sorted-view cache and the stage laps a tracer records.
"""

from __future__ import annotations

import contextlib
import copy
import importlib.util
import io
import pathlib
import pickle

import numpy as np
import pytest
from reference_cache import ReferenceLRUCache, cache_state
from reference_get import find, find_batch
from test_entry_memtable import buffer_delete, buffer_put

from repro.config import BloomMode, CostModelParams, SystemConfig, TransitionKind
from repro.core.missions import MissionRunner
from repro.errors import StorageError
import repro.lsm.tree as tree_module
from repro.lsm import FLSMTree
from repro.lsm.level import LevelLookupIndex
from repro.lsm.memtable import MemTable
from repro.lsm.rangepath import RANGE_STAGES
from repro.lsm.readplan import PLAN_STAGES
from repro.obs import Tracer, stage_totals
from repro.storage.cache import LRUBlockCache
from repro.storage.clock import SimClock
from repro.storage.pager import DiskModel
from repro.workload.spec import Mission


def build_stacked_tree(policy, *, cache_pages=0, n=6000, seed=3):
    """A multi-level tree with deletes sprinkled in, pinned to ``policy``."""
    cfg = SystemConfig(
        write_buffer_bytes=8 * 1024,
        size_ratio=4,
        block_cache_pages=cache_pages,
        seed=seed,
    )
    tree = FLSMTree(cfg)
    tree.set_named_policy(policy)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n * 2, size=n)
    values = rng.integers(0, 10**6, size=n)
    tree.put_batch(keys, values)
    for key in keys[:50].tolist():
        tree.delete(key)
    return tree, rng


#: Stages ``get_batch`` laps on its span, in pipeline order.
POINT_STAGES = ("memtable",) + PLAN_STAGES


class TestLevelLookupIndex:
    def _runs(self, tree):
        for level in tree.levels:
            if level.n_runs >= 2:
                return level
        raise AssertionError("fixture produced no stacked level")

    def test_newest_rank_semantics(self):
        tree, _ = build_stacked_tree("tiering")
        level = self._runs(tree)
        index = level.lookup_index()
        probe = np.unique(
            np.concatenate([run.keys for run in level.runs])
        )
        rank, slot = index.newest_ranks(probe)
        positions = index.positions[slot]
        n_runs = level.n_runs
        newest_first = list(reversed(level.runs))
        for i, key in enumerate(probe.tolist()):
            expected_rank = n_runs
            for j, run in enumerate(newest_first):
                hit, value, page = find(run, key)
                if hit:
                    expected_rank = j
                    assert newest_first[rank[i]].values[positions[i]] == value
                    assert positions[i] == np.searchsorted(run.keys, key)
                    break
            assert rank[i] == expected_rank

    def test_absent_keys_get_sentinel(self):
        tree, _ = build_stacked_tree("tiering")
        level = self._runs(tree)
        index = level.lookup_index()
        all_keys = np.concatenate([run.keys for run in level.runs])
        absent = np.array(
            [all_keys.max() + 10, all_keys.min() - 10], dtype=np.int64
        )
        rank, _ = index.newest_ranks(absent)
        assert (rank == level.n_runs).all()

    def test_index_cached_until_runs_change(self):
        tree, _ = build_stacked_tree("tiering")
        level = self._runs(tree)
        assert level.lookup_index() is level.lookup_index()

    def test_compaction_frees_the_indexes_it_replaces(self, monkeypatch):
        """No merge runs while a level it rewrites still caches its index:
        the stale index and the merge output must not share the peak."""
        tree, rng = build_stacked_tree("tiering")
        rewriting, checked = [], []

        def entered(method):
            def wrapper(self, level_no, *args, **kwargs):
                rewriting.append(level_no)
                try:
                    return method(self, level_no, *args, **kwargs)
                finally:
                    rewriting.pop()
            return wrapper

        for name in ("_admit", "_merge_level_down", "rebuild_level_in_place"):
            monkeypatch.setattr(
                tree_module.LSMTree, name, entered(getattr(tree_module.LSMTree, name))
            )
        merge = tree_module.merge_sorted_sources

        def merge_at_entry(*args, **kwargs):
            checked.append(tuple(rewriting))
            for level_no in rewriting:
                assert tree.level(level_no)._lookup_cache is None, level_no
            return merge(*args, **kwargs)

        monkeypatch.setattr(tree_module, "merge_sorted_sources", merge_at_entry)

        def cache_every_index():
            for level in tree.levels:
                level.lookup_index()

        def flush():
            calls = len(checked)
            while len(checked) == calls:
                tree.put_batch(rng.integers(0, 12_000, size=4), rng.integers(0, 10**6, size=4))
            return checked[calls]

        flush()  # level 1 starts empty: give it a run
        assert tree.level(1).n_runs
        cache_every_index()  # a flush into level 1's active run
        assert flush() == (1,)
        bottom = len(tree.levels)
        assert tree.level(1).n_runs and tree.level(bottom).n_runs >= 2
        cache_every_index()  # a greedy merge-down of level 1 into level 2
        tree.set_policy(1, tree.level(1).policy % 4 + 1, TransitionKind.GREEDY)
        assert checked[-1] == (1, 2)
        cache_every_index()  # a greedy rebuild of the bottom level in place
        tree.set_policy(bottom, tree.level(bottom).policy % 4 + 1, TransitionKind.GREEDY)
        assert checked[-1] == (bottom,)

    def test_empty_runs_skipped(self):
        index = LevelLookupIndex([])
        rank, slot = index.newest_ranks(np.array([1, 2, 3], dtype=np.int64))
        assert (rank == 0).all()
        assert len(slot) == 3

    def test_single_run_index_is_the_run(self):
        """One run needs no merged copy: the index shares its keys, and a
        slot is the clamped in-run position of hit and miss alike."""
        tree, _ = build_stacked_tree("leveling")
        run = next(l for l in tree.levels if l.n_runs == 1).runs[0]
        index = LevelLookupIndex([run])
        assert index.keys is run.keys
        assert index.rank is None and index.positions is None
        probe = np.array(
            [run.keys[0], run.keys[5] + 1, run.keys[-1], run.keys[-1] + 9]
        )
        rank, slot = index.newest_ranks(probe)
        hit, values, pages = find_batch(run, probe)
        np.testing.assert_array_equal(rank == 0, hit)
        np.testing.assert_array_equal(rank == 1, ~hit)
        np.testing.assert_array_equal(run.values[slot[hit]], values[hit])
        everything = np.arange(len(probe))
        np.testing.assert_array_equal(
            index.run_positions(run, probe, slot, everything, hit)
            // run.entries_per_page,
            pages,
        )


class TestCacheBatchAccess:
    @pytest.mark.parametrize("capacity", (0, 1, 3, 64))
    def test_access_batch_equals_per_page_loop(self, capacity):
        rng = np.random.default_rng(5)
        batches = [
            rng.integers(0, 12, size=rng.integers(0, 20)).tolist()
            for _ in range(30)
        ]
        batched = LRUBlockCache(capacity)
        looped = ReferenceLRUCache(capacity)
        for i, pages in enumerate(batches):
            run_id = i % 3
            hits = batched.access_batch(run_id, pages)
            expected_hits = sum(
                looped.access((run_id, page)) for page in pages
            )
            assert hits == expected_hits
            # Full state machine equality: resident pages in LRU order,
            # hit/miss counters.
            assert cache_state(batched) == cache_state(looped)

    def test_empty_batch_is_noop(self):
        cache = LRUBlockCache(4)
        assert cache.access_batch(1, []) == 0
        assert cache_state(cache) == cache_state(LRUBlockCache(4))

    def test_capacity_zero_counts_misses(self):
        cache = LRUBlockCache(0)
        assert cache.access_batch(1, [1, 2, 3]) == 0
        assert cache.misses == 3 and cache.hits == 0
        assert len(cache) == 0


class TestDiskBatchRead:
    def _disk(self, capacity, cache=LRUBlockCache):
        return DiskModel(CostModelParams(), SimClock(), cache(capacity))

    def test_no_cache_keeps_single_shot_pricing(self):
        # With caching disabled the whole batch is priced as one n*cost
        # advance — the seed's behavior, which bench baselines pin. (A
        # per-page loop would round differently; only the cache-enabled
        # branch promises loop-bitwise charging.)
        disk = self._disk(0)
        pages = np.array([3, 1, 3, 7])
        total = disk.random_read_batch(9, pages)
        assert total == len(pages) * CostModelParams().random_read_s
        assert disk.clock.now == total
        assert disk.counters.random_reads == len(pages)
        assert disk.cache.misses == len(pages)

    @pytest.mark.parametrize("capacity", (1, 4, 64))
    def test_random_read_batch_equals_loop(self, capacity):
        rng = np.random.default_rng(9)
        batched = self._disk(capacity)
        looped = self._disk(capacity, ReferenceLRUCache)
        for i in range(25):
            pages = rng.integers(0, 10, size=rng.integers(0, 16))
            run_id = i % 2
            total = batched.random_read_batch(run_id, pages)
            # One page at a time on the per-page cache; summed left to right
            # like the clock (advance_repeated(s, 1) is the scalar charge).
            expected = sum(
                looped.random_read_batch(run_id, [page]) for page in pages.tolist()
            )
            assert total == expected
            # Clock must accumulate bit-identically, not just approximately.
            assert batched.clock.now == looped.clock.now
            assert batched.counters == looped.counters
            assert cache_state(batched.cache) == cache_state(looped.cache)

    def test_negative_page_rejected_when_cached(self):
        # Only the cache-enabled branch materializes the page array; the
        # no-cache branch prices the batch without inspecting pages (seed
        # behavior on the hot default path).
        disk = self._disk(8)
        with pytest.raises(StorageError):
            disk.random_read_batch(1, np.array([0, -1, 2]))

    def test_snapshot_page_keys_stay_json_clean(self):
        # access_batch receives .tolist()'d pages, so the cache holds plain
        # int pairs (numpy ints would break JSON round-trips).
        disk = self._disk(8)
        disk.random_read_batch(3, np.array([1, 2, 1]))
        for run_id, page in disk.cache:
            assert type(run_id) is int and type(page) is int


class TestAdvanceRepeated:
    def test_matches_loop_bitwise(self):
        step = 25e-6  # non-dyadic on purpose: rounding order must match
        batched, looped = SimClock(), SimClock()
        total = batched.advance_repeated(step, 1000)
        expected = 0.0
        for _ in range(1000):
            expected += step
            looped.advance(step)
        assert total == expected
        assert batched.now == looped.now
        # And differs from the single-shot product in general, which is why
        # advance_repeated exists at all.
        assert total != 1000 * step

    def test_zero_times(self):
        clock = SimClock()
        assert clock.advance_repeated(1.0, 0) == 0.0
        assert clock.now == 0.0

    def test_rejects_negative(self):
        clock = SimClock()
        with pytest.raises(StorageError):
            clock.advance_repeated(-1.0, 3)
        with pytest.raises(StorageError):
            clock.advance_repeated(1.0, -3)


class TestPlanDraws:
    """The read plan draws a tree's Bloom uniforms once per pass and deals
    them out in chunk-at-a-time order; that is only sound because split
    draws and one draw take the same stream."""

    @pytest.mark.parametrize("a, b", [(0, 0), (0, 5), (5, 0), (3, 7), (1000, 1)])
    def test_split_draws_equal_one_draw(self, a, b):
        split, whole = (FLSMTree(SystemConfig(seed=11))._rng for _ in range(2))
        drawn = np.concatenate([split.random(a), split.random(b)])
        assert drawn.tobytes() == whole.random(a + b).tobytes()
        assert split.bit_generator.state == whole.bit_generator.state

    def test_bit_array_tree_draws_nothing(self):
        tree = FLSMTree(SystemConfig(
            write_buffer_bytes=8 * 1024, size_ratio=4, bloom_mode=BloomMode.BIT_ARRAY, seed=3
        ))
        tree.set_named_policy("tiering")
        rng = np.random.default_rng(3)
        tree.put_batch(rng.integers(0, 12000, 6000), rng.integers(0, 10**6, 6000))
        state = tree._rng.bit_generator.state
        kinds = rng.integers(0, 3, 500)
        mission = Mission(kinds, rng.integers(0, 12000, 500), rng.integers(0, 10**6, 500), rng.integers(0, 50, 500))
        MissionRunner(tree, chunk_size=16).run(mission)
        tree.get_batch(rng.integers(0, 12000, 300))
        assert tree.view().total_lookups > 300
        assert tree._rng.bit_generator.state == state


class TestMemtableSortedView:
    def _probe(self, table, keys):
        return table.get_batch(np.asarray(keys, dtype=np.int64))

    def test_view_reused_across_batches(self):
        table = MemTable(64)
        for i in range(20):
            buffer_put(table, i * 3, i)
        self._probe(table, list(range(40)))
        view = table._sorted_view
        assert view is not None
        self._probe(table, list(range(40)))
        assert table._sorted_view is view  # no rebuild for read-only batches

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda t: buffer_put(t, 999, 1),
            lambda t: buffer_delete(t, 3),
            lambda t: t.put_batch(
                np.array([7, 8], dtype=np.int64),
                np.array([1, 2], dtype=np.int64),
            ),
            lambda t: t.clear(),
        ],
        ids=["put", "delete", "put_batch", "clear"],
    )
    def test_any_write_invalidates_view(self, mutate):
        table = MemTable(64)
        for i in range(20):
            buffer_put(table, i * 3, i)
        self._probe(table, list(range(40)))
        assert table._sorted_view is not None
        mutate(table)
        assert table._sorted_view is None

    def test_pickle_leaves_out_view(self):
        table = MemTable(64)
        buffer_put(table, 1, 10)
        self._probe(table, [1])
        assert table._sorted_view is not None
        loaded = pickle.loads(pickle.dumps(table))
        assert loaded._sorted_view is None
        found, values = self._probe(loaded, [1])
        assert found.tolist() == [True] and values.tolist() == [10]

    def test_stale_view_small_batch_still_correct(self):
        # Small batches against a stale view take the dict-probe fallback;
        # results must match regardless of which path answered.
        table = MemTable(64)
        for i in range(30):
            buffer_put(table, i * 2, i)
        buffer_delete(table, 4)
        assert table._sorted_view is None
        buffered, values = self._probe(table, [0, 1, 4, 58])
        assert buffered.tolist() == [True, False, True, True]
        assert values[0] == 0 and values[3] == 29

    def test_drain_reuses_valid_view(self):
        table = MemTable(64)
        for key, value in ((5, 50), (1, 10), (3, 30)):
            buffer_put(table, key, value)
        self._probe(table, [1, 2, 3, 4, 5] * 13)  # batch >= len builds view
        view = table._sorted_view
        assert view is not None
        keys, values = table.drain_sorted()
        assert keys is view[0] and values is view[1]  # ownership transfer
        assert keys.tolist() == [1, 3, 5]
        assert values.tolist() == [10, 30, 50]
        assert len(table) == 0 and table._sorted_view is None

    def test_drain_without_view_sorts(self):
        table = MemTable(8)
        for key in (9, 2, 7):
            buffer_put(table, key, key * 10)
        keys, values = table.drain_sorted()
        assert keys.tolist() == [2, 7, 9]
        assert values.tolist() == [20, 70, 90]


class TestReadPathStageLaps:
    """The tree's one observer: with a tracer attached, ``get_batch`` laps
    its pipeline stages on the span it opened."""

    def _traced_twin(self, tree):
        traced = copy.deepcopy(tree)
        tracer = Tracer()
        traced.set_tracer(tracer)
        return traced, tracer

    def test_stages_populated(self):
        tree, rng = build_stacked_tree("tiering", cache_pages=16)
        traced, tracer = self._traced_twin(tree)
        traced.get_batch(rng.integers(0, 15000, size=2000).astype(np.int64))
        (span,) = tracer.spans()
        assert span.name == "lsm.get_batch" and span.attrs["n_keys"] == 2000
        assert set(span.stages) == set(POINT_STAGES)
        assert span.stages["memtable"][1] == 1
        assert span.stages["bloom"][1] > 0  # disk levels were probed
        assert all(seconds >= 0.0 for seconds, _ in span.stages.values())
        # Every interval up to the last lap belongs to a stage.
        lapped = sum(seconds for seconds, _ in span.stages.values())
        assert lapped <= span.duration
        assert span.as_dict()["stages"]["bloom"]["calls"] == span.stages["bloom"][1]

    def test_stage_totals_folds_whole_trees(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            outer.lap("a")
            with tracer.span("inner") as inner:
                inner.lap("a")
                inner.lap("b")
            outer.lap("a")
        totals = stage_totals(tracer.spans())
        assert totals["a"][1] == 3 and totals["b"][1] == 1
        assert totals["a"][0] == pytest.approx(
            outer.stages["a"][0] + inner.stages["a"][0]
        )

    def test_profile_script_reports_every_stage(self):
        """``scripts/profile_read_path.py`` folds the spans into the table
        the profiler used to print: all eight stages, point and range."""
        path = pathlib.Path(__file__).parent.parent / "scripts" / "profile_read_path.py"
        spec = importlib.util.spec_from_file_location("profile_read_path", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert script.main([
                "--n-records", "3000", "--batches", "2", "--batch-size", "256",
                "--range-batches", "2", "--range-batch-size", "32",
            ]) == 0
        rows = {line.split("|")[0].strip(): line for line in out.getvalue().splitlines()}
        assert script.STAGES == POINT_STAGES + RANGE_STAGES
        for stage in script.STAGES:
            assert int(rows[stage].split("|")[3]) > 0, rows[stage]
