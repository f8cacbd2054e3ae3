"""Equivalence suite for the vectorized level-at-a-time read path.

The stacked pipeline in :meth:`LSMTree.get_batch` must be **bit-identical**
to the run-at-a-time reference (:func:`reference_get.reference_get_batch`)
in every simulated observable, and semantically identical to per-key
:meth:`LSMTree.get`. This module pins both contracts, plus the batched
storage primitives the pipeline rides on (:meth:`LRUBlockCache.access_batch`,
:meth:`DiskModel.random_read_batch`, :meth:`SimClock.advance_repeated`) and
the memtable sorted-view cache.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_cache import ReferenceLRUCache
from reference_get import find, find_batch, reference_get_batch
from test_entry_memtable import buffer_delete, buffer_put

from repro.config import BloomMode, CostModelParams, SystemConfig
from repro.durable.store import DurableStore
from repro.engine.sharded import ShardedStore, shard_of_key
from repro.errors import StorageError
from repro.lsm import FLSMTree
from repro.lsm.entry import TOMBSTONE
from repro.lsm.level import LevelLookupIndex
from repro.lsm.memtable import MemTable
from repro.lsm.rangepath import RANGE_STAGES
from repro.lsm.tree import LSMTree
from repro.obs import Tracer, stage_totals
from repro.storage.cache import LRUBlockCache
from repro.storage.clock import SimClock
from repro.storage.pager import DiskModel

#: Power-of-two cost constants: every per-event charge is a dyadic float, so
#: per-key and batched accumulation orders produce bit-equal sums and the
#: get_batch ≡ per-key-get property can demand exact equality.
DYADIC_COSTS = CostModelParams(
    random_read_s=2.0**-15,
    random_write_s=2.0**-15,
    seq_read_s=2.0**-17,
    seq_write_s=2.0**-17,
    run_probe_cpu_s=2.0**-18,
    compaction_entry_cpu_s=2.0**-20,
)

POLICIES = ("leveling", "tiering", "lazy-leveling")
#: ``build_stacked_tree`` input: leveling, every level exactly one run (so
#: each level's lookup index is the zero-copy single-run one), the deepest
#: of them an *empty* active run.
SINGLE_RUNS = "single-runs"


def build_stacked_tree(
    policy,
    *,
    cache_pages=0,
    bloom_mode=BloomMode.ANALYTICAL,
    costs=None,
    n=6000,
    seed=3,
):
    """A multi-level tree with deletes sprinkled in, pinned to ``policy``."""
    cfg = SystemConfig(
        write_buffer_bytes=8 * 1024,
        size_ratio=4,
        block_cache_pages=cache_pages,
        bloom_mode=bloom_mode,
        seed=seed,
        costs=costs if costs is not None else CostModelParams(),
    )
    tree = FLSMTree(cfg)
    if policy is not None:
        tree.set_named_policy("leveling" if policy == SINGLE_RUNS else policy)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n * 2, size=n)
    values = rng.integers(0, 10**6, size=n)
    tree.put_batch(keys, values)
    for key in keys[:50].tolist():
        tree.delete(key)
    if policy == SINGLE_RUNS:
        # Flush the buffered tombstones so lookups hit them on disk, then
        # hang an empty active run below everything else.
        tree.put_batch(keys[50:400], values[50:400])
        none = np.zeros(0, dtype=np.int64)
        bottom = tree._ensure_level(tree.n_levels + 1)
        bottom.replace_active(
            tree._new_run(bottom, none, none, bottom.active_run_capacity())
        )
    return tree, rng


#: Stages ``get_batch`` laps on its span, in pipeline order.
POINT_STAGES = ("memtable", "search", "bloom", "cache")


def sim_observables(tree):
    """Everything the simulation contract says an operation may change:
    the view (clock, charges, counts, counters) plus what it summarises
    away — block-cache contents and the Bloom RNG stream."""
    return (
        tree.view(),
        tree.cache.state_dict(),
        tree._rng.bit_generator.state,
    )


#: Every engine a scalar op can enter through; all of them inherit the
#: same derived scalars (``repro.lsm.tree.DerivedMembers``).
ENGINE_KINDS = ("tree", "sharded-1", "sharded-4", "durable")


def make_engine(kind, cfg, data_dir):
    if kind == "tree":
        return LSMTree(cfg)
    if kind == "durable":
        return DurableStore(data_dir, cfg)
    return ShardedStore(cfg, int(kind.rpartition("-")[2]))


@contextlib.contextmanager
def drawn_engine_with_twins(data, kind):
    """A hypothesis-drawn engine of ``kind`` — batch writes, then tombstones
    over live keys (some still buffered, so reads must shadow disk-resident
    versions) — with plain-tree snapshot twins of the tree(s) behind it, in
    shard order, for the reference loops to run against. Yields
    ``(engine, twins, rng, key_space)``."""
    cfg = SystemConfig(
        write_buffer_bytes=4 * 1024,
        size_ratio=3,
        block_cache_pages=16,
        seed=11,
    )
    n = data.draw(st.integers(min_value=0, max_value=400), label="n_writes")
    key_space = data.draw(
        st.integers(min_value=1, max_value=1200), label="key_space"
    )
    policy = data.draw(st.sampled_from(POLICIES), label="policy")
    rng = np.random.default_rng(
        data.draw(st.integers(min_value=0, max_value=2**31), label="seed")
    )
    with tempfile.TemporaryDirectory() as data_dir:
        engine = make_engine(kind, cfg, data_dir)
        engine.set_named_policy(policy)
        if n:
            keys = rng.integers(0, key_space, size=n)
            engine.put_batch(keys, rng.integers(0, 10**6, size=n))
            for key in keys[rng.random(n) < 0.1].tolist():
                engine.delete(key)
        twins = []
        for tree in engine.tuning_targets():
            twin = LSMTree(tree.config)
            twin.load_state_dict(LSMTree.state_dict(tree))
            twins.append(twin)
        try:
            yield engine, twins, rng, key_space
        finally:
            if kind == "durable":
                engine.close()


def assert_trees_match_twins(engine, twins):
    for tree, twin in zip(engine.tuning_targets(), twins):
        assert sim_observables(tree) == sim_observables(twin)


class TestBitIdenticalToReference:
    """New pipeline vs the verbatim pre-PR loop, on identical tree state."""

    @pytest.mark.parametrize("policy", (None,) + POLICIES + (SINGLE_RUNS,))
    @pytest.mark.parametrize("cache_pages", (0, 64))
    @pytest.mark.parametrize(
        "bloom_mode", (BloomMode.ANALYTICAL, BloomMode.BIT_ARRAY)
    )
    def test_get_batch_matches_reference(self, policy, cache_pages, bloom_mode):
        tree, rng = build_stacked_tree(
            policy, cache_pages=cache_pages, bloom_mode=bloom_mode
        )
        state = tree.state_dict()
        probes = rng.integers(0, 15000, size=4000).astype(np.int64)

        found_new, values_new = tree.get_batch(probes)
        after_new = sim_observables(tree)

        twin = FLSMTree(tree.config)
        twin.load_state_dict(state)
        found_ref, values_ref = reference_get_batch(twin, probes)
        after_ref = sim_observables(twin)

        np.testing.assert_array_equal(found_new, found_ref)
        np.testing.assert_array_equal(values_new, values_ref)
        assert after_new == after_ref

    def test_stacked_runs_actually_exercised(self):
        # Guard the fixture: tiering/lazy-leveling must produce a level with
        # >= 2 runs, or the stacked-index path silently goes untested.
        for policy in ("tiering", "lazy-leveling"):
            tree, _ = build_stacked_tree(policy)
            assert max(level.n_runs for level in tree.levels) >= 2, policy

    @pytest.mark.parametrize(
        "bloom_mode", (BloomMode.ANALYTICAL, BloomMode.BIT_ARRAY)
    )
    def test_single_run_cases_actually_exercised(self, bloom_mode):
        # Guard the SINGLE_RUNS fixture the same way: one run per level, an
        # empty one among them, and probes that reach past every run's
        # max_key, land on on-disk tombstones and draw Bloom false positives.
        tree, rng = build_stacked_tree(SINGLE_RUNS, bloom_mode=bloom_mode)
        runs = [run for level in tree.levels for run in level.runs]
        assert max(level.n_runs for level in tree.levels) == 1
        assert len(runs) >= 4 and runs[-1].n_entries == 0
        assert all(
            level.lookup_index().rank is None
            for level in tree.levels
            if level.runs
        )
        probes = rng.integers(0, 15000, size=4000).astype(np.int64)
        assert probes.max() > max(run.max_key for run in runs[:-1])
        assert (np.concatenate([run.values for run in runs]) == TOMBSTONE).any()
        found, _ = tree.get_batch(probes)
        held = np.isin(probes, np.concatenate([run.keys for run in runs]))
        assert (held & ~found).any()  # a tombstone answered the lookup
        # More pages read than any exact probe schedule needs: every level
        # above a key's home paid only for false positives.
        assert tree.disk.counters.random_reads > int(held.sum())

    def test_repeated_batches_stay_identical(self):
        # Cache warm-up and memtable writes between batches must not break
        # equivalence (the cached level index is invalidated by compaction,
        # the sorted view by writes).
        tree, rng = build_stacked_tree("tiering", cache_pages=32)
        twin = FLSMTree(tree.config)
        twin.load_state_dict(tree.state_dict())
        for step in range(4):
            probes = rng.integers(0, 15000, size=1000).astype(np.int64)
            found_new, values_new = tree.get_batch(probes)
            found_ref, values_ref = reference_get_batch(twin, probes)
            np.testing.assert_array_equal(found_new, found_ref)
            np.testing.assert_array_equal(values_new, values_ref)
            assert sim_observables(tree) == sim_observables(twin)
            extra_keys = rng.integers(0, 15000, size=40)
            extra_values = rng.integers(0, 10**6, size=40)
            tree.put_batch(extra_keys, extra_values)
            twin.put_batch(extra_keys, extra_values)


class TestBatchMatchesPerKeyGet:
    """get_batch ≡ per-key get under dyadic costs + deterministic Blooms."""

    def _check(self, tree, probes):
        twin = FLSMTree(tree.config)
        twin.load_state_dict(tree.state_dict())

        t0 = tree.clock.now
        found, values = tree.get_batch(probes)
        batch_sim_s = tree.clock.now - t0

        t0 = twin.clock.now
        expected = [twin.get(key) for key in probes.tolist()]
        scalar_sim_s = twin.clock.now - t0

        for i, value in enumerate(expected):
            assert found[i] == (value is not None)
            if value is not None:
                assert values[i] == value
        assert batch_sim_s == scalar_sim_s
        assert dict(tree.stats.level_read_time) == dict(
            twin.stats.level_read_time
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_policies(self, policy):
        tree, rng = build_stacked_tree(
            policy, bloom_mode=BloomMode.BIT_ARRAY, costs=DYADIC_COSTS
        )
        probes = rng.integers(0, 15000, size=2000).astype(np.int64)
        self._check(tree, probes)

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
            bloom_mode=BloomMode.BIT_ARRAY,
            seed=11,
            costs=DYADIC_COSTS,
        )
        tree = FLSMTree(cfg)
        tree.set_named_policy(policy)
        rng = np.random.default_rng(
            data.draw(st.integers(min_value=0, max_value=2**31), label="seed")
        )
        if n:
            keys = rng.integers(0, key_space, size=n)
            tree.put_batch(keys, rng.integers(0, 10**6, size=n))
            # Tombstones over live keys, some still in the memtable, so the
            # batch must shadow disk-resident versions mid-lookup.
            for key in keys[rng.random(n) < 0.1].tolist():
                tree.delete(key)
        probes = rng.integers(
            0, key_space + 16, size=data.draw(
                st.integers(min_value=0, max_value=300), label="n_probes"
            )
        ).astype(np.int64)
        self._check(tree, probes)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_scalar_get_matches_reference(self, kind, data):
        """Per-key ``get`` through every engine ≡ the reference loop on the
        key's home tree: value, clock, per-level charges, IO and cache
        counters, Bloom RNG, op counts."""
        with drawn_engine_with_twins(data, kind) as (
            engine, twins, rng, key_space
        ):
            n_probes = data.draw(
                st.integers(min_value=0, max_value=120), label="n_probes"
            )
            for key in rng.integers(0, key_space + 16, size=n_probes).tolist():
                home = twins[shard_of_key(key, len(twins))]
                found, values = reference_get_batch(
                    home, np.array([key], dtype=np.int64)
                )
                expected = int(values[0]) if found[0] else None
                assert engine.get(key) == expected
            assert_trees_match_twins(engine, twins)


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
        values, positions = index.values[slot], index.positions[slot]
        n_runs = level.n_runs
        newest_first = list(reversed(level.runs))
        for i, key in enumerate(probe.tolist()):
            expected_rank = n_runs
            for j, run in enumerate(newest_first):
                hit, value, page = find(run, key)
                if hit:
                    expected_rank = j
                    assert values[i] == value
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

    def test_empty_runs_skipped(self):
        index = LevelLookupIndex([])
        rank, slot = index.newest_ranks(np.array([1, 2, 3], dtype=np.int64))
        assert (rank == 0).all()
        assert len(slot) == 3

    def test_single_run_index_is_the_run(self):
        """One run needs no merged copy: the index shares its arrays, and a
        slot is the clamped in-run position of hit and miss alike."""
        tree, _ = build_stacked_tree("leveling")
        run = next(l for l in tree.levels if l.n_runs == 1).runs[0]
        index = LevelLookupIndex([run])
        assert index.keys is run.keys and index.values is run.values
        assert index.rank is None and index.positions is None
        probe = np.array(
            [run.keys[0], run.keys[5] + 1, run.keys[-1], run.keys[-1] + 9]
        )
        rank, slot = index.newest_ranks(probe)
        hit, _, pages = find_batch(run, probe)
        np.testing.assert_array_equal(rank == 0, hit)
        np.testing.assert_array_equal(rank == 1, ~hit)
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
            assert batched.state_dict() == looped.state_dict()

    def test_empty_batch_is_noop(self):
        cache = LRUBlockCache(4)
        assert cache.access_batch(1, []) == 0
        assert cache.state_dict() == LRUBlockCache(4).state_dict()

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
            assert batched.counters.state_dict() == looped.counters.state_dict()
            assert batched.cache.state_dict() == looped.cache.state_dict()

    def test_negative_page_rejected_when_cached(self):
        # Only the cache-enabled branch materializes the page array; the
        # no-cache branch prices the batch without inspecting pages (seed
        # behavior on the hot default path).
        disk = self._disk(8)
        with pytest.raises(StorageError):
            disk.random_read_batch(1, np.array([0, -1, 2]))

    def test_snapshot_page_keys_stay_json_clean(self):
        # access_batch receives .tolist()'d pages, so the snapshot must hold
        # plain ints (numpy ints would break JSON round-trips).
        disk = self._disk(8)
        disk.random_read_batch(3, np.array([1, 2, 1]))
        for run_id, page in disk.cache.state_dict()["pages"]:
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

    def test_load_state_dict_invalidates_view(self):
        table = MemTable(64)
        buffer_put(table, 1, 10)
        state = table.state_dict()
        self._probe(table, [1])
        table.load_state_dict(state)
        assert table._sorted_view is None

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
        traced = FLSMTree(tree.config)
        traced.load_state_dict(tree.state_dict())
        tracer = Tracer()
        traced.set_tracer(tracer)
        return traced, tracer

    def test_tracing_does_not_change_simulation(self):
        tree, rng = build_stacked_tree("tiering", cache_pages=16)
        assert tree.tracer is None  # detached by default
        traced, tracer = self._traced_twin(tree)
        probes = rng.integers(0, 15000, size=2000).astype(np.int64)
        found_plain, values_plain = tree.get_batch(probes)
        found_traced, values_traced = traced.get_batch(probes)
        np.testing.assert_array_equal(found_plain, found_traced)
        np.testing.assert_array_equal(values_plain, values_traced)
        assert sim_observables(tree) == sim_observables(traced)
        assert set(stage_totals(tracer.spans())) == set(POINT_STAGES)

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
