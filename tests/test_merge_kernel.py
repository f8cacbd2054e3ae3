"""The blocked newest-wins merge kernel (``repro.lsm.entry``).

Both consumers — ``merge_sorted_sources`` for compaction and
``LevelLookupIndex`` for the stacked point-lookup index — must give the
single-block primitive's answer whatever the block size, may not bring the
N-sized temporaries back, and must refuse inputs their narrow dtypes
cannot hold.
"""

from __future__ import annotations

import time
import tracemalloc
import types

import numpy as np
import pytest
import test_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BloomMode, SystemConfig
from repro.errors import ConfigError, TreeStateError
from repro.lsm import entry
from repro.lsm.entry import TOMBSTONE, merge_block, merge_sorted_sources
from repro.lsm.iterators import live_items
from repro.lsm.level import LevelLookupIndex
from repro.lsm.run import SortedRun
from repro.lsm.tree import LSMTree


def make_run(run_id, keys, values):
    return SortedRun(
        run_id, 1, keys, values, 0.01, max(len(keys), 1), 4,
        BloomMode.ANALYTICAL, np.random.default_rng(0), sealed=True,
    )


def random_source(rng, n, key_space):
    keys = np.sort(rng.choice(key_space, size=n, replace=False)).astype(np.int64)
    return keys, rng.integers(1, 1 << 40, size=n)


@st.composite
def sources(draw):
    """1–6 sorted duplicate-free sources, oldest first: overlapping or
    disjoint key ranges, empty ones, tombstones sprinkled in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        low = draw(st.integers(0, 300))
        n = draw(st.integers(0, 120))
        keys, values = random_source(rng, n, draw(st.integers(max(n, 1), 400)))
        values[rng.random(n) < draw(st.sampled_from((0.0, 0.2)))] = TOMBSTONE
        out.append((keys + low, values))
    return out


class TestBlockedEqualsSingleBlock:
    @settings(max_examples=60, deadline=None)
    @given(sources=sources(), block=st.sampled_from((1, 2, 7, 64)), drop=st.booleans())
    def test_merge(self, sources, block, drop):
        key_arrays = [k for k, _ in sources]
        value_arrays = [v for _, v in sources]
        if sum(map(len, key_arrays)):
            expected = merge_block(key_arrays, value_arrays, drop)
        else:
            expected = (np.zeros(0, dtype=np.int64),) * 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(entry, "MERGE_BLOCK", block)
            merged = merge_sorted_sources(key_arrays, value_arrays, drop_tombstones=drop)
        assert len(merged) == 2
        for got, want in zip(merged, expected):
            assert got.dtype == want.dtype and got.flags.owndata
            np.testing.assert_array_equal(got, want)
        if drop:
            assert not (merged[1] == TOMBSTONE).any()

    @settings(max_examples=60, deadline=None)
    @given(sources=sources(), block=st.sampled_from((1, 2, 7, 64)))
    def test_index(self, sources, block):
        runs = [make_run(i, k, v) for i, (k, v) in enumerate(sources)]
        if len(runs) == 1:
            return
        expected = LevelLookupIndex(runs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(entry, "MERGE_BLOCK", block)
            index = LevelLookupIndex(runs)
        for name in ("keys", "rank", "positions"):
            got, want = getattr(index, name), getattr(expected, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert index.rank.dtype == np.uint8 and index.positions.dtype == np.int32
        # And the answer itself: each key's newest holder, where it sits
        # there, and so the value compaction would keep for it.
        newest_first = runs[::-1]
        merged = merge_sorted_sources([r.keys for r in runs], [r.values for r in runs])
        values = dict(zip(merged[0].tolist(), merged[1].tolist()))
        for key, rank, position in zip(
            index.keys.tolist(), index.rank.tolist(), index.positions.tolist(),
        ):
            holders = [j for j, run in enumerate(newest_first) if key in run.keys]
            assert rank == holders[0]
            assert newest_first[rank].keys[position] == key
            assert newest_first[rank].values[position] == values[key]
        assert len(index.keys) == len(np.unique(np.concatenate([r.keys for r in runs])))


@pytest.fixture
def small_block(monkeypatch):
    """Seven entries a block: every merge of a test-scale tree is multi-block."""
    monkeypatch.setattr(entry, "MERGE_BLOCK", 7)


@pytest.mark.usefixtures("small_block")
class TestOracleMultiBlock(test_oracle.Oracle.TestCase):
    """The differential oracle (tests/test_oracle.py), every compaction,
    stacked index and reference merge cut into blocks."""


class TestBulkLoadContract:
    def test_shuffled_duplicated_keys_beyond_two_blocks(self):
        """``bulk_load`` takes what the kernel's contract forbids — unsorted
        keys, a later duplicate winning — so it must not lean on the kernel's
        blocks to sort for it."""
        rng = np.random.default_rng(9)
        n = 2 * entry.MERGE_BLOCK + 9_000
        keys = rng.integers(0, n // 2, size=n)
        values = rng.integers(1, 1 << 40, size=n)
        tree = LSMTree(SystemConfig(seed=2))
        tree.bulk_load(keys, values)
        model = dict(zip(keys.tolist(), values.tolist()))
        live_keys, live_values = live_items(tree)
        assert live_keys.tolist() == sorted(model)
        assert live_values.tolist() == [model[k] for k in sorted(model)]


class TestNoInputSizedTemporaries:
    """``tracemalloc`` peaks per input entry. Concatenating and sorting
    everything at once peaked at 32.5 B (this merge) and 69.9 B (this index);
    blocked, it is the output (16 / 13 B per entry, preallocated for the
    no-duplicate case) plus one block: 17.4 and 15.3 B at 2**14 entries a
    block. The index ceiling fails on a values column back in the index
    (32.2 B) and on 2**16 blocks back in the kernel (21.7 B; the merge is
    21.2 B there)."""

    @staticmethod
    def peak_per_entry(build, n_entries):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            result = build()
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 2.0
        return result, peak / n_entries

    def test_merge_400k_plus_128k(self):
        rng = np.random.default_rng(4)
        sources = [random_source(rng, n, 1_600_000) for n in (400_000, 128_000)]
        (keys, _), per_entry = self.peak_per_entry(
            lambda: merge_sorted_sources([k for k, _ in sources], [v for _, v in sources]),
            528_000,
        )
        assert len(keys) == len(np.union1d(sources[0][0], sources[1][0]))
        assert per_entry < 22

    def test_three_run_300k_index(self):
        rng = np.random.default_rng(4)
        runs = [
            make_run(i, *random_source(rng, n, 900_000))
            for i, n in enumerate((150_000, 100_000, 50_000))
        ]
        index, per_entry = self.peak_per_entry(lambda: LevelLookupIndex(runs), 300_000)
        assert len(index.keys) <= 300_000
        assert per_entry < 20


class TestDtypeGuards:
    def test_size_ratio_bounded_by_uint8_ranks(self):
        SystemConfig(size_ratio=255)
        with pytest.raises(ConfigError, match="size_ratio"):
            SystemConfig(size_ratio=256)

    def test_index_refuses_more_runs_than_a_uint8_ranks(self):
        one = np.array([1], dtype=np.int64)
        runs = [make_run(i, one + i, one) for i in range(256)]
        assert LevelLookupIndex(runs[:255]).rank.max() == 254
        with pytest.raises(TreeStateError, match="255 runs"):
            LevelLookupIndex(runs)

    def test_origin_refuses_to_drop_tombstones(self):
        keys, values = np.array([1], dtype=np.int64), np.array([TOMBSTONE])
        with pytest.raises(ValueError, match="tombstone"):
            merge_sorted_sources([keys], [values], drop_tombstones=True, origin=True)

    def test_index_refuses_a_run_beyond_int32_positions(self):
        small = make_run(0, np.array([1], dtype=np.int64), np.array([1], dtype=np.int64))
        huge = types.SimpleNamespace(n_entries=1 << 31, keys=small.keys, values=small.values)
        with pytest.raises(TreeStateError, match=r"2\*\*31"):
            LevelLookupIndex([small, huge])
