"""Durable store: WAL framing, SSTable codec, manifest, recovery.

The crash-matrix (kill -9 at every injection point) lives in
``tests/test_crash_recovery.py``; this module covers the crash-free
contracts: byte-level codecs survive arbitrary truncation, files round-trip
bit-exactly, a reopened store equals the store that closed, and the durable
engine composes with the persist/obs/engine layers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from typing import Dict, List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BloomMode, SystemConfig, TransitionKind
from repro.durable import (
    DurableStore,
    WalReader,
    WalWriter,
    read_manifest,
    read_sstable,
    write_sstable,
)
from repro.durable.log import frame, iter_frames
from repro.durable.manifest import (
    ManifestState,
    ManifestWriter,
    decode_edits,
    encode_edit,
)
from repro.durable.sstable import sstable_path
from repro.durable.wal import (
    OP_DELETE,
    OP_PUT,
    OP_SYNC,
    decode_record,
    encode_record,
    segment_path,
)
from repro.engine.base import KVEngine
from repro.errors import DurabilityError


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


def fill(store, n_batches=12, batch=120, keyspace=2_000, seed=11):
    """Deterministic put/delete mix; returns the expected dict model."""
    rng = np.random.default_rng(seed)
    model = {}
    for i in range(n_batches):
        keys = rng.integers(0, keyspace, size=batch)
        values = rng.integers(0, 10**6, size=batch)
        store.put_batch(keys, values)
        for k, v in zip(keys.tolist(), values.tolist()):
            model[k] = v
        if i % 3 == 2:
            dels = rng.integers(0, keyspace, size=4)
            for k in dels.tolist():
                store.delete(int(k))
                model.pop(int(k), None)
    return model


def assert_contents(store, model):
    keys = np.array(sorted(model), dtype=np.int64)
    found, values = store.get_batch(keys)
    assert found.all()
    expected = np.array([model[int(k)] for k in keys], dtype=np.int64)
    np.testing.assert_array_equal(values, expected)


# ----------------------------------------------------------------------
# Log framing (the WAL's and the manifest's) and the WAL record codec
# ----------------------------------------------------------------------
payload_strategy = st.lists(st.binary(max_size=40), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(payload_strategy)
def test_log_truncation_recovers_exact_prefix(payloads):
    """Cutting a log at *every* byte offset yields exactly the frames that
    fit entirely before the cut — never garbage, never a frame beyond it."""
    frames = [frame(payload) for payload in payloads]
    data = b"".join(frames)
    boundaries = list(itertools.accumulate(map(len, frames)))
    for cut in range(len(data) + 1):
        n_whole = sum(1 for b in boundaries if b <= cut)
        got = list(iter_frames(data[:cut]))
        assert [payload for payload, _ in got] == payloads[:n_whole]
        assert [end for _, end in got] == boundaries[:n_whole]


@settings(max_examples=40, deadline=None)
@given(payload_strategy, st.data())
def test_log_corruption_yields_clean_prefix(payloads, data_strategy):
    """Flipping any byte never raises and never invents frames: the
    frames before the flip are read back, the one holding it ends the log."""
    frames = [frame(payload) for payload in payloads]
    data = bytearray(b"".join(frames))
    pos = data_strategy.draw(
        st.integers(min_value=0, max_value=len(data) - 1)
    )
    data[pos] ^= 0xFF
    intact = sum(1 for b in itertools.accumulate(map(len, frames)) if b <= pos)
    assert [payload for payload, _ in iter_frames(bytes(data))] == payloads[:intact]


record_strategy = st.lists(
    st.tuples(
        st.sampled_from([OP_PUT, OP_DELETE, OP_SYNC]),
        st.integers(min_value=0, max_value=2**40),
        st.lists(
            st.integers(min_value=-(2**62), max_value=2**62), max_size=4
        ),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(record_strategy)
def test_wal_record_codec_roundtrip(specs):
    for op, seqno, key_list in specs:
        keys = np.array(key_list if op != OP_SYNC else [], dtype=np.int64)
        record = decode_record(encode_record(op, seqno, keys, keys + 1))
        assert (record.op, record.seqno) == (op, seqno)
        np.testing.assert_array_equal(record.keys, keys)
        np.testing.assert_array_equal(
            record.values, keys + 1 if op == OP_PUT else []
        )


def test_wal_writer_reader_roundtrip(tmp_path):
    path = segment_path(str(tmp_path), 1)
    writer = WalWriter(path)
    writer.append(1, np.array([5, 7]), np.array([50, 70]))
    writer.append(3, np.array([5]))
    writer.sync(3)
    writer.close()
    reader = WalReader(path)
    assert not reader.torn
    assert [r.op for r in reader.records] == [OP_PUT, OP_DELETE, OP_SYNC]
    assert reader.records[-1].seqno == 3
    assert reader.max_seqno == 3
    np.testing.assert_array_equal(reader.records[0].values, [50, 70])


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` issued while the test runs, as a growing list."""
    calls = []
    real = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd))[1])
    return calls


def test_wal_close_fsyncs_only_unsynced_appends(tmp_path, fsyncs):
    clean = WalWriter(segment_path(str(tmp_path), 1))
    clean.append(1, np.array([5]), np.array([50]))
    clean.sync(1)
    assert len(fsyncs) == 1
    clean.close()  # nothing appended since the sync: nothing left to make durable
    assert len(fsyncs) == 1
    dirty = WalWriter(segment_path(str(tmp_path), 2))
    dirty.append(2, np.array([6]), np.array([60]))
    dirty.close()
    assert len(fsyncs) == 2
    assert [r.op for r in WalReader(dirty.log.path).records] == [OP_PUT]


def test_manifest_close_fsyncs_only_unsynced_edits(tmp_path, fsyncs):
    writer = ManifestWriter(str(tmp_path), 1)
    writer.append_edit({"checkpoint_seqno": 7})
    assert len(fsyncs) == 1
    writer.close()  # every edit was fsynced as it landed
    assert len(fsyncs) == 1


def test_flush_cycle_costs_four_fsyncs(store_dir, tiny_config, fsyncs):
    """WAL ack, SSTable, directory, manifest — and no fifth one for closing
    the segment the ack just synced."""
    store = DurableStore(store_dir, tiny_config)
    capacity = tiny_config.buffer_capacity_entries
    cycles = 0
    for start in range(0, 3 * capacity, capacity):
        before = len(fsyncs), store.telemetry["sstables_written"]
        keys = np.arange(start, start + capacity)
        store.put_batch(keys, keys + 1)
        if store.telemetry["sstables_written"] - before[1] == 1:
            assert len(fsyncs) - before[0] == 4
            cycles += 1
    assert cycles >= 2
    store.close()


def test_wal_sync_marker_rejects_payload(tmp_path):
    assert decode_record(encode_record(OP_SYNC, 9)).seqno == 9
    # A delete's op byte rewritten to SYNC: a marker carrying a key is
    # structurally invalid, so even behind a clean CRC it ends the segment.
    bad = b"\x03" + encode_record(OP_DELETE, 9, np.array([1]))[1:]
    assert decode_record(bad) is None
    path = segment_path(str(tmp_path), 1)
    with open(path, "wb") as fh:
        fh.write(frame(encode_record(OP_SYNC, 4)) + frame(bad))
    reader = WalReader(path)
    assert [r.seqno for r in reader.records] == [4] and reader.torn


# ----------------------------------------------------------------------
# SSTable codec
# ----------------------------------------------------------------------
def make_run(config, n=500, seed=3):
    """A sealed run via a real tree flush (so bloom/pages are canonical)."""
    from repro.lsm.tree import LSMTree

    tree = LSMTree(config)
    rng = np.random.default_rng(seed)
    while not tree.levels or tree.level(1).n_runs == 0:
        tree.put_batch(
            rng.integers(0, 10 * n, size=64), rng.integers(0, 10**6, size=64)
        )
    return tree, tree.level(1).runs[-1]


@pytest.mark.parametrize(
    "mode", [BloomMode.ANALYTICAL, BloomMode.BIT_ARRAY]
)
def test_sstable_roundtrip(tmp_path, tiny_config, mode):
    config = tiny_config.with_updates(bloom_mode=mode)
    tree, run = make_run(config)
    path = sstable_path(str(tmp_path), run.run_id, run.level_no)
    assert write_sstable(path, run) == os.path.getsize(path)
    restored = read_sstable(path, mode, tree._rng)
    np.testing.assert_array_equal(restored.keys, run.keys)
    np.testing.assert_array_equal(restored.values, run.values)
    assert restored.run_id == run.run_id
    assert restored.level_no == run.level_no
    assert restored.sealed == run.sealed
    assert restored.capacity_entries == run.capacity_entries


def test_sstable_rejects_any_corrupt_byte(tmp_path, bitarray_config):
    tree, run = make_run(bitarray_config)
    path = sstable_path(str(tmp_path), run.run_id, run.level_no)
    write_sstable(path, run)
    data = bytearray(open(path, "rb").read())
    rng = np.random.default_rng(0)
    for pos in rng.integers(0, len(data), size=24).tolist():
        corrupt = bytearray(data)
        corrupt[pos] ^= 0xFF
        open(path, "wb").write(corrupt)
        with pytest.raises(DurabilityError):
            read_sstable(path, bitarray_config.bloom_mode, tree._rng)
    open(path, "wb").write(data)  # pristine bytes still parse
    read_sstable(path, bitarray_config.bloom_mode, tree._rng)


def test_sstable_truncation_detected(tmp_path, tiny_config):
    tree, run = make_run(tiny_config)
    path = sstable_path(str(tmp_path), run.run_id, run.level_no)
    size = write_sstable(path, run)
    data = open(path, "rb").read()
    assert size == len(data)
    open(path, "wb").write(data[: size // 2])
    with pytest.raises(DurabilityError):
        read_sstable(path, tiny_config.bloom_mode, tree._rng)


# ----------------------------------------------------------------------
# Manifest edit log
# ----------------------------------------------------------------------
def test_manifest_edits_apply_and_snapshot_roundtrip():
    state = ManifestState()
    state.apply_edit(
        {
            "snapshot": True,
            "files": [[1, 7, "sst-00000007-L01.sst"]],
            "checkpoint_seqno": 40,
            "wal_head": 2,
            "n_levels": 2,
            "policies": [[1, None], [5, 3]],
            "named_policy": "tiering",
            "next_run_id": 8,
        }
    )
    state.apply_edit(
        {
            "ops": [
                ["add", 1, 8, "sst-00000008-L01.sst"],
                ["drop", 1, 7],
            ],
            "checkpoint_seqno": 90,
        }
    )
    assert state.files[1] == [(8, "sst-00000008-L01.sst")]
    assert state.checkpoint_seqno == 90
    replayed = ManifestState()
    replayed.apply_edit(state.snapshot_edit())
    assert replayed.files == state.files
    assert replayed.meta == state.meta
    assert replayed.meta["policies"] == [[1, None], [5, 3]]
    assert replayed.checkpoint_seqno == state.checkpoint_seqno


def test_manifest_drop_of_unknown_run_raises():
    state = ManifestState()
    with pytest.raises(DurabilityError):
        state.apply_edit({"ops": [["drop", 1, 42]]})
    with pytest.raises(DurabilityError, match="unknown manifest op"):
        state.apply_edit({"ops": [["rename", 1, 42]]})


def test_manifest_torn_tail_discarded():
    first = frame(encode_edit({"checkpoint_seqno": 7}))
    good = first + frame(encode_edit({"checkpoint_seqno": 9}))
    for cut in range(len(good) + 1):
        edits, torn = decode_edits(good[:cut])
        assert len(edits) <= 2
        assert torn == (cut not in (0, len(first), len(good)))
    edits, torn = decode_edits(good)
    assert [e["checkpoint_seqno"] for e in edits] == [7, 9] and not torn


# ----------------------------------------------------------------------
# DurableStore end to end (crash-free)
# ----------------------------------------------------------------------
def test_store_reopen_roundtrip(store_dir, tiny_config):
    store = DurableStore(store_dir, tiny_config)
    model = fill(store)
    clock = store.clock_now
    store.close()

    reopened = DurableStore(store_dir)
    assert not reopened.last_recovery.created
    assert_contents(reopened, model)
    assert reopened.total_entries >= len(model)
    reopened.check_invariants()
    # Replayed work re-charges the simulated clock deterministically.
    assert reopened.clock_now > 0 and clock > 0
    reopened.close()


def test_delete_batch_is_one_record_one_sync(store_dir, tiny_config):
    """A delete batch is journaled like a put batch — one WAL record and
    one sync however many keys — and replays as one: after close →
    reopen every deleted key is absent, the rest intact."""
    store = DurableStore(store_dir, tiny_config)
    keys = np.arange(200, dtype=np.int64)
    store.put_batch(keys, keys * 3)
    before = dict(store.telemetry)
    doomed = keys[5:133:2]
    assert len(doomed) == 64
    store.delete_batch(doomed)  # crosses several flushes at this buffer size
    assert store.telemetry["wal_records"] == before["wal_records"] + 1
    assert store.telemetry["wal_syncs"] == before["wal_syncs"] + 1
    store.delete(199)  # the derived scalar: a one-key batch, one record
    assert store.telemetry["wal_records"] == before["wal_records"] + 2
    store.close()

    reopened = DurableStore(store_dir)
    found, values = reopened.get_batch(keys)
    gone = np.isin(keys, doomed) | (keys == 199)
    assert not found[gone].any()
    assert found[~gone].all() and (values[~gone] == keys[~gone] * 3).all()
    reopened.check_invariants()
    reopened.close()


def test_store_is_kvengine(store_dir, tiny_config):
    store = DurableStore(store_dir, tiny_config)
    assert isinstance(store, KVEngine)
    assert store.tuning_targets() == [store]
    store.close()


def test_store_resolves_every_lsmtree_name(store_dir, tiny_config):
    """A durable store is a tree: nothing a tuner, a ``ShardedStore`` or a
    benchmark reads on an ``LSMTree`` may be missing on it."""
    from repro.lsm.tree import LSMTree

    tiny_config = tiny_config.with_updates(block_cache_pages=8)
    with DurableStore(store_dir, tiny_config) as store:
        model = fill(store, n_batches=6)
        assert_contents(store, model)
        for name in dir(LSMTree):
            if not name.startswith("_"):
                getattr(store, name)
        for name in ("clock", "disk", "cache"):
            getattr(store, name)
        assert store.cache_hits + store.cache_misses > 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.set_policies([2, 3, 1], TransitionKind.GREEDY),
        lambda s: s.set_named_policy("tiering", TransitionKind.GREEDY),
        lambda s: s.set_policies([3, 3, 3], TransitionKind.FLEXIBLE),
        lambda s: s.set_named_policy("lazy-leveling"),
        lambda s: s.force_merge_level(1),
    ],
    ids=[
        "set_policies-greedy", "set_named_policy-greedy",
        "set_policies-flexible", "set_named_policy-default",
        "force_merge_level",
    ],
)
def test_one_manifest_commit_per_outermost_mutator(
    store_dir, tiny_config, mutate
):
    """The base class nests its mutators through ``self``
    (``set_named_policy`` -> ``set_policies`` -> ``set_policy`` ->
    ``force_merge_level``); only the outermost call may commit."""
    with DurableStore(store_dir, tiny_config) as store:
        model = fill(store, n_batches=20)
        assert store.n_levels >= 3
        before = dict(store.telemetry)
        mutate(store)
        assert store.telemetry["commits"] == before["commits"] + 1
        assert store.telemetry["manifest_edits"] == before["manifest_edits"] + 1
        store.check_invariants()
        policies, named = store.policies(), store.named_policy()
    with DurableStore(store_dir) as reopened:
        assert reopened.policies() == policies
        assert reopened.named_policy() == named
        reopened.check_invariants()
        assert_contents(reopened, model)


def test_store_refuses_config_mismatch(store_dir, tiny_config):
    DurableStore(store_dir, tiny_config).close()
    with pytest.raises(DurabilityError):
        DurableStore(store_dir, tiny_config.with_updates(size_ratio=6))


def test_store_refuses_tombstone_value(store_dir, tiny_config):
    from repro.lsm.entry import TOMBSTONE

    store = DurableStore(store_dir, tiny_config)
    with pytest.raises(ValueError):
        store.put(1, int(TOMBSTONE))
    with pytest.raises(ValueError):
        store.bulk_load([1, 2, 3], [10, int(TOMBSTONE), 30])
    with pytest.raises(ValueError):
        store.bulk_load([1, 2, 3], [10, 20])
    assert store.telemetry["wal_records"] == store.telemetry["sstables_written"] == 0
    # The rejected writes never reached the WAL or an SSTable: reopen sees
    # nothing.
    store.close()
    reopened = DurableStore(store_dir)
    assert reopened.total_entries == 0
    reopened.close()


def wal_bytes(data_dir):
    """Every WAL segment's bytes, in segment order."""
    return [
        open(os.path.join(data_dir, name), "rb").read()
        for name in sorted(os.listdir(data_dir))
        if name.startswith("wal-")
    ]


def test_malformed_batch_refused_before_the_wal(store_dir, tiny_config):
    """A (2, 3) batch would journal a frame whose header counts 2 keys
    over a payload of 6 — read back as a torn tail that truncates every
    later acknowledged write. It is refused before the WAL sees it."""
    store = DurableStore(store_dir, tiny_config)
    store.put_batch(np.arange(5), np.arange(5) + 100)
    acked, view, wal = store.acked_seqno, store.view(), wal_bytes(store_dir)
    grid = np.arange(6).reshape(2, 3)
    with pytest.raises(ValueError):
        store.put_batch(grid, grid)
    with pytest.raises(ValueError):
        store.delete_batch(grid)
    assert store.acked_seqno == acked
    assert store.view() == view
    assert wal_bytes(store_dir) == wal
    store.put_batch(np.arange(10, 15), np.arange(10, 15) + 100)
    assert store.acked_seqno == 10 and store.get(12) == 112
    store.close()
    with DurableStore(store_dir) as reopened:
        assert not reopened.last_recovery.wal_torn
        assert reopened.get(12) == 112


def test_closed_store_refuses_mutators_before_applying(store_dir, tiny_config):
    store = DurableStore(store_dir, tiny_config)
    fill(store, n_batches=3)
    store.close()
    policies, bits, view = store.policies(), store.bits_per_key, store.view()
    with pytest.raises(DurabilityError):
        store.set_policies([5, 5, 5], TransitionKind.FLEXIBLE)
    with pytest.raises(DurabilityError):
        store.set_bits_per_key(3.0)
    assert store.policies() == policies
    assert store.bits_per_key == bits
    assert store.view() == view


def test_store_policy_changes_survive_reopen(store_dir, tiny_config):
    store = DurableStore(store_dir, tiny_config)
    fill(store, n_batches=6)
    store.set_policy(1, 4, TransitionKind.FLEXIBLE)
    store.set_bits_per_key(6.0)
    policies = store.policies()
    store.close()
    reopened = DurableStore(store_dir)
    assert reopened.policies() == policies
    assert reopened.bits_per_key == 6.0
    reopened.check_invariants()
    reopened.close()


def test_store_named_policy_survives_reopen(store_dir, tiny_config):
    store = DurableStore(store_dir, tiny_config)
    fill(store, n_batches=6)
    store.set_named_policy("tiering")
    assert store.named_policy() == "tiering"
    store.close()
    reopened = DurableStore(store_dir)
    assert reopened.named_policy() == "tiering"
    reopened.close()


def test_store_wal_rotation_and_gc(store_dir, tiny_config):
    store = DurableStore(store_dir, tiny_config)
    fill(store, n_batches=20)
    telemetry = store.telemetry
    assert telemetry["wal_rotations"] > 0
    assert telemetry["sstables_written"] > 0
    assert telemetry["commits"] > 0
    # Covered WAL segments must actually be deleted from disk.
    segments = [
        name
        for name in os.listdir(store_dir)
        if name.startswith("wal-") and name.endswith(".log")
    ]
    assert len(segments) <= 2
    store.close()


def test_store_double_reopen_preserves_contents(store_dir, tiny_config):
    """Reopening twice replays the same WAL tail both times (the
    checkpoint only certifies *fully applied* ops, so a tail record that
    straddled a flush is conservatively re-applied — newest-wins makes
    that idempotent on contents, though flush boundaries may differ)."""
    store = DurableStore(store_dir, tiny_config)
    model = fill(store, n_batches=8)
    store.close()
    first = DurableStore(store_dir)
    first_report = first.last_recovery
    assert_contents(first, model)
    first.check_invariants()
    first.close()
    second = DurableStore(store_dir)
    assert second.last_recovery.recovered_seqno == first_report.recovered_seqno
    assert second.last_recovery.checkpoint_seqno <= first_report.recovered_seqno
    assert_contents(second, model)
    second.check_invariants()
    second.close()


def test_store_empty_reopen(store_dir, tiny_config):
    DurableStore(store_dir, tiny_config).close()
    reopened = DurableStore(store_dir)
    assert reopened.total_entries == 0
    assert reopened.get(123) is None
    reopened.close()


def test_bulk_load_lands_as_sstables(store_dir, tiny_config):
    store = DurableStore(store_dir, tiny_config)
    keys = np.arange(0, 4_000, dtype=np.int64)
    values = keys * 3
    store.bulk_load(keys, values)
    assert store.telemetry["wal_records"] == 0
    store.close()
    reopened = DurableStore(store_dir)
    assert reopened.last_recovery.wal_records_replayed == 0
    found, got = reopened.get_batch(keys[::7])
    assert found.all()
    np.testing.assert_array_equal(got, values[::7])
    reopened.close()


def test_manifest_state_matches_disk(store_dir, tiny_config):
    store = DurableStore(store_dir, tiny_config)
    fill(store, n_batches=10)
    store.close()
    state, _, torn = read_manifest(store_dir)
    assert not torn
    for filename in state.live_filenames():
        assert os.path.exists(os.path.join(store_dir, filename))


# ----------------------------------------------------------------------
# Persist + obs integration
# ----------------------------------------------------------------------
def test_persist_roundtrip(store_dir, tiny_config, tmp_path):
    from repro.persist.snapshot import load_engine, save_engine

    store = DurableStore(store_dir, tiny_config)
    model = fill(store)
    snap = str(tmp_path / "engine.snap")
    save_engine(store, snap)
    store.close()

    restored = load_engine(snap)
    assert isinstance(restored, DurableStore)
    assert restored.data_dir == store_dir
    assert_contents(restored, model)
    restored.check_invariants()
    restored.close()
    # The re-materialized directory must itself recover.
    reopened = DurableStore(store_dir)
    assert_contents(reopened, model)
    reopened.check_invariants()
    reopened.close()


def test_persist_memtable_rejournaled(store_dir, tiny_config, tmp_path):
    """After load_state_dict, memtable-resident entries live in the fresh
    WAL — a crash right after restore must not lose them."""
    from repro.persist.snapshot import load_engine, save_engine

    store = DurableStore(store_dir, tiny_config)
    store.put(999_983, 41)  # stays in the memtable: single entry
    snap = str(tmp_path / "engine.snap")
    save_engine(store, snap)
    store.close()
    restored = load_engine(snap)
    restored.close()
    reader = WalReader(
        segment_path(store_dir, restored._wal_head_id)
    )
    assert any(
        r.op == OP_PUT and 999_983 in r.keys.tolist() for r in reader.records
    )
    reopened = DurableStore(store_dir)
    assert reopened.get(999_983) == 41
    reopened.close()


def test_restored_store_twins_one_that_never_snapshotted(tmp_path, tiny_config):
    """Checkpoint, restore, drive on: every simulated observable equals a
    twin store that ran the same stream without the snapshot."""
    from repro.persist.snapshot import load_engine, save_engine

    twin = DurableStore(str(tmp_path / "twin"), tiny_config)
    store = DurableStore(str(tmp_path / "store"), tiny_config)
    for target in (twin, store):
        fill(target, n_batches=7, seed=3)
    snap = str(tmp_path / "engine.snap")
    save_engine(store, snap)
    store.close()
    restored = load_engine(snap)
    for target in (twin, restored):
        fill(target, n_batches=7, seed=4)
        target.set_policies([3, 2], TransitionKind.FLEXIBLE)
        fill(target, n_batches=3, seed=5)
    assert restored.view() == twin.view()
    restored.check_invariants()
    twin.close()
    restored.close()


# ----------------------------------------------------------------------
# Golden on-disk bytes: nothing the store writes may move
# ----------------------------------------------------------------------
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "durable_golden.json")

#: ``conftest.tiny_config``'s values (a constant so ``__main__`` below can
#: re-record without a fixture).
GOLDEN_CONFIG = SystemConfig(
    size_ratio=4,
    entry_bytes=1024,
    page_bytes=4096,
    write_buffer_bytes=16 * 1024,
    bits_per_key=8.0,
    seed=7,
)


def durable_golden(root: str) -> Dict[str, object]:
    """A fixed op stream — flushes, compactions, a delete batch, a policy
    change, manifest rotations, ``save_engine`` → ``load_engine`` — and
    what it left on disk: the sha256 of every SSTable as it is published
    and of every WAL segment as it is deleted (or at the end), plus the
    manifest's replayed state."""
    from repro.persist.snapshot import load_engine, save_engine

    data_dir = os.path.join(root, "store")
    produced: Dict[str, List[str]] = {}
    real_replace, real_unlink = os.replace, os.unlink

    def record(path: str) -> None:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        produced.setdefault(os.path.basename(path), []).append(digest)

    def replace(src, dst):
        real_replace(src, dst)
        if str(dst).endswith(".sst"):
            record(dst)

    def unlink(path):
        if os.path.basename(path).startswith("wal-"):
            record(path)
        real_unlink(path)

    rng = np.random.default_rng(5)

    def drive(store, n_batches: int) -> None:
        for _ in range(n_batches):
            keys = rng.integers(0, 400, size=40)
            store.put_batch(keys, rng.integers(0, 10**6, size=40))

    with mock.patch.object(os, "replace", replace), mock.patch.object(
        os, "unlink", unlink
    ):
        store = DurableStore(data_dir, GOLDEN_CONFIG, rotate_manifest_every=3)
        drive(store, 8)
        store.delete_batch(np.arange(0, 400, 9))
        store.set_policies([3, 2], TransitionKind.FLEXIBLE)
        drive(store, 4)
        store.put(999_983, 41)  # leaves the memtable non-empty
        snap = os.path.join(root, "engine.snap")
        save_engine(store, snap)
        store.close()
        store = load_engine(snap)
        drive(store, 4)
        store.delete(999_983)
        store.close()
        for name in sorted(os.listdir(data_dir)):
            if name.startswith("wal-"):
                record(os.path.join(data_dir, name))
    state, manifest_id, torn = read_manifest(data_dir)
    return {
        "files": produced,
        "manifest_id": manifest_id,
        "manifest_torn": torn,
        # Through JSON so a recorded and a live state compare alike.
        "manifest": json.loads(json.dumps(state.snapshot_edit(), sort_keys=True)),
    }


def test_durable_golden_bytes(tmp_path):
    """Recorded before the WAL and the manifest shared one log writer: a
    refactor of ``durable/`` passes this unchanged or it changed a byte
    the store writes."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        want = json.load(handle)
    got = durable_golden(str(tmp_path))
    assert got["files"].keys() == want["files"].keys()
    for name, digests in want["files"].items():
        assert got["files"][name] == digests, name
    assert got == want


def test_collect_durable_metrics(store_dir, tiny_config):
    from repro.obs import collect_durable_metrics

    store = DurableStore(store_dir, tiny_config)
    fill(store, n_batches=6)
    store.close()
    reopened = DurableStore(store_dir)
    registry = collect_durable_metrics(reopened)
    text = registry.render("prometheus")
    assert "repro_durable_events" in text
    assert "repro_durable_bytes" in text
    assert "repro_durable_recovery" in text
    assert "repro_sim_clock_seconds" in text
    reopened.close()


if __name__ == "__main__":  # re-record: PYTHONPATH=src python tests/test_durable.py
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with tempfile.TemporaryDirectory() as root:
        golden = durable_golden(root)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
