"""Durable store: WAL framing, SSTable codec, manifest, recovery.

The crash-matrix (kill -9 at every injection point) lives in
``tests/test_crash_recovery.py``; that a reopened, crashed-and-recovered or
snapshot-restored store holds every acknowledged write — alone or as the
shards of a ``ShardedStore`` — is the differential oracle's
(``tests/test_oracle.py``). This module covers the byte level: codecs
survive arbitrary truncation, files round-trip bit-exactly, the golden
bytes never move, and the fsync / commit counts a write costs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import shutil
import struct
import tempfile
import zlib
from typing import Dict, List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_persist import directory_bytes

from repro.config import BloomMode, SystemConfig, TransitionKind
from repro.durable import (
    DurableStore,
    WalReader,
    WalWriter,
    read_manifest,
    read_sstable,
    write_sstable,
)
from repro.durable import faults, manifest
from repro.durable.log import frame, iter_frames
from repro.durable.manifest import ManifestWriter, manifest_path, publish_manifest
from repro.durable.sstable import FILE_FMT
from repro.durable.wal import (
    OP_DELETE,
    OP_PUT,
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
        st.sampled_from([OP_PUT, OP_DELETE]),
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
        keys = np.array(key_list, dtype=np.int64)
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
    writer.sync()
    writer.close()
    reader = WalReader(path)
    assert not reader.torn
    # One frame per record: the sync writes no marker of its own.
    assert [r.op for r in reader.records] == [OP_PUT, OP_DELETE]
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
    clean.sync()
    assert len(fsyncs) == 1
    clean.close()  # nothing appended since the sync: nothing left to make durable
    assert len(fsyncs) == 1
    dirty = WalWriter(segment_path(str(tmp_path), 2))
    dirty.append(2, np.array([6]), np.array([60]))
    dirty.close()
    assert len(fsyncs) == 2
    assert [r.op for r in WalReader(dirty.log.path).records] == [OP_PUT]


def test_manifest_close_fsyncs_only_unsynced_edits(tmp_path, fsyncs):
    publish_manifest(str(tmp_path), {"checkpoint_seqno": 7})
    writer = ManifestWriter(str(tmp_path), appended=0)
    before = len(fsyncs)
    writer.write({"checkpoint_seqno": 9})
    assert len(fsyncs) == before + 1
    writer.close()  # every record was fsynced as it landed
    assert len(fsyncs) == before + 1


def test_flush_cycle_costs_five_fsyncs(store_dir, tiny_config, fsyncs):
    """WAL ack, SSTable, directory, the directory again for the WAL segment
    the flush opens, manifest — and no sixth one for closing the segment the
    ack just synced."""
    store = DurableStore(store_dir, tiny_config)
    capacity = tiny_config.buffer_capacity_entries
    cycles = 0
    for start in range(0, 3 * capacity, capacity):
        before = len(fsyncs), store.telemetry["sstables_written"]
        keys = np.arange(start, start + capacity)
        store.put_batch(keys, keys + 1)
        if store.telemetry["sstables_written"] - before[1] == 1:
            assert len(fsyncs) - before[0] == 5
            cycles += 1
    assert cycles >= 2
    store.close()


def test_new_wal_segment_reaches_a_directory_fsync_before_an_ack(
    store_dir, tiny_config, monkeypatch
):
    """A file create is durable only once its directory is fsynced: every
    WAL segment the store creates — segment 1 of a new store, each rotation
    — is created, then the directory fsynced, then acked into."""
    from repro.durable import atomio, store as store_module

    events = []
    real_fsync_dir, real_init, real_sync = atomio.fsync_dir, WalWriter.__init__, WalWriter.sync

    def fsync_dir(directory):
        events.append(("fsync_dir", os.path.abspath(directory)))
        real_fsync_dir(directory)

    def init(self, path):
        if not os.path.exists(path):
            events.append(("create", os.path.basename(path)))
        real_init(self, path)

    def sync(self):
        events.append(("ack", os.path.basename(self.log.path)))
        real_sync(self)

    for owner in (atomio, store_module):
        monkeypatch.setattr(owner, "fsync_dir", fsync_dir)
    monkeypatch.setattr(WalWriter, "__init__", init)
    monkeypatch.setattr(WalWriter, "sync", sync)
    store = DurableStore(store_dir, tiny_config)
    fill(store, n_batches=10)
    store.close()

    unsynced = set()
    for kind, name in events:
        if kind == "create":
            unsynced.add(name)
        elif kind == "fsync_dir":
            assert name == os.path.abspath(store_dir)
            unsynced.clear()
        else:
            assert name not in unsynced, f"acked into {name} before its directory fsync"
    first = ("create", os.path.basename(segment_path(store_dir, 1)))
    created = [event for event in events if event[0] == "create"]
    assert len(created) == store.telemetry["wal_rotations"] + 1 >= 3
    assert created[0] == first


def test_wal_unknown_op_ends_the_segment(tmp_path):
    # A delete's op byte rewritten to 4: even behind a clean CRC the record
    # ends the segment, and encoding one is refused.
    bad = b"\x04" + encode_record(OP_DELETE, 9, np.array([1]))[1:]
    assert decode_record(bad) is None
    with pytest.raises(DurabilityError):
        encode_record(4, 9)
    path = segment_path(str(tmp_path), 1)
    with open(path, "wb") as fh:
        fh.write(frame(encode_record(OP_DELETE, 4, np.array([2]))) + frame(bad))
    reader = WalReader(path)
    assert [r.seqno for r in reader.records] == [4] and reader.torn


def test_wal_refuses_an_older_formats_sync_marker(tmp_path):
    """Older versions appended an op-3 marker after every record. Read as a
    torn tail, it would cut replay at a segment's first record and open
    would truncate the rest: such a segment is refused whole instead."""
    marker = struct.pack("<BQI", 3, 4, 0)
    with pytest.raises(DurabilityError, match="older format"):
        decode_record(marker)
    path = segment_path(str(tmp_path), 1)
    with open(path, "wb") as fh:
        fh.write(frame(encode_record(OP_DELETE, 4, np.array([2]))) + frame(marker))
    with pytest.raises(DurabilityError, match="older format"):
        WalReader(path)
    assert os.path.getsize(path) == 2 * 8 + len(encode_record(OP_DELETE, 4, [2])) + len(marker)


# ----------------------------------------------------------------------
# SSTable codec
# ----------------------------------------------------------------------
#: The version-2 layout: magic, version, header_len, level_no, run_id,
#: n_entries, entries_per_page, sealed, fpr, capacity_entries; then
#: crc32 and the footer magic.
SSTABLE_HEADER_BYTES = 4 + 4 + 4 + 4 + 8 + 8 + 4 + 1 + 8 + 8
SSTABLE_FOOTER_BYTES = 4 + 4


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
    path = os.path.join(str(tmp_path), FILE_FMT.format(run.run_id, run.level_no))
    # A header, the keys and values as int64, a CRC32 footer: nothing else.
    size = SSTABLE_HEADER_BYTES + 16 * run.n_entries + SSTABLE_FOOTER_BYTES
    assert write_sstable(path, run) == os.path.getsize(path) == size
    restored = read_sstable(path, mode, tree._rng)
    np.testing.assert_array_equal(restored.keys, run.keys)
    np.testing.assert_array_equal(restored.values, run.values)
    assert restored.run_id == run.run_id
    assert restored.level_no == run.level_no
    assert restored.sealed == run.sealed
    assert restored.capacity_entries == run.capacity_entries


def test_sstable_rejects_any_corrupt_byte(tmp_path, tiny_config):
    """The footer CRC alone refuses a flip of any one byte — header, keys,
    values or footer — under either Bloom mode."""
    for mode in BloomMode:
        config = tiny_config.with_updates(bloom_mode=mode)
        tree, run = make_run(config, n=40)
        path = os.path.join(str(tmp_path), FILE_FMT.format(run.run_id, run.level_no))
        write_sstable(path, run)
        data = open(path, "rb").read()
        for pos in range(len(data)):
            corrupt = bytearray(data)
            corrupt[pos] ^= 0xFF
            with open(path, "wb") as fh:
                fh.write(corrupt)
            with pytest.raises(DurabilityError):
                read_sstable(path, mode, tree._rng)
        with open(path, "wb") as fh:  # pristine bytes still parse
            fh.write(data)
        read_sstable(path, mode, tree._rng)


def test_sstable_refuses_version_one(tmp_path, tiny_config):
    """A table written before the index and filter blocks were dropped is
    refused by its version, even with a CRC that matches."""
    tree, run = make_run(tiny_config)
    path = os.path.join(str(tmp_path), FILE_FMT.format(run.run_id, run.level_no))
    write_sstable(path, run)
    data = bytearray(open(path, "rb").read())
    struct.pack_into("<I", data, 4, 1)
    footer_off = len(data) - SSTABLE_FOOTER_BYTES
    struct.pack_into("<I", data, footer_off, zlib.crc32(data[:footer_off]))
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(DurabilityError, match="unsupported version 1"):
        read_sstable(path, tiny_config.bloom_mode, tree._rng)


def test_sstable_truncation_detected(tmp_path, tiny_config):
    """A prefix shorter than header + footer (53 + 8 bytes) is refused as
    too short before any field is unpacked — never a ``struct.error`` —
    and a longer one by the length its header implies."""
    tree, run = make_run(tiny_config)
    path = os.path.join(str(tmp_path), FILE_FMT.format(run.run_id, run.level_no))
    size = write_sstable(path, run)
    data = open(path, "rb").read()
    assert size == len(data)
    assert SSTABLE_HEADER_BYTES + SSTABLE_FOOTER_BYTES == 61
    for length, reason in [
        (0, "too short"), (8, "too short"), (45, "too short"),
        (52, "too short"), (60, "too short"), (size // 2, "truncated"),
    ]:
        open(path, "wb").write(data[:length])
        with pytest.raises(DurabilityError, match=reason):
            read_sstable(path, tiny_config.bloom_mode, tree._rng)


# ----------------------------------------------------------------------
# Manifest: a log of whole-state records
# ----------------------------------------------------------------------
def test_manifest_torn_tail_discarded():
    first = frame(manifest.encode_record({"checkpoint_seqno": 7}))
    good = first + frame(manifest.encode_record({"checkpoint_seqno": 9}))
    for cut in range(len(good) + 1):
        records, valid = manifest.decode_records(good[:cut])
        assert valid == max(b for b in (0, len(first), len(good)) if b <= cut)
        assert len(records) == [0, len(first), len(good)].index(valid)
    records, valid = manifest.decode_records(good)
    assert [r["checkpoint_seqno"] for r in records] == [7, 9] and valid == len(good)


def test_torn_final_record_falls_back_to_the_previous_state(
    store_dir, tiny_config, monkeypatch
):
    """A writer that dies halfway through appending a record leaves the
    record before it as the state: the reopened store recovers from it,
    reports ``manifest_torn`` and holds every acknowledged write. The torn
    tail is cut off, so what later commits append is read on the next
    open too."""

    class Killed(Exception):
        pass

    def die():
        raise Killed

    monkeypatch.setattr(faults, "die", die)
    monkeypatch.setenv("REPRO_CRASH", "manifest.torn:3")
    faults.reset_counts()
    store = DurableStore(store_dir, tiny_config)
    rng = np.random.default_rng(3)
    model = {}

    def put(target):
        keys = rng.integers(0, 2_000, size=120)
        values = rng.integers(0, 10**6, size=120)
        model.update(zip(keys.tolist(), values.tolist()))  # acked before applied
        target.put_batch(keys, values)

    with pytest.raises(Killed):
        for _ in range(40):
            put(store)
    monkeypatch.delenv("REPRO_CRASH")
    faults.reset_counts()
    previous = store._record  # the last record that landed whole
    store.close()  # the dead writer's handles: nothing in them is unsynced

    reopened = DurableStore(store_dir)
    report = reopened.last_recovery
    assert report.manifest_torn and report.manifest_records == 3
    assert report.checkpoint_seqno == previous["checkpoint_seqno"]
    assert report.runs_opened == len(previous["files"])
    assert_contents(reopened, model)
    commits = reopened.telemetry["commits"]
    for _ in range(6):
        put(reopened)
    assert reopened.telemetry["commits"] > commits
    reopened.close()
    again = DurableStore(store_dir)
    assert not again.last_recovery.manifest_torn
    assert_contents(again, model)
    again.close()


def test_every_nth_append_compacts_the_manifest(store_dir, tiny_config, monkeypatch):
    """Once ``MANIFEST_COMPACT_EVERY`` records were appended, the next
    commit replaces the log by a one-record log, leaving no temp file."""
    monkeypatch.setattr(manifest, "MANIFEST_COMPACT_EVERY", 3)
    store = DurableStore(store_dir, tiny_config)
    lengths = []
    for bits in (5.0, 6.0, 7.0, 9.0):
        store.set_bits_per_key(bits)  # one commit each
        records, _ = read_manifest(store_dir)
        lengths.append(len(records))
    assert lengths == [2, 3, 4, 1]
    assert records[0]["bits_per_key"] == 9.0
    assert store.telemetry["commits"] == 4
    wal_1 = os.path.basename(segment_path(store_dir, 1))
    assert sorted(os.listdir(store_dir)) == ["MANIFEST", wal_1]
    store.close()
    with DurableStore(store_dir) as reopened:
        assert reopened.bits_per_key == 9.0
        assert reopened.last_recovery.manifest_records == 1


@pytest.mark.parametrize("name", ["CURRENT", "MANIFEST-000001.log"])
def test_older_manifest_format_is_refused(store_dir, tiny_config, name):
    """A directory written by the edit-log manifest (a ``CURRENT`` pointer,
    numbered ``MANIFEST-<id>.log`` files) is refused, with or without a
    ``MANIFEST`` beside it, and left as it was."""
    with DurableStore(store_dir, tiny_config) as store:
        fill(store, n_batches=3)
    with open(os.path.join(store_dir, name), "wb"):
        pass
    before = sorted(os.listdir(store_dir))
    for config in (None, tiny_config):
        with pytest.raises(DurabilityError, match="older manifest format"):
            DurableStore(store_dir, config)
    os.unlink(manifest_path(store_dir))
    with pytest.raises(DurabilityError, match="older manifest format"):
        DurableStore(store_dir, tiny_config)
    assert sorted(os.listdir(store_dir)) == sorted(set(before) - {"MANIFEST"})


# ----------------------------------------------------------------------
# DurableStore end to end (crash-free)
# ----------------------------------------------------------------------
def test_delete_batch_is_one_record_one_sync(store_dir, tiny_config):
    """A delete batch is journaled like a put batch — one WAL record and
    one sync however many keys (that it replays as one is the oracle's
    reopen rule)."""
    with DurableStore(store_dir, tiny_config) as store:
        keys = np.arange(200, dtype=np.int64)
        store.put_batch(keys, keys * 3)
        before = dict(store.telemetry)
        store.delete_batch(keys[5:133:2])  # crosses several flushes at this buffer size
        assert store.telemetry["wal_syncs"] == before["wal_syncs"] + 1
        store.delete(199)  # the derived scalar: a one-key batch, one record
        assert store.telemetry["wal_syncs"] == before["wal_syncs"] + 2


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
        fill(store, n_batches=20)
        assert store.n_levels >= 3
        before = dict(store.telemetry)
        mutate(store)
        assert store.telemetry["commits"] == before["commits"] + 1
        store.check_invariants()


def test_store_refuses_config_mismatch(store_dir, tiny_config):
    DurableStore(store_dir, tiny_config).close()
    with pytest.raises(DurabilityError):
        DurableStore(store_dir, tiny_config.with_updates(size_ratio=6))


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


@pytest.mark.parametrize("n_batches", (0, 6), ids=("empty", "filled"))
def test_store_policy_changes_survive_reopen(store_dir, tiny_config, n_batches):
    """The Bloom budget and level policies survive a reopen — the budget
    also when set on a store that has no level yet."""
    store = DurableStore(store_dir, tiny_config)
    store.set_bits_per_key(5.0)
    if n_batches:
        fill(store, n_batches=n_batches)
        store.set_policy(1, 4, TransitionKind.FLEXIBLE)
    policies = store.policies()
    store.close()
    reopened = DurableStore(store_dir)
    assert (reopened.policies(), reopened.bits_per_key) == (policies, 5.0)
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


def test_bulk_load_lands_as_sstables(store_dir, tiny_config):
    store = DurableStore(store_dir, tiny_config)
    keys = np.arange(0, 4_000, dtype=np.int64)
    values = keys * 3
    store.bulk_load(keys, values)
    assert store.telemetry["wal_syncs"] == 0
    store.close()
    reopened = DurableStore(store_dir)
    assert reopened.last_recovery.wal_records_replayed == 0
    found, got = reopened.get_batch(keys[::7])
    assert found.all()
    np.testing.assert_array_equal(got, values[::7])
    reopened.close()


def test_manifest_state_matches_disk(store_dir, tiny_config, monkeypatch):
    """After every commit — flushes, cascades, greedy transitions that merge
    a run away in the commit that made it — the manifest's last record
    names exactly the tree's runs, and the directory holds those SSTables,
    the manifest and WAL segments, nothing else."""
    real_commit, checked = DurableStore._commit, []

    def commit(self):
        real_commit(self)
        records, torn = read_manifest(self.data_dir)
        files = [
            [level.level_no, run.run_id, FILE_FMT.format(run.run_id, level.level_no)]
            for level in self.levels
            for run in level.runs
        ]
        assert records[-1]["files"] == files and not torn
        extra = set(os.listdir(self.data_dir)) - {name for _, _, name in files}
        assert {name for name in extra if not name.startswith("wal-")} == {"MANIFEST"}
        checked.append(len(files))

    monkeypatch.setattr(DurableStore, "_commit", commit)
    store = DurableStore(store_dir, tiny_config)
    fill(store, n_batches=20)
    assert store.n_levels >= 3
    store.set_named_policy("tiering", TransitionKind.GREEDY)
    store.set_policies([1, 1, 1], TransitionKind.GREEDY)
    store.close()
    assert len(checked) == store.telemetry["commits"] > 20 and max(checked) > 1


# ----------------------------------------------------------------------
# A snapshot load reattaches its directory and writes nothing
# ----------------------------------------------------------------------
def snapshot_after_writes(store_dir, tiny_config):
    """Six flushing batches and three memtable-only ones, then a pickle of
    the open store: ``(store, blob, rng)``."""
    rng = np.random.default_rng(19)
    store = DurableStore(store_dir, tiny_config)
    capacity = tiny_config.buffer_capacity_entries
    for size in [capacity] * 6 + [3] * 3:
        keys = rng.choice(1_000, size=size, replace=False)
        store.put_batch(keys, rng.integers(0, 10**6, size=size))
    assert store.telemetry["sstables_written"] >= 6 and len(store.memtable) == 9
    return store, pickle.dumps(store), rng


def test_a_snapshot_load_refuses_a_directory_that_moved_on(store_dir, tiny_config):
    """Loading a snapshot after three more acked batches would rewind them:
    the load is refused, the directory keeps every byte, and a reopen
    holds what the store held before the load. A policy-only commit (the
    same acked seqno, another record) and a directory that holds no store
    are refused alike; the missing directory is not created."""
    store, blob, rng = snapshot_after_writes(store_dir, tiny_config)
    commits = store.telemetry["commits"]
    live = np.array(list(dict(store.range_lookup(0, 1_000))))
    for _ in range(3):  # overwrites that leave the manifest as it was
        keys = rng.choice(live, size=2, replace=False)
        store.put_batch(keys, rng.integers(0, 10**6, size=2))
    assert store.telemetry["commits"] == commits
    expected = dict(store.range_lookup(0, 1_000))
    store.close()
    before = directory_bytes(store_dir)
    with pytest.raises(DurabilityError, match="acked seqno"):
        pickle.loads(blob)
    assert directory_bytes(store_dir) == before
    with DurableStore(store_dir) as reopened:
        assert dict(reopened.range_lookup(0, 1_000)) == expected

    other_dir = store_dir + "-policy"
    store, blob, _ = snapshot_after_writes(other_dir, tiny_config)
    store.set_bits_per_key(5.0)
    store.close()
    before = directory_bytes(other_dir)
    with pytest.raises(DurabilityError, match="another state"):
        pickle.loads(blob)
    assert directory_bytes(other_dir) == before

    shutil.rmtree(other_dir)
    with pytest.raises(DurabilityError, match="holds no store"):
        pickle.loads(blob)
    assert not os.path.exists(other_dir)


def test_an_unchanged_snapshot_reattaches_without_writing(store_dir, tiny_config):
    """Save → close → load: the loaded store is the snapshot's tree, wrote
    no SSTable and no record, left every byte of the directory as it was,
    and journals its next write where the store left off."""
    store, blob, _ = snapshot_after_writes(store_dir, tiny_config)
    expected = dict(store.range_lookup(0, 1_000))
    acked = store.acked_seqno
    store.close()
    before = directory_bytes(store_dir)
    restored = pickle.loads(blob)
    assert restored.telemetry["sstables_written"] == restored.telemetry["commits"] == 0
    assert restored.last_recovery.wal_records_replayed == 0
    assert dict(restored.range_lookup(0, 1_000)) == expected
    restored.close()
    assert directory_bytes(store_dir) == before
    restored = pickle.loads(blob)
    restored.put(1_001, 7)
    assert restored.acked_seqno == acked + 1
    restored.close()
    with DurableStore(store_dir) as reopened:
        assert dict(reopened.range_lookup(0, 1_001)) == {**expected, 1_001: 7}


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
    change, manifest compactions, ``save_engine`` → ``load_engine`` — and
    what it left on disk: the sha256 of every SSTable as it is published
    and of every WAL segment as it is deleted (or at the end), plus the
    manifest's last record and how many records it holds."""
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
    ), mock.patch.object(manifest, "MANIFEST_COMPACT_EVERY", 3):
        store = DurableStore(data_dir, GOLDEN_CONFIG)
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
    records, torn = read_manifest(data_dir)
    return {
        "files": produced,
        "manifest_records": len(records),
        "manifest_torn": torn,
        "manifest": records[-1],
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


def test_view_reports_durable_telemetry(store_dir, tiny_config):
    from repro.obs import telemetry_view

    store = DurableStore(store_dir, tiny_config)
    fill(store, n_batches=6)
    store.close()
    reopened = DurableStore(store_dir)
    (shard,) = telemetry_view(reopened)["shards"]
    assert shard["last_recovery"] == reopened.last_recovery._asdict()
    assert shard["telemetry"] == reopened.telemetry
    assert shard["acked_seqno"] == reopened.acked_seqno > 0
    assert shard["clock_now"] == reopened.clock_now
    reopened.close()


if __name__ == "__main__":  # re-record: PYTHONPATH=src python tests/test_durable.py
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with tempfile.TemporaryDirectory() as root:
        golden = durable_golden(root)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
