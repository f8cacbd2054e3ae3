"""Durable on-disk backend: WAL + binary SSTables + a whole-state manifest.

The rest of the reproduction keeps every run and level as an in-memory
numpy structure; "persistence" there means whole-store snapshots via
:mod:`repro.persist`. This package adds the real durability path a
production LSM store recovers from (DESIGN.md §13):

* :mod:`repro.durable.log` — the length+CRC32-framed log format, its
  torn-tail-stopping reader and the one appender every long-lived file
  handle is: the WAL and the manifest are its two payloads;
* :mod:`repro.durable.wal` — the write-ahead log's record codec: one
  record per write batch, per-op sequence numbers;
* :mod:`repro.durable.sstable` — a binary SSTable file format (header,
  sorted key and value blocks, CRC32 footer) mapping 1:1 onto the
  in-memory :class:`~repro.lsm.run.SortedRun`. It stores no index and no
  filter: reads are served from memory, the filter is a pure function of
  ``(keys, fpr, run_id)`` rebuilt on open, and integrity is the CRC's job;
* :mod:`repro.durable.manifest` — one ``MANIFEST`` log whose every JSON
  record is the store's whole state (live SSTables, checkpoint, WAL head,
  tree metadata); the last clean record is the state, and every so many
  records the log is replaced by a one-record log;
* :mod:`repro.durable.atomio` — the atomic publish (tmp → fsync → rename
  → directory fsync) of SSTables, one-record manifests and persist
  snapshots;
* :mod:`repro.durable.store` — :class:`DurableStore`, an
  :class:`~repro.lsm.tree.LSMTree` subclass that owns the files and
  overrides only what durability changes (the in-memory structure stays
  the working set; the :class:`~repro.engine.base.KVEngine` surface is
  inherited);
* :mod:`repro.durable.faults` — deterministic crash-point injection used
  by the crash-recovery scenario suite (``scripts/crash_smoke.py``).

SimClock stays the source of truth for benchmarks: all simulated I/O is
still charged through :class:`~repro.storage.pager.DiskModel`; the wall
time spent on real file I/O is telemetry only (``DurableStore.telemetry``,
reported per shard by :func:`repro.obs.telemetry_view`).
"""

from repro.durable.atomio import atomic_file, fsync_dir, publish_bytes
from repro.durable.manifest import ManifestWriter, read_manifest
from repro.durable.sstable import read_sstable, write_sstable
from repro.durable.store import DurableStore, RecoveryReport
from repro.durable.wal import WalReader, WalWriter

__all__ = [
    "atomic_file",
    "fsync_dir",
    "publish_bytes",
    "DurableStore",
    "RecoveryReport",
    "ManifestWriter",
    "read_manifest",
    "read_sstable",
    "write_sstable",
    "WalReader",
    "WalWriter",
]
