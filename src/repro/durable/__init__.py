"""Durable on-disk backend: WAL + binary SSTables + versioned manifest.

The rest of the reproduction keeps every run and level as an in-memory
numpy structure; "persistence" there means whole-store snapshots via
:mod:`repro.persist`. This package adds the real durability path a
production LSM store recovers from (DESIGN.md §13):

* :mod:`repro.durable.wal` — append-only write-ahead log with
  length+CRC32-framed records, per-op sequence numbers, batched
  fsync-boundary markers and torn-tail detection;
* :mod:`repro.durable.sstable` — a binary SSTable file format (sorted
  key/value data blocks + fence-pointer index block + serialized Bloom
  block) mapping 1:1 onto the in-memory :class:`~repro.lsm.run.SortedRun`;
* :mod:`repro.durable.manifest` — an append-only edit log of run
  installs/drops per level with an atomic ``CURRENT`` pointer swap;
* :mod:`repro.durable.store` — :class:`DurableStore`, an
  :class:`~repro.lsm.tree.LSMTree` subclass that owns the three and
  overrides only what durability changes (the in-memory structure stays
  the working set; the :class:`~repro.engine.base.KVEngine` surface is
  inherited);
* :mod:`repro.durable.faults` — deterministic crash-point injection used
  by the crash-recovery scenario suite (``scripts/crash_smoke.py``).

SimClock stays the source of truth for benchmarks: all simulated I/O is
still charged through :class:`~repro.storage.pager.DiskModel`; the wall
time spent on real file I/O is telemetry only (PR 8 ``obs`` counters).
"""

from repro.durable.atomio import atomic_file, fsync_dir, publish_bytes
from repro.durable.manifest import ManifestState, ManifestWriter, read_manifest
from repro.durable.sstable import read_sstable, write_sstable
from repro.durable.store import DurableStore, RecoveryReport
from repro.durable.wal import WalReader, WalWriter, replay_wal_bytes

__all__ = [
    "atomic_file",
    "fsync_dir",
    "publish_bytes",
    "DurableStore",
    "RecoveryReport",
    "ManifestState",
    "ManifestWriter",
    "read_manifest",
    "read_sstable",
    "write_sstable",
    "WalReader",
    "WalWriter",
    "replay_wal_bytes",
]
