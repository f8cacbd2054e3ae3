"""`DurableStore`: a crash-recoverable :class:`~repro.lsm.tree.LSMTree`.

The store *is* an LSM-tree (a subclass: the in-memory structure stays the
working set every read is served from) that owns the three durable
primitives and overrides only what durability changes:

* every write appends one WAL record and fsyncs it (the ack boundary)
  *before* touching the memtable;
* every run the tree installs is mirrored to an SSTable file the moment
  the in-memory install happens (the ``_run_installed`` /
  ``_flush_completed`` template methods), and every flush cascade
  commits one manifest record of the whole state: the live SSTables, the
  new WAL head and a conservative ``checkpoint_seqno``;
* recovery reads MANIFEST's last record → opens the live SSTables →
  replays the WAL tail, then sweeps away the files interrupted commits
  left behind;
* a fresh store and a restored snapshot are installed alike, as a new
  on-disk generation of the in-memory tree.

Write protocol (the order is the whole durability argument)::

    put_batch(keys, values) / delete_batch(keys):   one record per batch
      1. WAL append + fsync                      -> op is ACKNOWLEDGED
      2. LSMTree.put_batch / delete_batch         (may flush/compact)
           per installed run: write SSTable file (fsync, tmp+rename)
           per flush cascade: rotate WAL, append manifest record (fsync),
                              delete covered segments + dropped tables

    A kill at any point:
      before 1 completes  -> op unacked; torn WAL tail truncated on reopen
      between 1 and 2     -> replayed from the WAL on reopen
      mid-SSTable         -> orphan .tmp / unreferenced file, GC'd; WAL
                             still holds the data
      mid-manifest-record -> torn final record discarded; the tables it
                             named become orphans; WAL still holds the data
      after the record    -> recovered from MANIFEST + WAL tail

``checkpoint_seqno`` is conservative: when a flush fires in the middle of
op N (the memtable filled partway through a batch), the record holds
``N - 1`` — the last op *fully* applied before it. Replay may therefore
re-apply a prefix the SSTables already hold, which is harmless under
newest-wins merge semantics; what it can never do is lose an
acknowledged suffix.

SimClock discipline: the inherited engine charges all simulated costs
exactly as a bare tree does — the durable overrides never touch the
simulated clock, RNG, cache or counters, so a ``DurableStore`` is
bit-identical to a bare ``LSMTree`` in every simulated observable. Wall
time spent on real file I/O is tallied in :attr:`telemetry`, which
:func:`repro.obs.telemetry_view` reports beside the shard's ``view()``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.config import (
    SystemConfig,
    TransitionKind,
    config_from_state,
    config_to_state,
)
from repro.durable import faults
from repro.durable.atomio import fsync_dir
from repro.durable.manifest import (
    MANIFEST_NAME,
    ManifestWriter,
    publish_manifest,
    read_manifest,
)
from repro.durable.sstable import FILE_FMT, read_sstable, write_sstable
from repro.durable.wal import (
    OP_PUT,
    WalReader,
    WalWriter,
    list_segments,
    segment_id,
    segment_path,
)
from repro.errors import DurabilityError
from repro.lsm.entry import TOMBSTONE, validate_batch, validate_keys
from repro.lsm.policy import PolicyLike, resolve_policy
from repro.lsm.run import SortedRun
from repro.lsm.tree import LSMTree
from repro.obs.trace import Span


class RecoveryReport(NamedTuple):
    """What reopening a durable directory found and did."""

    created: bool
    manifest_records: int
    manifest_torn: bool
    runs_opened: int
    recovered_entries: int
    checkpoint_seqno: int
    recovered_seqno: int
    wal_segments: int
    wal_records_replayed: int
    wal_ops_replayed: int
    wal_torn: bool
    orphans_removed: int


class DurableStore(LSMTree):
    """An :class:`~repro.lsm.tree.LSMTree` whose writes and structure
    changes are mirrored to a WAL, SSTables and a manifest in ``data_dir``.

    Opening an empty (or absent) directory creates a fresh store —
    ``config`` is then required. Opening a directory holding a
    ``MANIFEST`` recovers the store; a ``config`` passed alongside must
    match the one recorded in the manifest. A directory of the older
    edit-log format (a ``CURRENT`` pointer, ``MANIFEST-<id>.log`` files) is
    refused.

    Everything durability does not change — the read path, mission
    windows, the tuner-facing surface, introspection — is inherited. The
    overrides journal writes before applying them and commit one manifest
    record per outermost policy/structure mutator; as its own (inherited)
    tuning target, the store cannot be bypassed by the serving layer's
    write path.
    """

    #: This process's handle on ``data_dir``: the log writers, the last
    #: manifest record, the commit bookkeeping, telemetry and lifecycle
    #: flags. A pickle leaves them out; :meth:`__setstate__` reopens the
    #: directory.
    _PROCESS_FIELDS = (
        "telemetry", "_segment_max_seqno", "_closed", "_in_mutator", "last_recovery",
        "_wal", "_manifest", "_record", "_wal_head_id", "_flushed_seqno", "_inflight_floor",
    )

    def __init__(self, data_dir: str, config: Optional[SystemConfig] = None) -> None:
        self.data_dir = os.fspath(data_dir)
        #: Wall-clock/file-volume telemetry, never simulated state (``wall_*_s``
        #: are laps on a span held for the call); see :func:`repro.obs.telemetry_view`.
        self.telemetry: Dict[str, float] = {
            "wal_bytes": 0,
            "wal_syncs": 0,
            "sstables_written": 0,
            "sstable_bytes": 0,
            "commits": 0,
            "wal_rotations": 0,
            "orphans_removed": 0,
            "wal_records_replayed": 0,
            "wall_wal_s": 0.0,
            "wall_sstable_s": 0.0,
            "wall_manifest_s": 0.0,
            "wall_recovery_s": 0.0,
        }
        #: WAL segment id -> highest seqno its on-disk records cover.
        self._segment_max_seqno: Dict[int, int] = {}
        self._closed = False
        #: True while a policy/structure mutator is running, so the
        #: mutators it nests through ``self`` leave the commit to it.
        self._in_mutator = False

        os.makedirs(self.data_dir, exist_ok=True)
        names = os.listdir(self.data_dir)
        older = [name for name in names if name == "CURRENT" or name.startswith("MANIFEST-")]
        if older:
            raise DurabilityError(
                f"{self.data_dir} holds an older manifest format ({sorted(older)[:4]}); "
                "refusing to open it"
            )
        if MANIFEST_NAME in names:
            self.last_recovery = self._recover(config)
            return
        if config is None:
            raise DurabilityError(f"{self.data_dir} holds no store and no config was given")
        leftovers = [name for name in names if name.endswith(".sst") or name.startswith("wal-")]
        if leftovers:
            raise DurabilityError(
                f"{self.data_dir} holds store files but no MANIFEST "
                f"({sorted(leftovers)[:4]}...); refusing to overwrite"
            )
        super().__init__(config)
        self._next_seqno = 1
        self._acked_seqno = 0
        removed = self._install_generation()
        self.last_recovery = RecoveryReport(
            created=True,
            manifest_records=1,
            manifest_torn=False,
            runs_opened=0,
            recovered_entries=0,
            checkpoint_seqno=0,
            recovered_seqno=0,
            wal_segments=1,
            wal_records_replayed=0,
            wal_ops_replayed=0,
            wal_torn=False,
            orphans_removed=removed,
        )

    # ------------------------------------------------------------------
    # Generations / recovery
    # ------------------------------------------------------------------
    def _install_generation(self) -> int:
        """Write the in-memory tree out as a fresh on-disk generation and
        remove every file of the one before; returns how many it removed.

        The current runs become SSTables (none for a fresh store), a
        one-record manifest naming them is published, WAL segment 1 opens
        and the memtable (empty for a fresh store) is re-journaled into it.
        Every op up to ``_next_seqno - 1`` is then in SSTables except the
        memtable's, whose records take new seqnos past it — so that is the
        checkpoint.
        """
        for level in self.levels:
            for run in level.runs:
                filename = FILE_FMT.format(run.run_id, level.level_no)
                write_sstable(os.path.join(self.data_dir, filename), run)
        checkpoint = self._next_seqno - 1
        self._record = self._state_record(checkpoint, wal_head=1)
        publish_manifest(self.data_dir, self._record)
        self._manifest = ManifestWriter(self.data_dir, appended=0)
        self._segment_max_seqno = {}
        removed = self._sweep()
        self._open_wal(1)
        # ``_flushed_seqno``: every op <= it has all its data in SSTables —
        # the only value a manifest checkpoint may record. ``_inflight_floor``:
        # the last *fully* applied op; while an op is mid-application it
        # lags to op_start - 1, which is what a mid-op flush may claim.
        self._flushed_seqno = checkpoint
        keys, values = self.memtable.sorted_view()
        live = values != TOMBSTONE
        if live.any():
            self._ack_wal(keys[live], values[live])
        if (~live).any():
            self._ack_wal(keys[~live])
        self._inflight_floor = self._next_seqno - 1
        return removed

    def _sweep(self) -> int:
        """Delete every file no recovery path reads and return how many:
        temp files, SSTables the manifest record does not name, and WAL
        segments that are neither kept nor retired under the record's
        checkpoint (``_segment_max_seqno`` forgets those first)."""
        checkpoint = self._record["checkpoint_seqno"]
        for file_id, top in list(self._segment_max_seqno.items()):
            if file_id < self._wal_head_id and top <= checkpoint:
                del self._segment_max_seqno[file_id]
        live = {filename for _, _, filename in self._record["files"]}
        removed = 0
        for name in sorted(os.listdir(self.data_dir)):
            file_id = segment_id(name)
            if (
                name.endswith(".tmp")
                or (name.endswith(".sst") and name not in live)
                or (file_id is not None and file_id not in self._segment_max_seqno)
            ):
                os.unlink(os.path.join(self.data_dir, name))
                removed += 1
        return removed

    def _recover(self, config: Optional[SystemConfig]) -> RecoveryReport:
        watch = Span("durable.recover")
        records, manifest_torn = read_manifest(self.data_dir)
        state = records[-1]
        recorded = config_from_state(dict(state["config"]))
        if config is not None and config != recorded:
            raise DurabilityError(f"{self.data_dir} was created under a different SystemConfig")
        config = recorded

        super().__init__(config)
        if state["n_levels"]:
            self._ensure_level(int(state["n_levels"]))
        for level, (policy, pending) in zip(self.levels, state["policies"]):
            level.set_policy_immediate(int(policy))
            level.pending_policy = None if pending is None else int(pending)
        if state["named_policy"] is not None:
            self.compaction_policy = resolve_policy(str(state["named_policy"]))
        super().set_bits_per_key(float(state["bits_per_key"]))

        # Open live SSTables in manifest order (per level: oldest first).
        for level_no, run_id, filename in state["files"]:
            path = os.path.join(self.data_dir, filename)
            if not os.path.exists(path):
                raise DurabilityError(f"manifest names missing SSTable {filename}")
            run = read_sstable(path, config.bloom_mode, self._rng)
            if run.run_id != run_id or run.level_no != level_no:
                raise DurabilityError(
                    f"SSTable {filename} identifies as run {run.run_id} "
                    f"level {run.level_no}, manifest says {run_id}/{level_no}"
                )
            self._ensure_level(level_no).runs.append(run)
        # Seal/capacity fixup: flexible policy transitions mutate the active
        # run's capacity (and may seal it) without rewriting its file, so
        # the authoritative post-recovery state is recomputed from the
        # level's policy, not trusted from the header.
        for level in self.levels:
            for run in level.runs[:-1]:
                run.sealed = True
            if level.runs and not level.runs[-1].sealed:
                tail = level.runs[-1]
                tail.capacity_entries = level.active_run_capacity()
                if tail.n_entries >= tail.capacity_entries:
                    tail.seal()
        max_run_id = max((run_id for _, run_id, _ in state["files"]), default=-1)
        self._next_run_id = max(int(state["next_run_id"]), max_run_id + 1)
        super().check_invariants()

        # Read every WAL segment; truncate torn tails to the last valid
        # record so post-recovery appends extend a clean prefix.
        readers: Dict[int, WalReader] = {}
        wal_torn = False
        for file_id, path in list_segments(self.data_dir):
            reader = readers[file_id] = WalReader(path)
            if reader.torn:
                wal_torn = True
                os.truncate(path, reader.valid_bytes)
            self._segment_max_seqno[file_id] = reader.max_seqno
        checkpoint = state["checkpoint_seqno"]
        recovered_seqno = max([checkpoint, *self._segment_max_seqno.values()])

        # GC what interrupted commits left behind. The live head is the
        # highest segment on disk (a crash between opening a new segment
        # and committing its manifest record can leave the head one ahead
        # of the recorded ``wal_head``; the next record names it).
        self._record = state
        self._manifest = ManifestWriter(self.data_dir, appended=len(records) - 1)
        self._wal_head_id = max([state["wal_head"], *readers])
        orphans = self._sweep()
        kept = [readers[file_id] for file_id in sorted(self._segment_max_seqno)]

        # Wire up the live write path *before* replay: a replay-induced
        # flush must commit durably like any other flush.
        self._open_wal(self._wal_head_id)
        self._next_seqno = recovered_seqno + 1
        self._acked_seqno = recovered_seqno
        self._flushed_seqno = self._inflight_floor = checkpoint

        # Replay the WAL tail (ops past the checkpoint) into the memtable
        # through the base-class write path: the ops are already journaled.
        records_replayed = 0
        ops_replayed = 0
        for reader in kept:
            for record in reader.records:
                if len(record.keys) == 0:
                    continue
                first, last = record.seqno, record.last_seqno
                if last <= checkpoint:
                    continue
                skip = max(0, checkpoint - first + 1)
                # The last op applied before this slice: seqnos rise across
                # the kept segments, so this is max(checkpoint, first - 1).
                self._inflight_floor = first + skip - 1
                if record.op == OP_PUT:
                    super().put_batch(record.keys[skip:], record.values[skip:])
                else:
                    super().delete_batch(record.keys[skip:])
                records_replayed += 1
                ops_replayed += len(record.keys) - skip
        self._inflight_floor = recovered_seqno

        self.telemetry["wall_recovery_s"] += watch.lap("recover")
        self.telemetry["orphans_removed"] += orphans
        self.telemetry["wal_records_replayed"] += records_replayed
        return RecoveryReport(
            created=False,
            manifest_records=len(records),
            manifest_torn=manifest_torn,
            runs_opened=len(state["files"]),
            recovered_entries=self.total_entries,
            checkpoint_seqno=checkpoint,
            recovered_seqno=recovered_seqno,
            wal_segments=len(kept),
            wal_records_replayed=records_replayed,
            wal_ops_replayed=ops_replayed,
            wal_torn=wal_torn,
            orphans_removed=orphans,
        )

    # ------------------------------------------------------------------
    # Structure-change hooks (LSMTree template methods)
    # ------------------------------------------------------------------
    def _run_installed(self, level_no: int, run: SortedRun) -> None:
        faults.maybe_crash("commit.before")
        watch = Span("durable.sstable")
        filename = FILE_FMT.format(run.run_id, level_no)
        n_bytes = write_sstable(os.path.join(self.data_dir, filename), run)
        self.telemetry["wall_sstable_s"] += watch.lap("sstable")
        self.telemetry["sstables_written"] += 1
        self.telemetry["sstable_bytes"] += n_bytes
        faults.maybe_crash("commit.mid")

    def _flush_completed(self) -> None:
        """One flush cascade finished: rotate the WAL and commit.

        The drained memtable held every op up to ``_inflight_floor`` (plus
        possibly part of the op in flight), so that floor is now fully
        covered by SSTables and becomes the new manifest checkpoint.
        """
        self._flushed_seqno = self._inflight_floor
        self._rotate_wal()
        self._commit()

    # ------------------------------------------------------------------
    # Commit machinery
    # ------------------------------------------------------------------
    def _files(self) -> List[List[Any]]:
        """``[level, run_id, filename]`` of every run, level-then-age."""
        return [
            [level.level_no, run.run_id, FILE_FMT.format(run.run_id, level.level_no)]
            for level in self.levels
            for run in level.runs
        ]

    def _state_record(self, checkpoint: int, wal_head: int) -> Dict[str, Any]:
        """The manifest record of the store as it stands."""
        return {
            "config": config_to_state(self.config),
            "files": self._files(),
            "checkpoint_seqno": checkpoint,
            "wal_head": wal_head,
            "n_levels": self.n_levels,
            "policies": [[level.policy, level.pending_policy] for level in self.levels],
            "named_policy": self.named_policy(),
            "next_run_id": self._next_run_id,
            "bits_per_key": self.bits_per_key,
        }

    def _rotate_wal(self) -> None:
        """Retire the live WAL segment and open the next one.

        Called at flush commits: everything up to ``_flushed_seqno`` is
        about to be covered by SSTables, so the retired segment becomes
        deletable once every seqno it holds falls under a later
        checkpoint. The commit's record names the new head.
        """
        old = self._wal
        old.close()
        old_id = self._wal_head_id
        self._segment_max_seqno[old_id] = max(old.max_seqno, self._segment_max_seqno[old_id])
        self._open_wal(old_id + 1)
        self.telemetry["wal_rotations"] += 1

    def _open_wal(self, file_id: int) -> None:
        """Make segment ``file_id`` the live WAL head (kept by the sweep). A
        create is durable once its directory is fsynced (:mod:`atomio`): a
        new segment's is, before anything in it is acked."""
        path = segment_path(self.data_dir, file_id)
        created = not os.path.exists(path)
        self._wal = WalWriter(path)
        self._wal_head_id = file_id
        self._segment_max_seqno.setdefault(file_id, 0)
        if created:
            fsync_dir(self.data_dir)

    def _commit(self) -> None:
        """Write one manifest record of the whole store, then delete the
        files it leaves dead: SSTables it does not name, WAL segments its
        checkpoint covers.

        The checkpoint is always ``_flushed_seqno``: only a flush moves
        data into SSTables, so a metadata commit must not let the WAL tail
        (acked ops still living only in the memtable) become deletable.
        """
        record = self._state_record(self._flushed_seqno, self._wal_head_id)
        watch = Span("durable.manifest")
        self._manifest.write(record)
        self.telemetry["wall_manifest_s"] += watch.lap("manifest")
        self.telemetry["commits"] += 1
        self._record = record
        self._sweep()

    # ------------------------------------------------------------------
    # Write path (WAL first, then the inherited in-memory apply)
    # ------------------------------------------------------------------
    def _ack_wal(
        self, keys: np.ndarray, values: Optional[np.ndarray] = None
    ) -> int:
        """Journal one record — a put of ``values``, or a delete when there
        are none — and fsync it; the op is acknowledged when this
        returns. Returns its first seqno."""
        seq = self._next_seqno
        watch = Span("durable.wal")
        before = self._wal.log.bytes_appended
        self._wal.append(seq, keys, values)
        self._next_seqno = seq + len(keys)
        self._wal.sync()
        self.telemetry["wall_wal_s"] += watch.lap("wal")
        self.telemetry["wal_bytes"] += self._wal.log.bytes_appended - before
        self.telemetry["wal_syncs"] += 1
        self._acked_seqno = self._next_seqno - 1
        return seq

    @property
    def acked_seqno(self) -> int:
        """Highest sequence number covered by an fsync'd WAL record."""
        return self._acked_seqno

    def put_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        # Reject a bad batch before it is journaled, not after.
        self._journaled(super().put_batch, *validate_batch(keys, values))

    def delete_batch(self, keys: np.ndarray) -> None:
        self._journaled(super().delete_batch, validate_keys(keys))

    def _journaled(self, apply: Callable[..., None], keys: np.ndarray, *values: np.ndarray) -> None:
        """One write batch (a put of ``values``, or a delete when there are
        none): one WAL record and one sync — the ack — then the inherited
        in-memory apply."""
        if len(keys) == 0:
            return
        seq = self._ack_wal(keys, *values)
        # Conservative floor while this op is in flight: a flush mid-batch
        # may only checkpoint the last op *fully* applied before it.
        self._inflight_floor = seq - 1
        apply(keys, *values)
        self._inflight_floor = self._next_seqno - 1

    # ------------------------------------------------------------------
    # Policy / structure mutators: inherited behaviour, then one commit
    # ------------------------------------------------------------------
    def _mutate(self, mutator: Callable[..., None], *args: object) -> None:
        """Run an inherited mutator, then commit its buffered edits and the
        new policy metadata — once, at the outermost call: the base class
        nests these through ``self`` (``set_named_policy`` →
        ``set_policies`` → ``set_policy`` → ``force_merge_level``). A closed
        store refuses before the mutator runs, so nothing is applied that
        could not be committed."""
        if self._closed:
            raise DurabilityError(f"store at {self.data_dir} is closed")
        if self._in_mutator:
            mutator(*args)
            return
        self._in_mutator = True
        try:
            mutator(*args)
        finally:
            self._in_mutator = False
        self._commit()

    def bulk_load(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        distribute: bool = False,
    ) -> None:
        """Bulk-populate the empty store; runs land directly as SSTables
        (no WAL traffic — there is nothing to replay)."""
        self._mutate(super().bulk_load, keys, values, distribute)

    def set_policy(self, level_no: int, new_policy: int, transition: TransitionKind) -> None:
        self._mutate(super().set_policy, level_no, new_policy, transition)

    def set_policies(self, new_policies: Sequence[int], transition: TransitionKind) -> None:
        self._mutate(super().set_policies, new_policies, transition)

    def set_named_policy(
        self,
        policy: PolicyLike,
        transition: TransitionKind = TransitionKind.FLEXIBLE,
    ) -> None:
        self._mutate(super().set_named_policy, policy, transition)

    def set_bits_per_key(self, bits_per_key: float) -> None:
        self._mutate(super().set_bits_per_key, bits_per_key)

    def force_merge_level(self, level_no: int) -> None:
        self._mutate(super().force_merge_level, level_no)

    def rebuild_level_in_place(self, level_no: int) -> None:
        self._mutate(super().rebuild_level_in_place, level_no)

    def check_invariants(self) -> None:
        super().check_invariants()
        files = self._files()
        if self._record["files"] != files:
            raise DurabilityError(
                f"manifest runs {self._record['files']} diverge from tree runs {files}"
            )
        for _, _, filename in files:
            if not os.path.exists(os.path.join(self.data_dir, filename)):
                raise DurabilityError(f"live SSTable {filename} missing on disk")

    # ------------------------------------------------------------------
    # Pickling (repro.persist): the tree and its WAL position travel; the
    # directory is reopened where the store is loaded
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        state = super().__getstate__()
        for name in self._PROCESS_FIELDS:
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Reopen ``data_dir`` (recovering or creating it), then install
        the loaded tree as its next generation
        (:meth:`_install_generation`): after this the directory recovers
        to exactly the loaded tree, not to whatever it held before."""
        DurableStore.__init__(self, state["data_dir"], state["config"])
        self._wal.close()
        self._manifest.close()
        vars(self).update(state)
        self._install_generation()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the WAL and manifest (the store stays readable
        on disk; reopen with ``DurableStore(data_dir)``)."""
        if self._closed:
            return
        self._wal.close()
        self._manifest.close()
        self._closed = True

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DurableStore(dir={self.data_dir!r}, "
            f"entries={self.total_entries}, "
            f"acked_seqno={self._acked_seqno})"
        )
