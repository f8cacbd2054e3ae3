"""`DurableStore`: a crash-recoverable :class:`~repro.lsm.tree.LSMTree`.

The store *is* an LSM-tree (a subclass: the in-memory structure stays the
working set every read is served from) that owns the three durable
primitives and overrides only what durability changes:

* every write appends to the WAL (and fsyncs a sync marker — the ack
  boundary) *before* touching the memtable;
* every run the tree installs is mirrored to an SSTable file the moment
  the in-memory install happens (the ``_run_installed`` /
  ``_runs_dropped`` / ``_flush_completed`` template methods), and every
  flush cascade commits one manifest edit recording the adds, drops, the
  new WAL head and a conservative ``checkpoint_seqno``;
* recovery replays MANIFEST → opens the live SSTables → replays the WAL
  tail, then sweeps away the files interrupted commits left behind;
* a fresh store and a restored snapshot are installed alike, as a new
  on-disk generation of the in-memory tree.

Write protocol (the order is the whole durability argument)::

    put_batch(keys, values) / delete_batch(keys):   one record per batch
      1. WAL append + fsync sync marker          -> op is ACKNOWLEDGED
      2. LSMTree.put_batch / delete_batch         (may flush/compact)
           per installed run: write SSTable file (fsync, tmp+rename)
           per flush cascade: append manifest edit (fsync), rotate WAL,
                              delete covered segments + dropped tables

    A kill at any point:
      before 1 completes  -> op unacked; torn WAL tail truncated on reopen
      between 1 and 2     -> replayed from the WAL on reopen
      mid-SSTable         -> orphan .tmp / unreferenced file, GC'd; WAL
                             still holds the data
      mid-manifest-edit   -> torn final edit discarded; the tables it
                             named become orphans; WAL still holds the data
      after the edit      -> recovered from MANIFEST + WAL tail

``checkpoint_seqno`` is conservative: when a flush fires in the middle of
op N (the memtable filled partway through a batch), the edit records
``N - 1`` — the last op *fully* applied before it. Replay may therefore
re-apply a prefix the SSTables already hold, which is harmless under
newest-wins merge semantics; what it can never do is lose an
acknowledged suffix.

SimClock discipline: the inherited engine charges all simulated costs
exactly as a bare tree does — the durable overrides never touch the
simulated clock, RNG, cache or counters, so a ``DurableStore`` is
bit-identical to a bare ``LSMTree`` in every simulated observable. Wall
time spent on real file I/O is tallied in :attr:`telemetry` and exported
through :func:`repro.obs.collect.collect_durable_metrics`.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.config import (
    SystemConfig,
    TransitionKind,
    config_from_state,
    config_to_state,
)
from repro.durable import faults
from repro.durable.manifest import (
    ManifestState,
    ManifestWriter,
    current_path,
    read_manifest,
    write_current,
)
from repro.durable.sstable import FILE_FMT, read_sstable, sstable_path, write_sstable
from repro.durable.wal import (
    OP_PUT,
    OP_SYNC,
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


class RecoveryReport(NamedTuple):
    """What reopening a durable directory found and did."""

    created: bool
    manifest_id: int
    manifest_edits: int
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
    ``config`` is then required. Opening a directory holding a ``CURRENT``
    pointer recovers the store; a ``config`` passed alongside must match
    the one recorded in the manifest.

    Everything durability does not change — the read path, mission
    windows, the tuner-facing surface, introspection — is inherited. The
    overrides journal writes before applying them and commit one manifest
    edit per outermost policy/structure mutator; as its own (inherited)
    tuning target, the store cannot be bypassed by the serving layer's
    write path.
    """

    # Durable state lives in the WAL/manifest/SSTables on disk, not in the
    # pickle snapshot: the _pending_* accumulators and _segment_max_seqno
    # map are re-derived by _recover() on reopen, rotate_manifest_every
    # comes from the blueprint, telemetry is host-side measurement, and
    # last_recovery/_closed/_in_mutator are per-process lifecycle flags.
    _snapshot_exempt = frozenset({
        "rotate_manifest_every", "telemetry", "_pending_ops",
        "_pending_wal_head", "_segment_max_seqno", "_closed", "_in_mutator",
        "last_recovery",
    })

    def __init__(
        self,
        data_dir: str,
        config: Optional[SystemConfig] = None,
        *,
        rotate_manifest_every: int = 64,
    ) -> None:
        self.data_dir = os.fspath(data_dir)
        self.rotate_manifest_every = max(2, int(rotate_manifest_every))
        #: Wall-clock/file-volume telemetry (never simulated state); see
        #: :func:`repro.obs.collect.collect_durable_metrics`.
        self.telemetry: Dict[str, float] = {
            "wal_records": 0,
            "wal_bytes": 0,
            "wal_syncs": 0,
            "sstables_written": 0,
            "sstable_bytes": 0,
            "manifest_edits": 0,
            "commits": 0,
            "wal_rotations": 0,
            "manifest_rotations": 0,
            "orphans_removed": 0,
            "wal_records_replayed": 0,
            "wall_wal_s": 0.0,
            "wall_sstable_s": 0.0,
            "wall_manifest_s": 0.0,
            "wall_recovery_s": 0.0,
        }
        self._pending_ops: List[List[Any]] = []
        self._pending_wal_head: Optional[int] = None
        #: WAL segment id -> highest seqno its on-disk records cover.
        self._segment_max_seqno: Dict[int, int] = {}
        self._closed = False
        #: True while a policy/structure mutator is running, so the
        #: mutators it nests through ``self`` leave the commit to it.
        self._in_mutator = False

        os.makedirs(self.data_dir, exist_ok=True)
        if os.path.exists(current_path(self.data_dir)):
            self.last_recovery = self._recover(config)
            return
        if config is None:
            raise DurabilityError(
                f"{self.data_dir} holds no store and no config was given"
            )
        leftovers = [
            name
            for name in os.listdir(self.data_dir)
            if name.endswith(".sst") or name.startswith(("wal-", "MANIFEST-"))
        ]
        if leftovers:
            raise DurabilityError(
                f"{self.data_dir} holds store files but no CURRENT pointer "
                f"({sorted(leftovers)[:4]}...); refusing to overwrite"
            )
        super().__init__(config)
        self._next_seqno = 1
        self._acked_seqno = 0
        removed = self._install_generation(1)
        self.last_recovery = RecoveryReport(
            created=True,
            manifest_id=1,
            manifest_edits=1,
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
    def _install_generation(self, manifest_id: int) -> int:
        """Write the in-memory tree out as a fresh on-disk generation and
        remove every file of the one before; returns how many it removed.

        The current runs become SSTables (none for a fresh store), a
        snapshot manifest names them, ``CURRENT`` swaps to it once, WAL
        segment 1 opens and the memtable (empty for a fresh store) is
        re-journaled into it. Every op up to ``_next_seqno - 1`` is then in
        SSTables except the memtable's, whose records take new seqnos past
        it — so that is the checkpoint.
        """
        files = []
        for level in self.levels:
            for run in level.runs:
                filename = FILE_FMT.format(run.run_id, level.level_no)
                write_sstable(os.path.join(self.data_dir, filename), run)
                files.append([level.level_no, run.run_id, filename])
        checkpoint = self._next_seqno - 1
        self._state = ManifestState()
        self._state.apply_edit({
            "snapshot": True,
            "files": files,
            "checkpoint_seqno": checkpoint,
            "wal_head": 1,
            "config": config_to_state(self.config),
            **self._meta_fields(),
        })
        self._swap_manifest(manifest_id)
        self._segment_max_seqno = {}
        removed = self._sweep()
        self._pending_ops = []
        self._pending_wal_head = None
        self._wal = WalWriter(segment_path(self.data_dir, 1))
        self._wal_head_id = 1
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
        self._applied_seqno = self._inflight_floor = self._next_seqno - 1
        return removed

    def _sweep(self) -> int:
        """Delete every file no recovery path reads — temp files, SSTables
        the manifest does not name, superseded manifests, WAL segments
        ``_segment_max_seqno`` does not keep — and return how many."""
        live = set(self._state.live_filenames())
        current = os.path.basename(self._manifest.log.path)
        removed = 0
        for name in sorted(os.listdir(self.data_dir)):
            file_id = segment_id(name)
            if (
                name.endswith(".tmp")
                or (name.endswith(".sst") and name not in live)
                or (name.startswith("MANIFEST-") and name != current)
                or (file_id is not None and file_id not in self._segment_max_seqno)
            ):
                os.unlink(os.path.join(self.data_dir, name))
                removed += 1
        return removed

    def _drop_covered_segments(self) -> int:
        """Delete the retired WAL segments whose every seqno the manifest
        checkpoint covers; returns how many."""
        checkpoint = self._state.checkpoint_seqno
        dropped = [
            file_id
            for file_id in sorted(self._segment_max_seqno)
            if file_id < self._wal_head_id
            and self._segment_max_seqno[file_id] <= checkpoint
        ]
        for file_id in dropped:
            path = segment_path(self.data_dir, file_id)
            if os.path.exists(path):
                os.unlink(path)
            del self._segment_max_seqno[file_id]
        return len(dropped)

    def _recover(self, config: Optional[SystemConfig]) -> RecoveryReport:
        t0 = perf_counter()
        state, manifest_id, manifest_torn = read_manifest(self.data_dir)
        if state.config_state is None:
            raise DurabilityError(
                f"manifest {manifest_id} in {self.data_dir} records no config"
            )
        recorded = config_from_state(dict(state.config_state))
        if config is not None and config != recorded:
            raise DurabilityError(
                f"{self.data_dir} was created under a different SystemConfig"
            )
        config = recorded

        super().__init__(config)
        meta: Dict[str, Any] = state.meta
        if meta.get("n_levels"):
            self._ensure_level(int(meta["n_levels"]))
        for level, (policy, pending) in zip(self.levels, meta.get("policies", [])):
            level.set_policy_immediate(int(policy))
            level.pending_policy = None if pending is None else int(pending)
        if meta.get("named_policy") is not None:
            self.compaction_policy = resolve_policy(str(meta["named_policy"]))
        if meta.get("bits_per_key") is not None and self.levels:
            super().set_bits_per_key(float(meta["bits_per_key"]))

        # Open live SSTables in manifest order (per level: oldest first).
        runs_opened = 0
        max_run_id = -1
        for level_no in sorted(state.files):
            self._ensure_level(level_no)
            level = self.level(level_no)
            for run_id, filename in state.files[level_no]:
                path = os.path.join(self.data_dir, filename)
                if not os.path.exists(path):
                    raise DurabilityError(
                        f"manifest names missing SSTable {filename}"
                    )
                run = read_sstable(path, config.bloom_mode, self._rng)
                if run.run_id != run_id or run.level_no != level_no:
                    raise DurabilityError(
                        f"SSTable {filename} identifies as run {run.run_id} "
                        f"level {run.level_no}, manifest says {run_id}/{level_no}"
                    )
                level.runs.append(run)
                runs_opened += 1
                max_run_id = max(max_run_id, run_id)
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
        self._next_run_id = max(int(meta.get("next_run_id", 0)), max_run_id + 1)
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
        checkpoint = state.checkpoint_seqno
        recovered_seqno = max([checkpoint, *self._segment_max_seqno.values()])

        # GC what interrupted commits left behind. The live head is the
        # highest segment on disk (a crash between opening a new segment
        # and committing its manifest edit can leave the head one ahead of
        # the recorded ``wal_head``).
        self._state = state
        self._manifest = ManifestWriter(self.data_dir, manifest_id)
        self._manifest.edits_written = state.edits_applied
        self._wal_head_id = max([state.wal_head, *readers])
        orphans = self._drop_covered_segments() + self._sweep()

        # Wire up the live write path *before* replay: a replay-induced
        # flush must commit durably like any other flush.
        self._wal = WalWriter(segment_path(self.data_dir, self._wal_head_id))
        if self._wal_head_id != state.wal_head:
            self._pending_wal_head = self._wal_head_id
        self._next_seqno = recovered_seqno + 1
        self._acked_seqno = recovered_seqno
        self._applied_seqno = checkpoint
        self._flushed_seqno = checkpoint
        self._inflight_floor = checkpoint

        # Replay the WAL tail (ops past the checkpoint) into the memtable
        # through the base-class write path: the ops are already journaled.
        kept = [readers[file_id] for file_id in sorted(self._segment_max_seqno)]
        records_replayed = 0
        ops_replayed = 0
        for reader in kept:
            for record in reader.records:
                if record.op == OP_SYNC or len(record.keys) == 0:
                    continue
                first, last = record.seqno, record.last_seqno
                if last <= checkpoint:
                    continue
                skip = max(0, checkpoint - first + 1)
                self._inflight_floor = max(
                    self._applied_seqno, first + skip - 1
                )
                if record.op == OP_PUT:
                    super().put_batch(record.keys[skip:], record.values[skip:])
                else:
                    super().delete_batch(record.keys[skip:])
                self._applied_seqno = last
                records_replayed += 1
                ops_replayed += len(record.keys) - skip
        self._inflight_floor = self._applied_seqno = recovered_seqno
        if self._pending_ops:
            # A replay flush mid-commit never leaves buffered edits, but a
            # replay that ended exactly on a flush boundary may; land them.
            self._commit()

        self.telemetry["wall_recovery_s"] += perf_counter() - t0
        self.telemetry["orphans_removed"] += orphans
        self.telemetry["wal_records_replayed"] += records_replayed
        return RecoveryReport(
            created=False,
            manifest_id=manifest_id,
            manifest_edits=state.edits_applied,
            manifest_torn=manifest_torn,
            runs_opened=runs_opened,
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
    def _run_installed(
        self, level_no: int, run: SortedRun, replaced_run_id: Optional[int]
    ) -> None:
        faults.maybe_crash("commit.before")
        filename = FILE_FMT.format(run.run_id, level_no)
        t0 = perf_counter()
        n_bytes = write_sstable(os.path.join(self.data_dir, filename), run)
        self.telemetry["wall_sstable_s"] += perf_counter() - t0
        self.telemetry["sstables_written"] += 1
        self.telemetry["sstable_bytes"] += n_bytes
        if replaced_run_id is not None:
            self._runs_dropped(level_no, [replaced_run_id])
        self._pending_ops.append(["add", level_no, run.run_id, filename])
        faults.maybe_crash("commit.mid")

    def _runs_dropped(self, level_no: int, run_ids: Sequence[int]) -> None:
        self._pending_ops.extend(["drop", level_no, run_id] for run_id in run_ids)

    def _flush_completed(self) -> None:
        """One flush cascade finished: commit its edits and rotate the WAL.

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
    def _meta_fields(self) -> Dict[str, object]:
        return {
            "n_levels": self.n_levels,
            "policies": [
                [level.policy, level.pending_policy] for level in self.levels
            ],
            "named_policy": self.named_policy(),
            "next_run_id": self._next_run_id,
            "bits_per_key": self.bits_per_key,
        }

    def _rotate_wal(self) -> None:
        """Retire the live WAL segment and open the next one.

        Called at flush commits: everything up to ``_flushed_seqno`` is
        about to be covered by SSTables, so the retired segment becomes
        deletable once every seqno it holds falls under a later
        checkpoint. The new head id rides the same manifest edit.
        """
        old = self._wal
        old.close()
        old_id = self._wal_head_id
        self._segment_max_seqno[old_id] = max(
            old.max_seqno, self._segment_max_seqno.get(old_id, 0)
        )
        new_id = old_id + 1
        self._wal = WalWriter(segment_path(self.data_dir, new_id))
        self._wal_head_id = new_id
        self._pending_wal_head = new_id
        self.telemetry["wal_rotations"] += 1

    def _commit(self) -> None:
        """Append one manifest edit covering all buffered structure changes
        (possibly none — policy metadata alone) plus current policy/meta
        state, then delete newly dead files.

        The checkpoint is always ``_flushed_seqno``: only a flush moves
        data into SSTables, so a metadata commit must not let the WAL tail
        (acked ops still living only in the memtable) become deletable.
        """
        edit: Dict[str, object] = {
            "ops": self._pending_ops,
            "checkpoint_seqno": self._flushed_seqno,
        }
        edit.update(self._meta_fields())
        if self._pending_wal_head is not None:
            edit["wal_head"] = self._pending_wal_head
        t0 = perf_counter()
        self._manifest.append_edit(edit)
        self.telemetry["wall_manifest_s"] += perf_counter() - t0
        self.telemetry["manifest_edits"] += 1
        self.telemetry["commits"] += 1
        self._state.apply_edit(edit)
        # The edit is durable; the tables it drops and the WAL segments its
        # checkpoint covers are now unreferenced by any recovery path.
        for op in self._pending_ops:
            if op[0] == "drop":
                path = sstable_path(self.data_dir, op[2], op[1])
                if os.path.exists(path):
                    os.unlink(path)
        self._pending_ops = []
        self._pending_wal_head = None
        self._drop_covered_segments()
        if self._manifest.edits_written >= self.rotate_manifest_every:
            self._rotate_manifest()

    def _swap_manifest(self, manifest_id: int) -> None:
        """Start ``MANIFEST-<manifest_id>`` with a snapshot edit of the
        current state and atomically repoint CURRENT at it."""
        self._manifest = ManifestWriter(self.data_dir, manifest_id)
        self._manifest.append_edit(self._state.snapshot_edit())
        write_current(self.data_dir, manifest_id)

    def _rotate_manifest(self) -> None:
        """Move the edit log to a fresh manifest; the old one is deleted."""
        old = self._manifest
        t0 = perf_counter()
        self._swap_manifest(old.manifest_id + 1)
        self.telemetry["wall_manifest_s"] += perf_counter() - t0
        old.close()
        os.unlink(old.log.path)
        self._manifest.edits_written = 0
        self.telemetry["manifest_rotations"] += 1

    # ------------------------------------------------------------------
    # Write path (WAL first, then the inherited in-memory apply)
    # ------------------------------------------------------------------
    def _ack_wal(
        self, keys: np.ndarray, values: Optional[np.ndarray] = None
    ) -> int:
        """Journal one record — a put of ``values``, or a delete when there
        are none — and fsync its sync marker; the op is acknowledged when
        this returns. Returns its first seqno."""
        seq = self._next_seqno
        t0 = perf_counter()
        before = self._wal.log.bytes_appended
        self._wal.append(seq, keys, values)
        self._next_seqno = seq + len(keys)
        self._wal.sync(self._next_seqno - 1)
        self.telemetry["wall_wal_s"] += perf_counter() - t0
        self.telemetry["wal_bytes"] += self._wal.log.bytes_appended - before
        self.telemetry["wal_records"] += 1
        self.telemetry["wal_syncs"] += 1
        self._acked_seqno = self._next_seqno - 1
        return seq

    @property
    def acked_seqno(self) -> int:
        """Highest sequence number covered by an fsync'd sync marker."""
        return self._acked_seqno

    def put_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        # Reject a bad batch before it is journaled, not after.
        self._journaled(super().put_batch, *validate_batch(keys, values))

    def delete_batch(self, keys: np.ndarray) -> None:
        self._journaled(super().delete_batch, validate_keys(keys))

    def _journaled(
        self, apply: Callable[..., None], keys: np.ndarray, *values: np.ndarray
    ) -> None:
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
        self._applied_seqno = self._inflight_floor = self._next_seqno - 1

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

    def set_policy(
        self, level_no: int, new_policy: int, transition: TransitionKind
    ) -> None:
        self._mutate(super().set_policy, level_no, new_policy, transition)

    def set_policies(
        self, new_policies: Sequence[int], transition: TransitionKind
    ) -> None:
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
        for level_no, runs in self._state.files.items():
            manifest_ids = [run_id for run_id, _ in runs]
            tree_ids = [run.run_id for run in self.level(level_no).runs]
            if manifest_ids != tree_ids:
                raise DurabilityError(
                    f"level {level_no}: manifest runs {manifest_ids} diverge "
                    f"from tree runs {tree_ids}"
                )
            for _, filename in runs:
                if not os.path.exists(os.path.join(self.data_dir, filename)):
                    raise DurabilityError(
                        f"live SSTable {filename} missing on disk"
                    )

    # ------------------------------------------------------------------
    # Snapshot interop (repro.persist): a DurableStore can still checkpoint
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Whole-store snapshot (tree state + durable watermarks).

        ``repro.persist`` stores this alongside the config and data_dir;
        :meth:`load_state_dict` installs the directory's next generation
        from it.
        """
        return {
            "tree": super().state_dict(),
            "data_dir": self.data_dir,
            "next_seqno": self._next_seqno,
            "acked_seqno": self._acked_seqno,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore from a snapshot and install it as the directory's next
        generation (:meth:`_install_generation`): after this the directory
        recovers to exactly the snapshot, not to whatever preceded the
        load."""
        super().load_state_dict(state["tree"])
        self._next_seqno = int(state["next_seqno"])
        self._acked_seqno = int(state["acked_seqno"])
        self._wal.close()
        self._manifest.close()
        self._install_generation(self._manifest.manifest_id + 1)

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
