"""Versioned manifest: an append-only edit log of the store's file set.

A manifest file (``MANIFEST-%06d.log``) is a :mod:`repro.durable.log`
whose payloads are JSON edit records. The first edit of every manifest is
a *snapshot* edit carrying the full state (config, complete file list,
metadata); subsequent edits are deltas. ``CURRENT`` is a one-line text
file naming the live manifest and is only ever updated by an atomic
``os.replace`` — a crash leaves either the old or the new pointer, never
garbage.

Edit record fields (all optional except where noted; unknown fields are
ignored so the format can grow):

``snapshot``          bool — this edit rebases state instead of patching it
``config``            :func:`repro.config.config_to_state` dict
                      (snapshot edits only)
``files``             ``[[level, run_id, filename], ...]`` full live file
                      list in level-then-age order (snapshot edits only)
``ops``               ``[["add", level, run_id, filename] | ["drop",
                      level, run_id], ...]`` applied in order
``checkpoint_seqno``  every WAL op with seqno <= this is covered by the
                      SSTables named in the (post-edit) file set
``wal_head``          id of the WAL segment new appends go to

and the tree metadata (:data:`META_FIELDS`), which the manifest carries
without interpreting — the store does:

``n_levels``          depth of the tree at edit time (levels may be empty)
``policies``          ``[[policy, pending_or_null], ...]`` shallow → deep
``named_policy``      pinned named compaction policy or ``None``
``next_run_id``       run-id counter floor for the reopened tree
``bits_per_key``      current Bloom budget

Recovery invariant: every ``add`` is only appended *after* its SSTable
file is fully written and fsynced, so a manifest whose edits all pass
their CRC never references a torn table. A torn **final** edit record
(the writer died mid-append) is discarded exactly like a torn WAL tail —
that edit's commit never acknowledged.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Optional, Tuple

from repro.durable import faults
from repro.durable.atomio import atomic_file
from repro.durable.log import LogAppender, iter_frames
from repro.errors import DurabilityError

CURRENT_NAME = "CURRENT"
MANIFEST_FMT = "MANIFEST-{:06d}.log"

#: Tree metadata an edit may carry; the last value written wins.
META_FIELDS = ("n_levels", "policies", "named_policy", "next_run_id", "bits_per_key")


def manifest_path(directory: str, manifest_id: int) -> str:
    return os.path.join(directory, MANIFEST_FMT.format(manifest_id))


def current_path(directory: str) -> str:
    return os.path.join(directory, CURRENT_NAME)


def _jsonable(value):
    """Coerce numpy scalars (and containers of them) to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def encode_edit(edit: Dict[str, object]) -> bytes:
    """One edit record payload (unframed)."""
    return json.dumps(_jsonable(edit), sort_keys=True).encode("utf-8")


def decode_edits(data: bytes) -> Tuple[List[Dict[str, object]], bool]:
    """All valid edits in ``data`` plus whether a torn tail was discarded."""
    edits: List[Dict[str, object]] = []
    valid = 0
    for payload, end in iter_frames(data):
        try:
            edit = json.loads(payload.decode("utf-8"))
        except ValueError:
            break
        if not isinstance(edit, dict):
            break
        edits.append(edit)
        valid = end
    return edits, valid != len(data)


class ManifestState:
    """The live file set and tree metadata implied by a manifest's edits."""

    def __init__(self) -> None:
        self.config_state: Optional[Dict[str, object]] = None
        #: level -> ordered ``[(run_id, filename)]``, oldest run first.
        self.files: Dict[int, List[Tuple[int, str]]] = {}
        self.checkpoint_seqno = 0
        self.wal_head = 1
        #: The :data:`META_FIELDS` recorded so far, as written.
        self.meta: Dict[str, object] = {}
        self.edits_applied = 0

    def apply_edit(self, edit: Dict[str, object]) -> None:
        if edit.get("snapshot"):
            self.files = {}
            self.meta = {}
            for level, run_id, filename in edit.get("files", []):
                self.files.setdefault(int(level), []).append(
                    (int(run_id), str(filename))
                )
        if "config" in edit:
            self.config_state = edit["config"]
        for op in edit.get("ops", []):
            kind = op[0]
            if kind == "add":
                _, level, run_id, filename = op
                self.files.setdefault(int(level), []).append(
                    (int(run_id), str(filename))
                )
            elif kind == "drop":
                _, level, run_id = op
                runs = self.files.get(int(level), [])
                before = len(runs)
                runs[:] = [(r, f) for r, f in runs if r != int(run_id)]
                if len(runs) == before:
                    raise DurabilityError(
                        f"manifest drops unknown run {run_id} at level {level}"
                    )
            else:
                raise DurabilityError(f"unknown manifest op {kind!r}")
        if "checkpoint_seqno" in edit:
            self.checkpoint_seqno = int(edit["checkpoint_seqno"])
        if "wal_head" in edit:
            self.wal_head = int(edit["wal_head"])
        self.meta.update((key, edit[key]) for key in META_FIELDS if key in edit)
        self.edits_applied += 1

    def live_filenames(self) -> List[str]:
        return [f for runs in self.files.values() for _, f in runs]

    def snapshot_edit(self) -> Dict[str, object]:
        """A single snapshot edit reproducing this state (manifest rotation)."""
        edit: Dict[str, object] = {
            "snapshot": True,
            "files": [
                [level, run_id, filename]
                for level in sorted(self.files)
                for run_id, filename in self.files[level]
            ],
            "checkpoint_seqno": self.checkpoint_seqno,
            "wal_head": self.wal_head,
            **self.meta,
        }
        if self.config_state is not None:
            edit["config"] = self.config_state
        return edit


class ManifestWriter:
    """Appends edit records to one manifest file, fsync per edit."""

    def __init__(self, directory: str, manifest_id: int) -> None:
        self.manifest_id = manifest_id
        self.log = LogAppender(manifest_path(directory, manifest_id), "manifest.torn")
        self.edits_written = 0

    def append_edit(self, edit: Dict[str, object]) -> None:
        faults.maybe_crash("manifest.edit")
        self.log.append(encode_edit(edit))
        self.log.sync()
        self.edits_written += 1

    def close(self) -> None:
        self.log.close()


def write_current(directory: str, manifest_id: int) -> None:
    """Atomically repoint ``CURRENT`` at ``MANIFEST-<manifest_id>``.

    Published through :func:`repro.durable.atomio.atomic_file` (temp
    file, fsync, ``os.replace`` over CURRENT, directory fsync) — a crash
    at any point leaves a valid pointer (old or new, never torn), and a
    completed swap survives the crash.
    """
    with atomic_file(
        current_path(directory),
        "w",
        encoding="utf-8",
        before_replace=lambda: faults.maybe_crash("manifest.swap"),
    ) as fh:
        fh.write(MANIFEST_FMT.format(manifest_id) + "\n")


def read_current(directory: str) -> int:
    """Manifest id named by ``CURRENT``; raises when absent or malformed."""
    try:
        with open(current_path(directory), encoding="utf-8") as fh:
            name = fh.read().strip()
    except FileNotFoundError:
        raise DurabilityError(f"no CURRENT file in {directory}") from None
    match = re.fullmatch(r"MANIFEST-(\d+)\.log", name)
    if match is None:
        raise DurabilityError(f"CURRENT names an invalid manifest: {name!r}")
    manifest_id = int(match[1])
    if not os.path.exists(manifest_path(directory, manifest_id)):
        raise DurabilityError(f"CURRENT names a missing manifest: {name!r}")
    return manifest_id


def read_manifest(directory: str) -> Tuple[ManifestState, int, bool]:
    """Replay the live manifest: ``(state, manifest_id, torn_tail)``."""
    manifest_id = read_current(directory)
    with open(manifest_path(directory, manifest_id), "rb") as fh:
        data = fh.read()
    edits, torn = decode_edits(data)
    if not edits:
        raise DurabilityError(
            f"manifest {manifest_id} in {directory} holds no valid edits"
        )
    state = ManifestState()
    for edit in edits:
        state.apply_edit(edit)
    return state, manifest_id, torn
