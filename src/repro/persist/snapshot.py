"""Versioned snapshot files for engines, tuners and whole stores.

The paper's deployment story depends on state that outlives a process: Lerp
is "pre-trained offline and redeployed" across workloads, and long benchmark
runs must be resumable. A snapshot is the pickled object (DESIGN.md §6): the
engine, the :class:`~repro.core.ruskey.RusKey` or the tuner as it stands, so
a shared tuner, a shared audit log and a shared RNG come back shared.

A snapshot file is one frame of :mod:`repro.durable.log` (``u32 length |
u32 crc32 | payload``, the frame the WAL and the manifest are written in)
around a pickled envelope, a plain dict::

    {
        "magic": "repro-snapshot",
        "format_version": 3,
        "kind": "engine" | "store" | "tuner",
        "repro_version": "...",          # library that wrote the file
        "meta": {...},                   # caller-supplied annotations
        "object": b"...",                # the object, itself a pickle
    }

:func:`read_envelope` checks the frame's CRC, then magic, version and
kind; :func:`load_snapshot` only then unpickles the object — so no class's
``__setstate__`` runs for a file that is refused. A truncated or corrupt
file, or one of any other version, raises :class:`SnapshotError`. A class
names what a pickle leaves out in ``__getstate__`` / ``__setstate__``; a
change to what any class pickles bumps ``FORMAT_VERSION``, and a file of
another version is refused, never reinterpreted
(``tests/data/snapshot_layout.json`` records the layout and fails when it
changes under the same version).

Restore invariants (asserted by ``tests/test_persist.py`` and the
differential oracle's restore rule):

* **Bit-exactness** — an engine/store restored from a snapshot and driven
  with the remaining operation stream produces *identical* mission stats,
  simulated clock, I/O counters and tree structure as a process that never
  snapshotted.
* **Between missions** — a ``StatsCollector`` with an open mission window
  refuses to be pickled.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Dict, Optional

from repro import __version__
from repro.durable.atomio import publish_bytes
from repro.durable.log import frame, iter_frames
from repro.errors import SnapshotError

MAGIC = "repro-snapshot"
FORMAT_VERSION = 3


def save_snapshot(
    path: str,
    kind: str,
    obj: object,
    meta: Optional[Dict[str, object]] = None,
) -> None:
    """Pickle ``obj`` to ``path`` as a versioned snapshot of ``kind``
    (atomically *and* durably via :mod:`repro.durable.atomio`: the
    published file is complete or absent, never half-written, and both its
    bytes and the rename are fsync'd before this returns)."""
    path = os.fspath(path)
    try:
        blob = pickle.dumps(obj, protocol=4)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SnapshotError(f"cannot pickle the {kind} for {path}: {exc}") from exc
    envelope = {
        "magic": MAGIC,
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "repro_version": __version__,
        "meta": dict(meta) if meta else {},
        "object": blob,
    }
    try:
        publish_bytes(
            path, frame(pickle.dumps(envelope, protocol=4)), suffix=f".tmp.{os.getpid()}"
        )
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot to {path}: {exc}") from exc


def read_envelope(path: str, expected_kind: Optional[str] = None) -> Dict[str, Any]:
    """Read and validate a snapshot's envelope; its ``"object"`` is still
    the pickled bytes. The file must be exactly one CRC-clean frame, and
    magic, version and kind must match."""
    try:
        with open(os.fspath(path), "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    blob, end = next(iter_frames(memoryview(data)), (b"", -1))
    if end != len(data):
        raise SnapshotError(
            f"{path} is not one CRC-clean snapshot frame: truncated, "
            f"corrupt, or written before format version {FORMAT_VERSION}"
        )
    try:
        envelope = pickle.loads(blob)
    except (pickle.UnpicklingError, EOFError) as exc:
        raise SnapshotError(f"{path} is not a repro snapshot: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("magic") != MAGIC:
        raise SnapshotError(f"{path} is not a repro snapshot")
    version = envelope.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"{path} has snapshot format version {version}; this library "
            f"reads version {FORMAT_VERSION}"
        )
    if expected_kind is not None and envelope.get("kind") != expected_kind:
        raise SnapshotError(
            f"{path} holds a {envelope.get('kind')!r} snapshot, "
            f"expected {expected_kind!r}"
        )
    return envelope


def load_snapshot(path: str, expected_kind: Optional[str] = None) -> Dict[str, Any]:
    """The validated envelope (:func:`read_envelope`) with its ``"object"``
    unpickled: nothing is unpickled for a file that is refused."""
    envelope = read_envelope(path, expected_kind)
    envelope["object"] = pickle.loads(envelope["object"])
    return envelope


def save_engine(engine, path: str, meta: Optional[Dict[str, object]] = None) -> None:
    """Snapshot a bare engine (tree, sharded or durable store)."""
    save_snapshot(path, "engine", engine, meta)


def load_engine(path: str):
    """The engine a :func:`save_engine` snapshot holds; a durable store
    reattaches its directory, which must still hold exactly the
    snapshot's state (``DurabilityError`` otherwise)."""
    return load_snapshot(path, expected_kind="engine")["object"]


def save_tuner(tuner, path: str, meta: Optional[Dict[str, object]] = None) -> None:
    """Snapshot one tuner (e.g. a trained Lerp for later redeployment)."""
    save_snapshot(path, "tuner", tuner, meta)


def load_tuner(path: str):
    """The tuner a :func:`save_tuner` snapshot holds."""
    return load_snapshot(path, expected_kind="tuner")["object"]


def save_store(store, path: str, meta: Optional[Dict[str, object]] = None) -> None:
    """Snapshot a whole :class:`~repro.core.ruskey.RusKey` store: engine,
    tuner(s), audit log, mission and policy logs."""
    save_snapshot(path, "store", store, meta)


def load_store(path: str):
    """The :class:`~repro.core.ruskey.RusKey` a :func:`save_store` snapshot
    holds, ready to run its next mission."""
    return load_snapshot(path, expected_kind="store")["object"]
