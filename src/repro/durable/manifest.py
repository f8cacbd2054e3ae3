"""The manifest: one log, ``MANIFEST``, of whole-state records.

``MANIFEST`` is a :mod:`repro.durable.log` whose payloads are JSON records,
and every record is the store's whole state — there is no delta to replay
and no pointer to swap; the last CRC-clean record is the state:

``config``            :func:`repro.config.config_to_state` dict
``files``             ``[[level, run_id, filename], ...]`` every live
                      SSTable, in level-then-age order
``checkpoint_seqno``  every WAL op with seqno <= this is covered by the
                      SSTables named in ``files``
``wal_head``          id of the WAL segment new appends go to

and the tree metadata, which the manifest carries without interpreting —
the store does:

``n_levels``          depth of the tree (levels may be empty)
``policies``          ``[[policy, pending_or_null], ...]`` shallow → deep
``named_policy``      pinned named compaction policy or ``None``
``next_run_id``       run-id counter floor for the reopened tree
``bits_per_key``      current Bloom budget

A record is written only *after* every SSTable it names is fsynced, so a
record that passes its CRC never names a torn table. A torn **final**
record (the writer died mid-append) is discarded exactly like a torn WAL
tail — that commit never acknowledged — and cut off when the log is read,
so later appends extend a clean prefix.

The log does not grow without bound: once :data:`MANIFEST_COMPACT_EVERY`
records were appended to it, the next record replaces it as a one-record
log, published through :func:`repro.durable.atomio.atomic_file` (temp
file, fsync, ``os.replace``, directory fsync). A fresh or restored store
publishes its first record the same way. A crash leaves the old log or
the new one, never a mix.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from repro.durable import faults
from repro.durable.atomio import atomic_file
from repro.durable.log import LogAppender, frame, iter_frames
from repro.errors import DurabilityError

MANIFEST_NAME = "MANIFEST"

#: Appends a log takes before the next record replaces it (tests patch it).
MANIFEST_COMPACT_EVERY = 64


def manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST_NAME)


def _jsonable(value):
    """Coerce numpy scalars (and containers of them) to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def encode_record(record: Dict[str, Any]) -> bytes:
    """One record payload (unframed)."""
    return json.dumps(_jsonable(record), sort_keys=True).encode("utf-8")


def decode_records(data: bytes) -> Tuple[List[Dict[str, Any]], int]:
    """The records of ``data``'s clean prefix, and that prefix's length."""
    records: List[Dict[str, Any]] = []
    valid = 0
    for payload, end in iter_frames(data):
        try:
            record = json.loads(payload.decode("utf-8"))
        except ValueError:
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        valid = end
    return records, valid


def read_manifest(directory: str) -> Tuple[List[Dict[str, Any]], bool]:
    """Every record of ``directory``'s manifest, oldest first, and whether a
    torn tail followed them — which is truncated away, so appends extend
    the clean prefix."""
    path = manifest_path(directory)
    with open(path, "rb") as fh:
        data = fh.read()
    records, valid = decode_records(data)
    if not records:
        raise DurabilityError(f"manifest in {directory} holds no valid record")
    torn = valid != len(data)
    if torn:
        os.truncate(path, valid)
    return records, torn


def publish_manifest(directory: str, record: Dict[str, Any]) -> None:
    """Replace ``directory``'s manifest by a one-record log of ``record``."""
    with atomic_file(
        manifest_path(directory),
        before_replace=lambda: faults.maybe_crash("manifest.swap"),
    ) as fh:
        fh.write(frame(encode_record(record)))


class ManifestWriter:
    """The write handle on a published manifest: one fsync per record."""

    def __init__(self, directory: str, appended: int) -> None:
        self.directory = directory
        self.log = LogAppender(manifest_path(directory), "manifest.torn")
        #: Records appended since the log last held only one.
        self.appended = appended

    def write(self, record: Dict[str, Any]) -> None:
        """Make ``record`` the durable state: append and fsync it, or, once
        :data:`MANIFEST_COMPACT_EVERY` appends are in, publish it as a
        one-record log."""
        faults.maybe_crash("manifest.edit")
        if self.appended < MANIFEST_COMPACT_EVERY:
            self.log.append(encode_record(record))
            self.log.sync()
            self.appended += 1
            return
        self.log.close()
        publish_manifest(self.directory, record)
        self.log = LogAppender(manifest_path(self.directory), "manifest.torn")
        self.appended = 0

    def close(self) -> None:
        self.log.close()
