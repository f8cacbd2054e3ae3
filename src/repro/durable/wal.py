"""Write-ahead log: one record per write batch, as :mod:`repro.durable.log`
frames.

Record payload (all integers little-endian)::

    payload := u8 op | u64 seqno | u32 n | int64[n] keys | int64[n] values?

``values`` is present only for ``OP_PUT``. Two ops exist:

* ``OP_PUT`` (1) — ``n`` key/value pairs; consumes seqnos
  ``seqno .. seqno + n - 1`` (one logical operation per pair);
* ``OP_DELETE`` (2) — ``n`` tombstoned keys, same seqno rule.

A write is *acknowledged* once the fsync after its record returns. A
payload that does not decode ends the segment like a torn frame, but an
older version's per-write sync marker (op 3) raises ``DurabilityError``.

Sequence numbers make replay idempotent: the manifest records a
``checkpoint_seqno`` up to which all operations are covered by SSTables,
and recovery skips any WAL record whose ops fall at or below it
(re-applying the overlap would also be harmless — newest-wins semantics —
but skipping keeps replay "WAL tail only", see DESIGN.md §13).
"""

from __future__ import annotations

import os
import re
import struct
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.durable import faults
from repro.durable.log import LogAppender, iter_frames
from repro.errors import DurabilityError

OP_PUT = 1
OP_DELETE = 2

_PAYLOAD_HEAD = struct.Struct("<BQI")
#: int64 arrays a record of each op carries: keys and values, or keys.
_N_ARRAYS = {OP_PUT: 2, OP_DELETE: 1}

#: ``wal-%08d.log`` — segment file name for a WAL file id.
SEGMENT_FMT = "wal-{:08d}.log"


class WalRecord(NamedTuple):
    """One decoded WAL record."""

    op: int
    seqno: int
    keys: np.ndarray
    values: np.ndarray  # empty for OP_DELETE

    @property
    def last_seqno(self) -> int:
        """Highest seqno the record covers: the batch's last op (0 for an
        empty batch)."""
        return self.seqno + len(self.keys) - 1 if len(self.keys) else 0


# ----------------------------------------------------------------------
# Payload codec (pure byte-level functions; property-tested)
# ----------------------------------------------------------------------
def encode_record(
    op: int,
    seqno: int,
    keys: Optional[np.ndarray] = None,
    values: Optional[np.ndarray] = None,
) -> bytes:
    """One WAL record payload (unframed)."""
    if op not in _N_ARRAYS:
        raise DurabilityError(f"unknown WAL op {op!r}")
    keys = np.zeros(0, dtype=np.int64) if keys is None else np.asarray(keys, dtype=np.int64)
    parts = [_PAYLOAD_HEAD.pack(op, seqno, len(keys)), keys.tobytes()]
    if op == OP_PUT:
        values = np.asarray(values, dtype=np.int64)
        if values.shape != keys.shape:
            raise DurabilityError(f"keys/values length mismatch: {keys.shape} vs {values.shape}")
        parts.append(values.tobytes())
    return b"".join(parts)


def decode_record(payload: bytes) -> Optional[WalRecord]:
    """Decode one record payload; ``None`` when structurally invalid."""
    if len(payload) < _PAYLOAD_HEAD.size:
        return None
    op, seqno, n = _PAYLOAD_HEAD.unpack_from(payload)
    n_arrays = _N_ARRAYS.get(op)
    if op == 3:  # CRC-clean, so written on purpose: an older format's per-write sync marker
        raise DurabilityError("WAL segment of an older format (sync marker, op 3)")
    if n_arrays is None:
        return None
    count = n_arrays * n
    if len(payload) != _PAYLOAD_HEAD.size + count * 8:
        return None
    arrays = np.frombuffer(
        payload, dtype="<i8", count=count, offset=_PAYLOAD_HEAD.size
    ).astype(np.int64)
    return WalRecord(op, seqno, arrays[:n], arrays[n:])


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
class WalWriter:
    """Appends records to one WAL segment.

    :meth:`append` buffers a record; :meth:`sync` fsyncs it — the ack
    boundary. Wall-clock cost of the file I/O is the caller's to meter
    (telemetry only); simulated cost is charged by the engine through
    :class:`~repro.storage.pager.DiskModel`.
    """

    def __init__(self, path: str) -> None:
        self.log = LogAppender(path, "wal.torn")
        #: Highest seqno covered by an appended record (0 when none yet).
        self.max_seqno = 0

    def append(self, seqno: int, keys: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        """Append a put of ``values``, or a delete when there are none."""
        op = OP_DELETE if values is None else OP_PUT
        self.log.append(encode_record(op, seqno, keys, values))
        self.max_seqno = max(self.max_seqno, seqno + len(keys) - 1)
        faults.maybe_crash("wal.append")

    def sync(self) -> None:
        """Make everything appended durable."""
        self.log.sync()
        faults.maybe_crash("wal.sync")

    def close(self) -> None:
        self.log.close()


class WalReader:
    """Reads one WAL segment up to its first torn or undecodable record."""

    def __init__(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        self.records: List[WalRecord] = []
        self.valid_bytes = 0
        for payload, end in iter_frames(data):
            record = decode_record(payload)
            if record is None:
                break
            self.records.append(record)
            self.valid_bytes = end
        self.torn = self.valid_bytes != len(data)
        #: Highest seqno covered by any valid record (0 when empty).
        self.max_seqno = max((r.last_seqno for r in self.records), default=0)


def segment_path(directory: str, file_id: int) -> str:
    return os.path.join(directory, SEGMENT_FMT.format(file_id))


def segment_id(name: str) -> Optional[int]:
    """The file id of a WAL segment's file name; ``None`` for any other."""
    match = re.fullmatch(r"wal-(\d+)\.log", name)
    return None if match is None else int(match[1])


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(file_id, path)`` of every WAL segment in ``directory``, id order."""
    return sorted(
        (file_id, os.path.join(directory, name))
        for name in os.listdir(directory)
        if (file_id := segment_id(name)) is not None
    )
