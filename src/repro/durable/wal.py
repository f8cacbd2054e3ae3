"""Append-only write-ahead log with CRC-framed records.

Record grammar (all integers little-endian)::

    frame   := u32 payload_len | u32 crc32(payload) | payload
    payload := u8 op | u64 seqno | u32 n | int64[n] keys | int64[n] values?

``values`` is present only for ``OP_PUT``. Three ops exist:

* ``OP_PUT`` (1) — ``n`` key/value pairs; consumes seqnos
  ``seqno .. seqno + n - 1`` (one logical operation per pair);
* ``OP_DELETE`` (2) — ``n`` tombstoned keys, same seqno rule;
* ``OP_SYNC`` (3) — an fsync-boundary marker (``n == 0``): every record
  before it is durable on disk when the marker's fsync returns. A write
  is *acknowledged* once covered by a sync marker.

**Torn-tail detection**: a reader walks frames from the front and stops at
the first frame whose length field runs past the file or whose CRC does
not match — everything before that point is a valid prefix of what was
written (the property test in ``tests/test_durable.py`` truncates a log
at every byte offset and asserts exactly this). A writer that died
mid-append therefore costs at most the unacknowledged tail.

Sequence numbers make replay idempotent: the manifest records a
``checkpoint_seqno`` up to which all operations are covered by SSTables,
and recovery skips any WAL record whose ops fall at or below it
(re-applying the overlap would also be harmless — newest-wins semantics —
but skipping keeps replay "WAL tail only", see DESIGN.md §13).
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.durable import faults
from repro.errors import DurabilityError

OP_PUT = 1
OP_DELETE = 2
OP_SYNC = 3

_FRAME = struct.Struct("<II")
_PAYLOAD_HEAD = struct.Struct("<BQI")

#: ``wal-%08d.log`` — segment file name for a WAL file id.
SEGMENT_FMT = "wal-{:08d}.log"


class WalRecord(NamedTuple):
    """One decoded WAL record."""

    op: int
    seqno: int
    keys: np.ndarray
    values: np.ndarray  # empty for OP_DELETE / OP_SYNC

    @property
    def n_ops(self) -> int:
        """Logical operations this record accounts for (0 for a marker)."""
        return 0 if self.op == OP_SYNC else len(self.keys)


# ----------------------------------------------------------------------
# Encoding / decoding (pure byte-level functions; property-tested)
# ----------------------------------------------------------------------
def encode_record(
    op: int,
    seqno: int,
    keys: Optional[np.ndarray] = None,
    values: Optional[np.ndarray] = None,
) -> bytes:
    """One framed WAL record as bytes."""
    if op not in (OP_PUT, OP_DELETE, OP_SYNC):
        raise DurabilityError(f"unknown WAL op {op!r}")
    keys = np.zeros(0, dtype=np.int64) if keys is None else np.asarray(keys, dtype=np.int64)
    parts = [_PAYLOAD_HEAD.pack(op, seqno, len(keys)), keys.tobytes()]
    if op == OP_PUT:
        values = np.asarray(values, dtype=np.int64)
        if values.shape != keys.shape:
            raise DurabilityError(
                f"keys/values length mismatch: {keys.shape} vs {values.shape}"
            )
        parts.append(values.tobytes())
    payload = b"".join(parts)
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> Optional[WalRecord]:
    """Decode one frame payload; ``None`` when structurally invalid."""
    if len(payload) < _PAYLOAD_HEAD.size:
        return None
    op, seqno, n = _PAYLOAD_HEAD.unpack_from(payload)
    n_arrays = 2 if op == OP_PUT else 1 if op == OP_DELETE else 0
    if op not in (OP_PUT, OP_DELETE, OP_SYNC):
        return None
    if op == OP_SYNC and n != 0:
        return None
    expected = _PAYLOAD_HEAD.size + n_arrays * n * 8
    if len(payload) != expected:
        return None
    empty = np.zeros(0, dtype=np.int64)
    if n_arrays == 0:
        return WalRecord(op, seqno, empty, empty)
    off = _PAYLOAD_HEAD.size
    keys = np.frombuffer(payload, dtype="<i8", count=n, offset=off).astype(np.int64)
    if n_arrays == 1:
        return WalRecord(op, seqno, keys, empty)
    values = np.frombuffer(
        payload, dtype="<i8", count=n, offset=off + n * 8
    ).astype(np.int64)
    return WalRecord(op, seqno, keys, values)


def iter_wal_bytes(data: bytes) -> Iterator[Tuple[WalRecord, int]]:
    """Yield ``(record, end_offset)`` pairs until the first invalid frame.

    ``end_offset`` is the byte offset just past the yielded record, i.e.
    the length of the valid prefix so far.
    """
    offset = 0
    total = len(data)
    while True:
        if offset + _FRAME.size > total:
            return
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            return  # torn tail: frame runs past the file
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return  # corrupt frame: stop, keep the prefix
        record = _decode_payload(payload)
        if record is None:
            return
        yield record, end
        offset = end


def replay_wal_bytes(data: bytes) -> Tuple[List[WalRecord], int, bool]:
    """Decode a WAL byte string.

    Returns ``(records, valid_bytes, torn)``: the longest valid record
    prefix, how many bytes it spans, and whether trailing bytes were
    discarded (a torn or corrupt tail).
    """
    records: List[WalRecord] = []
    valid = 0
    for record, end in iter_wal_bytes(data):
        records.append(record)
        valid = end
    return records, valid, valid != len(data)


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
class WalWriter:
    """Appends framed records to one WAL segment file.

    ``append_*`` buffers the frame in the OS file object; :meth:`sync`
    writes an ``OP_SYNC`` marker then flushes and fsyncs — the ack
    boundary. Wall-clock cost of the file I/O is the caller's to meter
    (telemetry only); simulated cost is charged by the engine through
    :class:`~repro.storage.pager.DiskModel` exactly as before.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._fh = open(self.path, "ab")
        self.records_appended = 0
        self.bytes_appended = 0
        self.syncs = 0
        #: Highest seqno covered by an appended record (0 when none yet).
        self.max_seqno = 0
        #: Whether anything was appended since the last fsync.
        self._dirty = False

    def _append(self, frame: bytes, max_seqno: int) -> None:
        if self._fh.closed:
            raise DurabilityError(f"WAL {self.path} is closed")
        if faults.crash_hit("wal.torn"):
            # Injected torn write: only a prefix of the frame reaches the
            # file before the process dies.
            self._fh.write(frame[: max(1, len(frame) // 2)])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            faults.die()
        self._fh.write(frame)
        self._dirty = True
        self.records_appended += 1
        self.bytes_appended += len(frame)
        self.max_seqno = max(self.max_seqno, max_seqno)
        faults.maybe_crash("wal.append")

    def append_put(self, seqno: int, keys: np.ndarray, values: np.ndarray) -> None:
        self._append(
            encode_record(OP_PUT, seqno, keys, values), seqno + len(keys) - 1
        )

    def append_delete(self, seqno: int, keys: np.ndarray) -> None:
        self._append(
            encode_record(OP_DELETE, seqno, keys), seqno + len(keys) - 1
        )

    def sync(self, seqno: int) -> None:
        """Append an fsync-boundary marker and make everything durable.

        ``seqno`` is the last already-consumed sequence number — the ack
        watermark the marker certifies.
        """
        self._append(encode_record(OP_SYNC, seqno), seqno)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._dirty = False
        self.syncs += 1
        faults.maybe_crash("wal.sync")

    def close(self) -> None:
        """Close the segment; fsyncs only what no :meth:`sync` covered yet."""
        if not self._fh.closed:
            if self._dirty:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            self._fh.close()


class WalReader:
    """Reads one WAL segment, stopping at the first invalid frame."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        with open(self.path, "rb") as fh:
            data = fh.read()
        self.records, self.valid_bytes, self.torn = replay_wal_bytes(data)
        self.total_bytes = len(data)

    @property
    def last_synced_seqno(self) -> int:
        """Ack watermark of the newest sync marker in the segment (0 when
        the segment holds none)."""
        for record in reversed(self.records):
            if record.op == OP_SYNC:
                return record.seqno
        return 0

    @property
    def max_seqno(self) -> int:
        """Highest seqno covered by any valid record (0 when empty)."""
        top = 0
        for record in self.records:
            if record.op == OP_SYNC:
                top = max(top, record.seqno)
            elif record.n_ops:
                top = max(top, record.seqno + record.n_ops - 1)
        return top


def segment_path(directory: str, file_id: int) -> str:
    return os.path.join(directory, SEGMENT_FMT.format(file_id))


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(file_id, path)`` of every WAL segment in ``directory``, id order."""
    out: List[Tuple[int, str]] = []
    for name in os.listdir(directory):
        if name.startswith("wal-") and name.endswith(".log"):
            try:
                file_id = int(name[4:-4])
            except ValueError:
                continue
            out.append((file_id, os.path.join(directory, name)))
    return sorted(out)
