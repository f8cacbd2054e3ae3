"""The framed log both the WAL and the manifest are written as.

Log format (all integers little-endian)::

    log   := frame*
    frame := u32 payload_len | u32 crc32(payload) | payload

A log knows nothing of its payloads: the WAL's are binary records
(:mod:`repro.durable.wal`), the manifest's JSON whole-state records
(:mod:`repro.durable.manifest`). A reader walks frames from the front and
stops at the first one that runs past the data or fails its CRC, so what
it yields is always a prefix of what was appended: a writer that died
mid-append costs at most the frame it was writing.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterator, Tuple

from repro.durable import faults
from repro.errors import DurabilityError

_HEADER = struct.Struct("<II")


def frame(payload: bytes) -> bytes:
    """``payload`` framed with its length and CRC."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def iter_frames(data: bytes) -> Iterator[Tuple[bytes, int]]:
    """Yield ``(payload, end)`` for each whole, CRC-clean frame of ``data``
    — ``end`` is the offset just past it — until the first that is not."""
    offset = 0
    while offset + _HEADER.size <= len(data):
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        offset = start + length
        if offset > len(data):
            return  # torn tail: the frame runs past the data
        payload = data[start:offset]
        if zlib.crc32(payload) != crc:
            return  # corrupt frame: keep the prefix before it
        yield payload, offset


class LogAppender:
    """The one long-lived write handle on a log file.

    :meth:`append` buffers a frame, :meth:`sync` makes every appended
    frame durable, :meth:`close` fsyncs only what no :meth:`sync` covered.
    ``torn_point`` names the fault-injection point that tears an append.
    """

    def __init__(self, path: str, torn_point: str) -> None:
        self.path = os.fspath(path)
        self._fh = open(self.path, "ab")
        self._torn_point = torn_point
        self.bytes_appended = 0
        #: Whether anything was appended since the last fsync.
        self._dirty = False

    def append(self, payload: bytes) -> None:
        if self._fh.closed:
            raise DurabilityError(f"log {self.path} is closed")
        data = frame(payload)
        faults.tear(self._fh, data, self._torn_point)
        self._fh.write(data)
        self._dirty = True
        self.bytes_appended += len(data)

    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._dirty = False

    def close(self) -> None:
        if not self._fh.closed:
            if self._dirty:
                self.sync()
            self._fh.close()
