"""Deterministic crash-point injection for the durability layer.

The crash-recovery suite does not kill processes at random wall-clock
moments — CI needs the same crash every run. Instead the durable write
paths are instrumented with *named crash points*; a child process armed
via the ``REPRO_CRASH`` environment variable dies (``os._exit``, no
cleanup, no atexit — the closest a single process gets to ``kill -9``)
the *n*-th time a named point is reached::

    REPRO_CRASH="wal.append:3"       # die on the 3rd WAL record append
    REPRO_CRASH="manifest.swap:1"    # die between writing a new manifest
                                     # and swapping CURRENT

Format: ``point:n`` (1-based n; ``point`` alone means ``point:1``).
Multiple comma-separated specs may be armed at once; the first to reach
its count wins. Counting is per-process and starts at import, so a spec
is deterministic for a deterministic op stream.

Instrumented points (see DESIGN.md §13 for the write protocol they cut):

========================  ====================================================
``wal.append``            after a WAL record is fully buffered, before fsync
``wal.torn``              mid-append — only a prefix of the frame hits disk
``wal.sync``              after fsync, before the ack returns to the caller
``commit.before``         a flush/compaction commit is due; nothing written
``sst.partial``           mid-SSTable-write — a half-written orphan file
``commit.mid``            between two SSTables of one multi-file commit
``manifest.edit``         SSTables durable, before the manifest edit lands
``manifest.torn``         mid-manifest-append — a torn final edit record
``manifest.swap``         new MANIFEST written, before CURRENT is swapped
========================  ====================================================
"""

from __future__ import annotations

import os
from typing import IO, Dict

#: Exit status used by injected crashes; chosen to match the shell's code
#: for a SIGKILL-ed process so harnesses treat both uniformly.
CRASH_EXIT_CODE = 137

_counts: Dict[str, int] = {}


def _armed() -> Dict[str, int]:
    spec = os.environ.get("REPRO_CRASH", "")
    armed: Dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        point, _, nth = part.partition(":")
        armed[point] = int(nth) if nth else 1
    return armed


def reset_counts() -> None:
    """Forget per-point hit counts (tests re-arm within one process)."""
    _counts.clear()


def crash_hit(point: str) -> bool:
    """Record one hit of ``point``; ``True`` when the armed count is reached.

    Call sites use :func:`maybe_crash`, or :func:`tear` where the crash
    interrupts a write.
    """
    armed = _armed()
    if point not in armed:
        return False
    _counts[point] = _counts.get(point, 0) + 1
    return _counts[point] == armed[point]


def die() -> None:
    """Terminate immediately: no flushing, no atexit, no cleanup."""
    os._exit(CRASH_EXIT_CODE)


def maybe_crash(point: str) -> None:
    """Die mid-operation when ``point`` reaches its armed count."""
    if crash_hit(point):
        die()


def tear(fh: IO[bytes], data: bytes, point: str) -> None:
    """A torn write: when ``point`` reaches its armed count, only the first
    half of ``data`` reaches the disk before the process dies."""
    if crash_hit(point):
        fh.write(data[: max(1, len(data) // 2)])
        fh.flush()
        os.fsync(fh.fileno())
        die()
