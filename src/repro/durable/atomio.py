"""Atomic, durable file publishes: tmp → fsync → ``os.replace`` → dir fsync.

Every file *publish* in the durability chain (SSTables, a one-record
``MANIFEST``, persist snapshots) must be atomic **and** durable:

1. the bytes are written to a sibling temp file,
2. the temp file is flushed and ``os.fsync``'d — its contents are on
   disk before any live name can point at them,
3. ``os.replace`` renames it into place — readers see the old file or
   the whole new file, never a torn one,
4. the containing directory is fsync'd — without this the *rename
   itself* may not survive a crash, resurrecting the old file (or, for
   a first publish, no file at all) after recovery.

This module owns that sequence. CI's durable-publish greps hold the
rest of ``durable/`` and ``persist/`` to it: ``os.replace`` appears only
here, ``os.rename`` nowhere, and a write-mode ``open`` or an ``os.fsync``
only here, in the log appender and in the fault injector (DESIGN.md §13,
§14).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import IO


def fsync_dir(directory: str) -> None:
    """fsync a directory so a rename/create inside it is durable.

    Directory fds are a POSIX notion; on platforms where opening a
    directory fails (Windows), the fsync is skipped — the rename is
    still atomic there, just not guaranteed ordered with the crash.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def atomic_file(
    path: str,
    mode: str = "wb",
    encoding: str | None = None,
    suffix: str = ".tmp",
    before_replace: Callable[[], None] | None = None,
) -> Iterator[IO]:
    """Write ``path`` atomically: yield a temp-file handle; on clean exit
    flush + fsync it, then ``os.replace`` it over ``path`` and fsync the
    directory.

    If the body raises, the temp file is removed and nothing is
    published. ``before_replace`` is a hook invoked after the temp file
    is durable but before the rename — the durability fault-injection
    points (:mod:`repro.durable.faults`) hang there.
    """
    tmp = path + suffix
    fh = open(tmp, mode, encoding=encoding)
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
    except BaseException:
        fh.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    finally:
        if not fh.closed:
            fh.close()
    if before_replace is not None:
        before_replace()
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(os.path.abspath(path)))


def publish_bytes(path: str, data: bytes, suffix: str = ".tmp") -> None:
    """Publish ``data`` at ``path`` via :func:`atomic_file`."""
    with atomic_file(path, "wb", suffix=suffix) as fh:
        fh.write(data)
