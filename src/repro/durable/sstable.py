"""Binary SSTable files mapping 1:1 onto in-memory :class:`SortedRun` s.

File layout (all integers little-endian)::

    header      : magic "RSST" | u32 version | u32 header_len
                  u32 level_no | u64 run_id | u64 n_entries
                  u32 entries_per_page | u8 sealed
                  f64 fpr | u64 capacity_entries
    keys block  : int64[n_entries]            (sorted, strictly increasing)
    values block: int64[n_entries]            (TOMBSTONE encodes deletes)
    footer      : u32 crc32(everything before the footer) | magic "TSSR"

A table holds what recovery reads and nothing else. Reads are served
from the in-memory runs, so the file is a recovery mirror, not a read
path: no fence-pointer index is stored (fences are implicit,
``page = rank // entries_per_page``) and no filter is stored (the
filter is a pure function of ``(keys, fpr, run_id)``, rebuilt on open,
which keeps recovered stores bit-identical to never-crashed ones).
Integrity is the footer CRC's job. The blocks are plain contiguous
arrays, read straight into the dtype the run uses in memory.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from repro.config import BloomMode
from repro.durable import faults
from repro.durable.atomio import atomic_file
from repro.errors import DurabilityError
from repro.lsm.run import SortedRun

MAGIC = b"RSST"
FOOTER_MAGIC = b"TSSR"
VERSION = 2

_HEADER = struct.Struct("<4sIIIQQIBdQ")
_FOOTER = struct.Struct("<I4s")

#: ``sst-%08d-L%02d.sst`` — run ``run_id`` installed at level ``level_no``.
FILE_FMT = "sst-{:08d}-L{:02d}.sst"


def sstable_path(directory: str, run_id: int, level_no: int) -> str:
    return os.path.join(directory, FILE_FMT.format(run_id, level_no))


def write_sstable(path: str, run: SortedRun) -> int:
    """Serialize ``run`` to ``path``; returns the file size in bytes.

    Published through :func:`repro.durable.atomio.atomic_file`
    (tmp → fsync → rename → directory fsync), so a crash mid-write
    leaves at worst an orphan temp file, never a half-written table
    under a live name (recovery deletes orphans), and the publish
    itself survives the crash once this returns.
    """
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _HEADER.size,
        run.level_no,
        run.run_id,
        run.n_entries,
        run.entries_per_page,
        1 if run.sealed else 0,
        run.fpr,
        run.capacity_entries,
    )
    body = b"".join([
        header,
        np.ascontiguousarray(run.keys, dtype="<i8").tobytes(),
        np.ascontiguousarray(run.values, dtype="<i8").tobytes(),
    ])
    footer = _FOOTER.pack(zlib.crc32(body), FOOTER_MAGIC)

    with atomic_file(path) as fh:
        # Injected mid-write crash: half the body, no footer, no rename.
        faults.tear(fh, body, "sst.partial")
        fh.write(body)
        fh.write(footer)
    return len(body) + len(footer)


def read_sstable(
    path: str,
    bloom_mode: BloomMode,
    rng: np.random.Generator,
) -> SortedRun:
    """Open an SSTable, verify it, and rebuild its :class:`SortedRun`.

    ``bloom_mode``/``rng`` come from the owning tree's configuration so
    the rebuilt filter is identical to the one the writer held. Raises
    :class:`DurabilityError` on any structural damage — a live table
    (one named by the manifest) must never be torn; torn *temp* files
    are garbage-collected before this is called.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size + _FOOTER.size:
        raise DurabilityError(f"SSTable {path}: file too short ({len(data)} bytes)")
    (
        magic,
        version,
        header_len,
        level_no,
        run_id,
        n_entries,
        entries_per_page,
        sealed,
        fpr,
        capacity_entries,
    ) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise DurabilityError(f"SSTable {path}: bad magic {magic!r}")
    if version != VERSION:
        raise DurabilityError(f"SSTable {path}: unsupported version {version}")
    if header_len != _HEADER.size:
        raise DurabilityError(f"SSTable {path}: bad header length {header_len}")
    footer_off = _HEADER.size + 16 * n_entries
    if footer_off + _FOOTER.size != len(data):
        raise DurabilityError(
            f"SSTable {path}: truncated (expected {footer_off + _FOOTER.size} "
            f"bytes, found {len(data)})"
        )
    crc, footer_magic = _FOOTER.unpack_from(data, footer_off)
    if footer_magic != FOOTER_MAGIC:
        raise DurabilityError(f"SSTable {path}: bad footer magic {footer_magic!r}")
    if zlib.crc32(data[:footer_off]) != crc:
        raise DurabilityError(f"SSTable {path}: CRC mismatch")

    keys = np.frombuffer(data, dtype="<i8", count=n_entries, offset=_HEADER.size)
    values = np.frombuffer(
        data, dtype="<i8", count=n_entries, offset=_HEADER.size + keys.nbytes
    )
    return SortedRun(
        run_id=int(run_id),
        level_no=int(level_no),
        keys=keys.astype(np.int64),
        values=values.astype(np.int64),
        fpr=float(fpr),
        capacity_entries=int(capacity_entries),
        entries_per_page=int(entries_per_page),
        bloom_mode=bloom_mode,
        rng=rng,
        sealed=bool(sealed),
    )
