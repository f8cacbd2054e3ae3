"""Binary SSTable files mapping 1:1 onto in-memory :class:`SortedRun` s.

File layout (all integers little-endian; offsets from the file start)::

    header      : magic "RSST" | u32 version | u32 header_len
                  u32 level_no | u64 run_id | u64 n_entries
                  u32 entries_per_page | u8 bloom_mode | u8 sealed
                  f64 fpr | u64 capacity_entries
                  u64 keys_off | u64 values_off | u64 index_off
                  u64 bloom_off | u64 bloom_bits | u64 footer_off
    keys block  : int64[n_entries]            (sorted, strictly increasing)
    values block: int64[n_entries]            (TOMBSTONE encodes deletes)
    index block : int64[n_pages]              (fence pointers: min key/page)
    bloom block : packed bits (np.packbits)   (empty under ANALYTICAL mode)
    footer      : u32 crc32(everything before the footer) | magic "TSSR"

Blocks are plain contiguous arrays so a reader can ``np.fromfile`` (or
mmap) each one straight into the dtype it already uses in memory — no
row-by-row decode. The bloom block serializes the
:class:`~repro.bloom.filter.BitArrayBloomFilter` bit array for format
fidelity and offline inspection, but the in-memory run **rebuilds** its
filter from the keys on open (the filter is a pure function of
``(keys, fpr, run_id)``), which keeps recovered stores bit-identical to
never-crashed ones; the block's length is cross-checked instead.

The index block is likewise derivable (fence pointers are implicit:
``page = rank // entries_per_page``) and is cross-checked on read.
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
VERSION = 1

_HEADER = struct.Struct("<4sIIIQQIBBdQQQQQQQ")
_FOOTER = struct.Struct("<I4s")

_BLOOM_MODE_CODES = {BloomMode.BIT_ARRAY: 0, BloomMode.ANALYTICAL: 1}

#: ``sst-%08d-L%02d.sst`` — run ``run_id`` installed at level ``level_no``.
FILE_FMT = "sst-{:08d}-L{:02d}.sst"


def sstable_path(directory: str, run_id: int, level_no: int) -> str:
    return os.path.join(directory, FILE_FMT.format(run_id, level_no))


def _fence_pointers(keys: np.ndarray, entries_per_page: int) -> np.ndarray:
    """Min key of each fence-pointer page (empty for an empty run)."""
    if len(keys) == 0:
        return np.zeros(0, dtype=np.int64)
    return keys[::entries_per_page].astype(np.int64, copy=True)


def _bloom_block(run: SortedRun) -> "tuple[bytes, int]":
    """``(packed_bits, n_bits)`` for the run's filter (empty when the
    analytical filter is in use — it has no bit array to serialize)."""
    bloom = run._bloom
    bits = getattr(bloom, "_bits", None)
    if bits is None or len(bits) == 0:
        return b"", 0
    return np.packbits(bits).tobytes(), len(bits)


def write_sstable(path: str, run: SortedRun) -> int:
    """Serialize ``run`` to ``path``; returns the file size in bytes.

    Published through :func:`repro.durable.atomio.atomic_file`
    (tmp → fsync → rename → directory fsync), so a crash mid-write
    leaves at worst an orphan temp file, never a half-written table
    under a live name (recovery deletes orphans), and the publish
    itself survives the crash once this returns.
    """
    keys = np.ascontiguousarray(run.keys, dtype="<i8")
    values = np.ascontiguousarray(run.values, dtype="<i8")
    index = _fence_pointers(run.keys, run.entries_per_page).astype("<i8")
    bloom_bytes, bloom_bits = _bloom_block(run)
    bloom_mode = (
        BloomMode.BIT_ARRAY
        if run._bloom.__class__.__name__ == "BitArrayBloomFilter"
        else BloomMode.ANALYTICAL
    )

    keys_off = _HEADER.size
    values_off = keys_off + keys.nbytes
    index_off = values_off + values.nbytes
    bloom_off = index_off + index.nbytes
    footer_off = bloom_off + len(bloom_bytes)

    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _HEADER.size,
        run.level_no,
        run.run_id,
        run.n_entries,
        run.entries_per_page,
        _BLOOM_MODE_CODES[bloom_mode],
        1 if run.sealed else 0,
        run.fpr,
        run.capacity_entries,
        keys_off,
        values_off,
        index_off,
        bloom_off,
        bloom_bits,
        footer_off,
    )
    body = b"".join(
        [header, keys.tobytes(), values.tobytes(), index.tobytes(), bloom_bytes]
    )
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
        bloom_code,
        sealed,
        fpr,
        capacity_entries,
        keys_off,
        values_off,
        index_off,
        bloom_off,
        bloom_bits,
        footer_off,
    ) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise DurabilityError(f"SSTable {path}: bad magic {magic!r}")
    if version != VERSION:
        raise DurabilityError(f"SSTable {path}: unsupported version {version}")
    if header_len != _HEADER.size:
        raise DurabilityError(f"SSTable {path}: bad header length {header_len}")
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
    if bloom_code not in _BLOOM_MODE_CODES.values():
        raise DurabilityError(f"SSTable {path}: unknown bloom mode {bloom_code}")

    keys = np.frombuffer(data, dtype="<i8", count=n_entries, offset=keys_off)
    values = np.frombuffer(data, dtype="<i8", count=n_entries, offset=values_off)
    n_pages = -(-n_entries // entries_per_page) if n_entries else 0
    index = np.frombuffer(data, dtype="<i8", count=n_pages, offset=index_off)
    expected_index = _fence_pointers(
        keys.astype(np.int64), entries_per_page
    )
    if not np.array_equal(index, expected_index):
        raise DurabilityError(f"SSTable {path}: fence-pointer index mismatch")

    run = SortedRun(
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
    if bloom_mode is BloomMode.BIT_ARRAY:
        rebuilt_bytes, rebuilt_bits = _bloom_block(run)
        stored = data[bloom_off : bloom_off + len(rebuilt_bytes)]
        if rebuilt_bits != bloom_bits or stored != rebuilt_bytes:
            raise DurabilityError(f"SSTable {path}: bloom block mismatch")
    return run
