"""Key-value entry conventions for the simulated store.

Keys and values are signed 64-bit integers. Real byte payloads are not
stored — the logical entry size ``E`` (``SystemConfig.entry_bytes``) drives
all capacity and I/O math, exactly as in the paper's analysis where only
``E``, ``B`` and counts matter. Deletions are encoded as a tombstone value.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Iterable, Sequence, Tuple

import numpy as np

#: Reserved value marking a deleted key. User values must not equal this.
TOMBSTONE: int = np.iinfo(np.int64).min

_COLLISION = (
    "value collides with the tombstone sentinel; "
    f"use a value other than {TOMBSTONE}"
)


def validate_value(value: int) -> int:
    """Reject user values that collide with the tombstone sentinel."""
    value = int(value)
    if value == TOMBSTONE:
        raise ValueError(_COLLISION)
    return value


def validate_keys(keys: np.ndarray) -> np.ndarray:
    """A key batch as a 1-D int64 array; any other shape is rejected."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 1:
        raise ValueError(f"a batch must be a 1-D array, got shape {keys.shape}")
    return keys


def validate_batch(
    keys: np.ndarray, values: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized :func:`validate_value`: ``(keys, values)`` as equal-length
    1-D int64 arrays, rejecting any value that collides with the tombstone."""
    keys = validate_keys(keys)
    values = np.asarray(values, dtype=np.int64)
    if values.shape != keys.shape:
        raise ValueError("keys and values must have equal length")
    if (values == TOMBSTONE).any():
        raise ValueError(_COLLISION)
    return keys, values


#: Entries per merge block. A constant, not a knob: wall time and peak memory
#: are flat between 2**15 and 2**17 (DESIGN.md §16).
MERGE_BLOCK = 1 << 16

Arrays = Sequence[np.ndarray]


def merge_block(
    key_arrays: Arrays,
    value_arrays: Arrays,
    drop_tombstones: bool = False,
    lo: "Iterable[int] | None" = None,
) -> Tuple[np.ndarray, ...]:
    """The single-block primitive: concat → stable argsort → group mask.

    Returns what :func:`merge_sorted_sources` does, with the origin columns
    when ``lo`` (where each array starts in its source) is given. It sorts,
    so it also takes unsorted arrays with duplicates: later entries win.
    """
    keys = np.concatenate(key_arrays)
    # Stable sort keeps the concatenation order within equal keys, so the
    # newest version of each key ends up last in its group.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    keep = np.empty(len(keys), dtype=bool)
    keep[:-1] = keys[1:] != keys[:-1]
    keep[-1] = True
    newest, keys = order[keep], keys[keep]
    del order, keep  # the values gather is the peak: hold no more than it needs
    columns = [keys, np.concatenate(value_arrays)[newest]]
    if lo is not None:
        # ``newest`` indexes the concatenation: label that with each array's
        # rank (the last array is 0), and undo each array's offset in it.
        sizes = [len(k) for k in key_arrays]
        ranks = np.arange(len(sizes) - 1, -1, -1, dtype=np.uint8)
        rank = np.repeat(ranks, sizes)[newest]
        shift = [end - size - at for end, size, at in zip(accumulate(sizes), sizes, lo)]
        columns += [rank, (newest - np.array(shift[::-1])[rank]).astype(np.int32)]
    if drop_tombstones:
        alive = columns[1] != TOMBSTONE
        columns = [column[alive] for column in columns]
    return tuple(columns)


def merge_sorted_sources(
    key_arrays: Arrays,
    value_arrays: Arrays,
    drop_tombstones: bool = False,
    origin: bool = False,
) -> Tuple[np.ndarray, ...]:
    """Merge sorted key/value arrays, newest-wins: ``(keys, values)``.

    **Contract** (stated here, once): each ``key_arrays[j]`` is int64, sorted
    and duplicate-free — the blocks below are cut by binary search — and
    arrays later in the list are newer and win duplicate keys. The output is
    sorted by key with unique keys; ``drop_tombstones`` (merging into the
    bottom of the tree) removes deleted keys from it. ``origin`` adds two
    columns saying where each output entry came from: ``rank`` (uint8), how
    many newer arrays follow its source (0 is ``key_arrays[-1]``), and
    ``positions`` (int32), its index there.

    Every source is cut at quantiles of the widest one and each key-range
    block goes through :func:`merge_block` into a preallocated output that
    is shrunk in place, so the transient working set is a block, not the
    input. At most two blocks of input run the primitive once, directly.
    """
    if len(key_arrays) != len(value_arrays):
        raise ValueError("key_arrays and value_arrays must have equal length")
    total = sum(len(k) for k in key_arrays)
    dtypes = (np.int64, np.int64, np.uint8, np.int32)[: 4 if origin else 2]
    if total == 0:
        return tuple(np.zeros(0, dtype=dtype) for dtype in dtypes)
    if total <= 2 * MERGE_BLOCK:
        return merge_block(key_arrays, value_arrays, drop_tombstones, repeat(0) if origin else None)
    widest = max(key_arrays, key=len)
    n_blocks = min(len(widest), -(-total // MERGE_BLOCK))
    splitters = widest[np.arange(1, n_blocks) * len(widest) // n_blocks]
    cuts = np.array([[0, *k.searchsorted(splitters), len(k)] for k in key_arrays])
    out = [np.empty(total, dtype=dtype) for dtype in dtypes]
    filled = 0
    for b in range(n_blocks):
        lo, hi = cuts[:, b], cuts[:, b + 1]
        block = merge_block(
            [k[i:j] for k, i, j in zip(key_arrays, lo, hi)],
            [v[i:j] for v, i, j in zip(value_arrays, lo, hi)],
            drop_tombstones,
            lo if origin else None,
        )
        end = filled + len(block[0])
        for column, part in zip(out, block):
            column[filled:end] = part
        filled = end
    for column in out:  # nothing else refers to them yet: shrink in place
        column.resize(filled, refcheck=False)
    return tuple(out)
