"""Key-value entry conventions for the simulated store.

Keys and values are signed 64-bit integers. Real byte payloads are not
stored — the logical entry size ``E`` (``SystemConfig.entry_bytes``) drives
all capacity and I/O math, exactly as in the paper's analysis where only
``E``, ``B`` and counts matter. Deletions are encoded as a tombstone value.
"""

from __future__ import annotations

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


def validate_batch(
    keys: np.ndarray, values: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized :func:`validate_value`: ``(keys, values)`` as equal-length
    int64 arrays, rejecting any value that collides with the tombstone."""
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if len(keys) != len(values):
        raise ValueError("keys and values must have equal length")
    if (values == TOMBSTONE).any():
        raise ValueError(_COLLISION)
    return keys, values


def merge_sorted_sources(
    key_arrays: "list[np.ndarray]",
    value_arrays: "list[np.ndarray]",
    drop_tombstones: bool = False,
) -> "tuple[np.ndarray, np.ndarray]":
    """Merge sorted key/value arrays, newest-wins, ordered oldest → newest.

    ``key_arrays[j]`` must be sorted and duplicate-free; arrays later in the
    list take precedence for duplicate keys (they are "newer"). When
    ``drop_tombstones`` is true (merging into the bottom level of the tree),
    deleted keys are removed from the output entirely.

    Returns ``(keys, values)`` sorted by key with unique keys.
    """
    if len(key_arrays) != len(value_arrays):
        raise ValueError("key_arrays and value_arrays must have equal length")
    non_empty = [
        (k, v) for k, v in zip(key_arrays, value_arrays) if len(k) > 0
    ]
    if not non_empty:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    keys = np.concatenate([k for k, _ in non_empty]).astype(np.int64, copy=False)
    values = np.concatenate([v for _, v in non_empty]).astype(np.int64, copy=False)
    # Stable sort keeps the concatenation order within equal keys, so the
    # newest version of each key ends up last in its group.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values = values[order]
    keep = np.empty(len(keys), dtype=bool)
    keep[:-1] = keys[1:] != keys[:-1]
    keep[-1] = True
    keys = keys[keep]
    values = values[keep]
    if drop_tombstones:
        alive = values != TOMBSTONE
        keys = keys[alive]
        values = values[alive]
    return keys, values
