"""In-memory write buffer.

New writes land here; when the buffer holds ``capacity_entries`` entries it
is sorted and flushed into Level 1 as (part of) a sorted run. Deletions are
buffered as tombstones so they can shadow older on-disk versions.

Batch lookups run against a **lazily-built sorted view** of the buffer
(parallel key/value arrays sorted by key). The view is built at most once
per write generation: any mutation (:meth:`MemTable.put_batch`,
:meth:`MemTable.clear`) invalidates it, and the next batch read rebuilds
it; a pickle leaves it out. Read-heavy phases therefore pay the
``O(M log M)`` sort once instead of on every ``get_batch``, and
:meth:`MemTable.drain_sorted` reuses a still-valid view instead of
re-sorting at flush time.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError


class MemTable:
    """A bounded, mutable key-value buffer with newest-wins semantics."""

    __slots__ = ("_capacity", "_entries", "_sorted_view")

    def __init__(self, capacity_entries: int) -> None:
        if capacity_entries < 1:
            raise ConfigError(
                f"memtable capacity must be >= 1, got {capacity_entries}"
            )
        self._capacity = capacity_entries
        self._entries: Dict[int, int] = {}
        #: Cached ``(sorted_keys, values)`` arrays, or ``None`` when stale.
        self._sorted_view: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def capacity_entries(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self._capacity

    def put_batch(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Bulk-insert a prefix of ``keys``/``values``; returns its length.

        The one write entry: a delete is a write of ``TOMBSTONE``, and an
        overwrite does not consume capacity. Inserts stop (and the consumed
        count is returned) as soon as the buffer reaches capacity, so
        callers flush and re-offer the rest — exactly the flush boundaries
        a per-key insert loop would hit.
        A prefix that provably cannot fill the buffer (shorter than the
        free-slot count even if every key is new) is applied as one dict
        update with no per-key bookkeeping; only the last key(s) before a
        flush fall back to per-key inserts, because with duplicate keys in
        play the exact fill point is only observable one insert at a time.
        Values are NOT validated here; ``LSMTree.put_batch`` validates
        the whole batch up front.
        """
        self._sorted_view = None
        n = len(keys)
        room = self._capacity - len(self._entries)
        if n < room:
            self._entries.update(zip(keys.tolist(), values.tolist()))
            return n
        if room > 1:
            bulk = room - 1
            self._entries.update(
                zip(keys[:bulk].tolist(), values[:bulk].tolist())
            )
            return bulk
        entries = self._entries
        consumed = 0
        for key, value in zip(keys.tolist(), values.tolist()):
            entries[key] = value
            consumed += 1
            if len(entries) >= self._capacity:
                break
        return consumed

    def get(self, key: int) -> Optional[int]:
        """Latest buffered value for ``key`` (may be ``TOMBSTONE``), else
        ``None`` if the key is not buffered at all."""
        return self._entries.get(int(key))

    def _build_sorted_view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialize (and cache) the buffer as key-sorted arrays."""
        m = len(self._entries)
        mk = np.fromiter(self._entries.keys(), dtype=np.int64, count=m)
        mv = np.fromiter(self._entries.values(), dtype=np.int64, count=m)
        order = np.argsort(mk, kind="stable")
        view = (mk[order], mv[order])
        self._sorted_view = view
        return view

    def sorted_view(self) -> Tuple[np.ndarray, np.ndarray]:
        """The buffer as key-sorted ``(keys, values)`` arrays.

        Builds (and caches) the view when stale; a valid view is returned
        as-is. Callers must treat the arrays as immutable — they are
        shared with every other reader until the next write invalidates
        the cache. Tombstones are included.
        """
        view = self._sorted_view
        if view is None:
            view = self._build_sorted_view()
        return view

    def get_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`get` over an int64 key array.

        Returns ``(buffered_mask, values)`` aligned with ``keys``:
        ``buffered_mask[i]`` is ``True`` when ``keys[i]`` is buffered at all
        (``values[i]`` then holds its value, which may be ``TOMBSTONE``).

        A valid cached sorted view is always used (``O(B log M)`` binary
        search, no rebuild). With a stale view, a batch smaller than the
        buffer falls back to one bulk pass of dict probes — ``O(B)`` and
        cheaper than re-sorting for a single batch — while a buffer-sized
        batch (re)builds and caches the view, so consecutive batch reads
        against an unchanged buffer sort at most once.
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = len(keys)
        buffered = np.zeros(n, dtype=bool)
        values = np.zeros(n, dtype=np.int64)
        m = len(self._entries)
        if n == 0 or m == 0:
            return buffered, values
        view = self._sorted_view
        if view is None:
            if m > n:
                get = self._entries.get
                for i, key in enumerate(keys.tolist()):
                    value = get(key)
                    if value is not None:
                        buffered[i] = True
                        values[i] = value
                return buffered, values
            view = self._build_sorted_view()
        mk, mv = view
        pos = np.searchsorted(mk, keys)
        clamped = np.minimum(pos, m - 1)
        buffered = mk[clamped] == keys
        values[buffered] = mv[clamped[buffered]]
        return buffered, values

    def drain_sorted(self) -> Tuple[np.ndarray, np.ndarray]:
        """Empty the buffer and return its contents sorted by key.

        Tombstones are retained in the output: they must be persisted so they
        can shadow older versions further down the tree. A still-valid sorted
        view is handed over as-is (ownership transfers — the cache slot is
        cleared with the buffer), skipping the flush-time re-sort.
        """
        if not self._entries:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        view = self._sorted_view
        if view is None:
            view = self._build_sorted_view()
        self._sorted_view = None
        self._entries.clear()
        return view

    def clear(self) -> None:
        self._entries.clear()
        self._sorted_view = None

    def __getstate__(self) -> tuple:
        # The sorted view is derived: a loaded buffer rebuilds it on demand.
        return None, {"_capacity": self._capacity, "_entries": self._entries, "_sorted_view": None}
