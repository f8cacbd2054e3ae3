"""Sorted runs: the on-disk unit of an LSM level.

A :class:`SortedRun` owns a sorted, duplicate-free array of keys with their
values, a Bloom filter sized for the level's false-positive rate, and
implicit fence pointers (one per page: the page of a key is simply its rank
divided by entries-per-page, which models the per-page min-key index real
systems keep in memory).

Runs are *immutable once sealed*. The active run of a level is replaced
wholesale on every merge (the merge cost is charged by the tree); its
``capacity_entries`` attribute is the only mutable piece of metadata, which
is exactly what the paper's flexible transition adjusts.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.config import BloomMode
from repro.bloom.filter import AnalyticalBloomFilter, BitArrayBloomFilter
from repro.errors import TreeStateError

BloomFilter = Union[BitArrayBloomFilter, AnalyticalBloomFilter]


class SortedRun:
    """An immutable sorted run with Bloom filter and fence pointers."""

    __slots__ = (
        "run_id",
        "level_no",
        "keys",
        "values",
        "fpr",
        "capacity_entries",
        "sealed",
        "_bloom",
        "_entries_per_page",
    )

    def __init__(
        self,
        run_id: int,
        level_no: int,
        keys: np.ndarray,
        values: np.ndarray,
        fpr: float,
        capacity_entries: int,
        entries_per_page: int,
        bloom_mode: BloomMode,
        rng: np.random.Generator,
        sealed: bool = False,
    ) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.shape != values.shape:
            raise TreeStateError(
                f"keys/values length mismatch: {keys.shape} vs {values.shape}"
            )
        if len(keys) > 1 and not bool(np.all(keys[1:] > keys[:-1])):
            raise TreeStateError("run keys must be strictly increasing")
        if entries_per_page < 1:
            raise TreeStateError(
                f"entries_per_page must be >= 1, got {entries_per_page}"
            )
        self.run_id = run_id
        self.level_no = level_no
        self.keys = keys
        self.values = values
        self.fpr = float(fpr)
        self.capacity_entries = int(capacity_entries)
        self.sealed = sealed
        self._entries_per_page = entries_per_page
        if bloom_mode is BloomMode.BIT_ARRAY:
            self._bloom: BloomFilter = BitArrayBloomFilter(keys, fpr, salt=run_id)
        else:
            self._bloom = AnalyticalBloomFilter(keys, fpr, rng)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        return len(self.keys)

    @property
    def n_pages(self) -> int:
        if self.n_entries == 0:
            return 0
        return -(-self.n_entries // self._entries_per_page)

    @property
    def entries_per_page(self) -> int:
        """Entries per fence-pointer page (the page of rank ``r`` is
        ``r // entries_per_page``); used by the stacked level index to
        compute page indices without a per-run binary search."""
        return self._entries_per_page

    @property
    def is_empty(self) -> bool:
        return self.n_entries == 0

    @property
    def is_at_capacity(self) -> bool:
        return self.n_entries >= self.capacity_entries

    def seal(self) -> None:
        """Mark the run immutable; further policy changes never touch it."""
        self.sealed = True

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------
    def bloom_positive_batch(
        self, keys: np.ndarray, present: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Whether the Bloom filter directs a disk probe, per key.

        ``present`` is an optional exact-membership mask (from the stacked
        level index); the analytical filter uses it to skip its internal
        binary search while drawing false positives bit-identically, the
        bit-array filter ignores it.
        """
        return self._bloom.might_contain_batch(keys, present=present)

    # ------------------------------------------------------------------
    # Pickling: a bit-array filter is a pure function of (keys, fpr,
    # run_id), rebuilt bit-identically on load rather than written; the
    # analytical one is a reference to the owning tree's RNG
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = {name: getattr(self, name) for name in self.__slots__}
        if isinstance(self._bloom, BitArrayBloomFilter):
            state["_bloom"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        if self._bloom is None:
            self._bloom = BitArrayBloomFilter(self.keys, self.fpr, salt=self.run_id)

    def __repr__(self) -> str:
        state = "sealed" if self.sealed else "active"
        return (
            f"SortedRun(id={self.run_id}, level={self.level_no}, "
            f"entries={self.n_entries}/{self.capacity_entries}, {state})"
        )
