"""Simulated disk with page-granularity cost accounting.

:class:`DiskModel` is the substitute for the paper's NVMe SSD accessed with
direct I/O. It does not store page contents (run data lives in numpy arrays
owned by the runs themselves); it *prices* page accesses and keeps the I/O
counters that the statistics collector and the RL state vector consume.

Random reads model point-lookup page fetches (the paper's ``I_r``); sequential
reads and writes model compaction traffic, which streams large sorted runs.
Nothing issues random writes (``I_w``): that counter stays for the snapshot layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CostModelParams
from repro.errors import StorageError
from repro.storage.cache import LRUBlockCache
from repro.storage.clock import SimClock


@dataclass
class IOCounters:
    """Cumulative page-level I/O counts."""

    random_reads: int = 0
    random_writes: int = 0
    seq_reads: int = 0
    seq_writes: int = 0

    @property
    def total_reads(self) -> int:
        return self.random_reads + self.seq_reads

    @property
    def total_writes(self) -> int:
        return self.random_writes + self.seq_writes

    @property
    def total(self) -> int:
        return self.total_reads + self.total_writes

    def snapshot(self) -> "IOCounters":
        """An independent copy of the current counters."""
        return IOCounters(
            random_reads=self.random_reads,
            random_writes=self.random_writes,
            seq_reads=self.seq_reads,
            seq_writes=self.seq_writes,
        )

    def __add__(self, other: "IOCounters") -> "IOCounters":
        """Field-wise sum (how counters of independent shards aggregate)."""
        return IOCounters(
            random_reads=self.random_reads + other.random_reads,
            random_writes=self.random_writes + other.random_writes,
            seq_reads=self.seq_reads + other.seq_reads,
            seq_writes=self.seq_writes + other.seq_writes,
        )

    def diff(self, earlier: "IOCounters") -> "IOCounters":
        """Counters accumulated since ``earlier`` (an older snapshot)."""
        return IOCounters(
            random_reads=self.random_reads - earlier.random_reads,
            random_writes=self.random_writes - earlier.random_writes,
            seq_reads=self.seq_reads - earlier.seq_reads,
            seq_writes=self.seq_writes - earlier.seq_writes,
        )


class DiskModel:
    """Prices page accesses on the simulated device and advances the clock.

    Each accessor returns the simulated seconds charged so that callers can
    attribute the cost to a specific LSM level.
    """

    def __init__(
        self,
        costs: CostModelParams,
        clock: SimClock,
        cache: LRUBlockCache | None = None,
    ) -> None:
        self._costs = costs
        self._clock = clock
        self._cache = cache if cache is not None else LRUBlockCache(0)
        self.counters = IOCounters()

    @property
    def cache(self) -> LRUBlockCache:
        return self._cache

    @property
    def clock(self) -> SimClock:
        return self._clock

    # ------------------------------------------------------------------
    # Point I/O (lookups)
    # ------------------------------------------------------------------
    def random_read_batch(self, run_id: int, page_indices) -> float:
        """Read several pages of one run; returns total charged seconds.

        Cached pages cost nothing. With no cache configured, the whole
        batch is priced in one step. With a cache, the batch runs through
        :meth:`LRUBlockCache.access_batch`, and the clock/total accumulate
        by repeated per-miss addition (:meth:`SimClock.advance_repeated`)
        so simulated charges are bit-identical to charging page by page.
        """
        n = len(page_indices)
        if n == 0:
            return 0.0
        if self._cache.capacity == 0:
            self._cache.misses += n
            self.counters.random_reads += n
            cost = n * self._costs.random_read_s
            self._clock.advance(cost)
            return cost
        pages = np.asarray(page_indices)
        if pages.size and int(pages.min()) < 0:
            raise StorageError(
                f"page_index must be >= 0, got {int(pages.min())}"
            )
        hits = self._cache.access_batch(run_id, pages.tolist())
        misses = n - hits
        self.counters.random_reads += misses
        return self._clock.advance_repeated(self._costs.random_read_s, misses)

    # ------------------------------------------------------------------
    # Streaming I/O (flush / compaction)
    # ------------------------------------------------------------------
    def sequential_read(self, n_pages: int) -> float:
        """Stream-read ``n_pages`` pages (compaction input)."""
        if n_pages < 0:
            raise StorageError(f"n_pages must be >= 0, got {n_pages}")
        self.counters.seq_reads += n_pages
        cost = n_pages * self._costs.seq_read_s
        self._clock.advance(cost)
        return cost

    def sequential_write(self, n_pages: int) -> float:
        """Stream-write ``n_pages`` pages (flush or compaction output)."""
        if n_pages < 0:
            raise StorageError(f"n_pages must be >= 0, got {n_pages}")
        self.counters.seq_writes += n_pages
        cost = n_pages * self._costs.seq_write_s
        self._clock.advance(cost)
        return cost

    # ------------------------------------------------------------------
    # CPU work (still advances the simulated clock)
    # ------------------------------------------------------------------
    def probe_cpu(self, n_runs: int = 1) -> float:
        """CPU cost of probing the metadata of ``n_runs`` sorted runs
        (the paper's ``c_r``)."""
        if n_runs < 0:
            raise StorageError(f"n_runs must be >= 0, got {n_runs}")
        cost = n_runs * self._costs.run_probe_cpu_s
        self._clock.advance(cost)
        return cost

    def compaction_cpu(self, n_entries: int) -> float:
        """CPU cost of merge-sorting ``n_entries`` entries (the paper's
        ``c_w``)."""
        if n_entries < 0:
            raise StorageError(f"n_entries must be >= 0, got {n_entries}")
        cost = n_entries * self._costs.compaction_entry_cpu_s
        self._clock.advance(cost)
        return cost

    def drop_run(self, run_id: int) -> None:
        """Forget cached pages of a run deleted by compaction."""
        self._cache.invalidate_run(run_id)
