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

from dataclasses import dataclass, replace

import numpy as np

from repro.config import CostModelParams
from repro.errors import StorageError
from repro.storage.cache import PAGE_LIMIT, LRUBlockCache
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
        return replace(self)

    def __add__(self, other: "IOCounters") -> "IOCounters":
        """Field-wise sum (how counters of independent shards aggregate)."""
        return IOCounters(*(a + b for a, b in zip(vars(self).values(), vars(other).values())))

    def diff(self, earlier: "IOCounters") -> "IOCounters":
        """Counters accumulated since ``earlier`` (an older snapshot)."""
        return IOCounters(*(a - b for a, b in zip(vars(self).values(), vars(earlier).values())))


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
            return self._charge(n, self._costs.random_read_s, "n")
        pages = np.asarray(page_indices)
        low, high = int(pages.min()), int(pages.max())
        if low < 0 or high >= PAGE_LIMIT:
            raise StorageError(
                f"page_index must lie in [0, 2**32), got {low if low < 0 else high}"
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
        cost = self._charge(n_pages, self._costs.seq_read_s, "n_pages")
        self.counters.seq_reads += n_pages
        return cost

    def sequential_write(self, n_pages: int) -> float:
        """Stream-write ``n_pages`` pages (flush or compaction output)."""
        cost = self._charge(n_pages, self._costs.seq_write_s, "n_pages")
        self.counters.seq_writes += n_pages
        return cost

    # ------------------------------------------------------------------
    # CPU work (still advances the simulated clock)
    # ------------------------------------------------------------------
    def probe_cpu(self, n_runs: int = 1) -> float:
        """CPU cost of probing the metadata of ``n_runs`` sorted runs
        (the paper's ``c_r``)."""
        return self._charge(n_runs, self._costs.run_probe_cpu_s, "n_runs")

    def compaction_cpu(self, n_entries: int) -> float:
        """CPU cost of merge-sorting ``n_entries`` entries (the paper's
        ``c_w``)."""
        return self._charge(n_entries, self._costs.compaction_entry_cpu_s, "n_entries")

    def _charge(self, n: int, unit_s: float, name: str) -> float:
        """Advance the clock by ``n`` units of ``unit_s`` seconds in one step."""
        if n < 0:
            raise StorageError(f"{name} must be >= 0, got {n}")
        cost = n * unit_s
        self._clock.advance(cost)
        return cost

    def drop_run(self, run_id: int) -> None:
        """Forget cached pages of a run deleted by compaction."""
        self._cache.invalidate_run(run_id)
