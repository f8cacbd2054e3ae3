"""Simulated disk with page-granularity cost accounting.

:class:`DiskModel` is the substitute for the paper's NVMe SSD accessed with
direct I/O. It does not store page contents (run data lives in numpy arrays
owned by the runs themselves); it *prices* page accesses and keeps the I/O
counters that the statistics collector and the RL state vector consume.

Random reads model point-lookup page fetches (the paper's ``I_r``, priced and
counted by the read plan's pass); sequential reads and writes model compaction
traffic. Nothing issues random writes (``I_w``): that counter stays for the snapshot layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
