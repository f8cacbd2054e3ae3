"""Statistics collection for the simulated store.

The paper's RusKey "maintains a statistics collector that keeps track of
necessary statistics ... Besides overall statistics of the FLSM-tree, it
tracks statistics separately for each FLSM-tree level to support the
level-based training scheme in Lerp. It also collects the operation
composition in each mission for detecting changes in the application
workload." (Section 3.)

:class:`StatsCollector` is that component: it attributes every simulated
cost to a level and an operation class, and cuts the stream into per-mission
:class:`MissionStats` records that feed both the RL reward and the benchmark
harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SnapshotError
from repro.storage.pager import IOCounters

#: Pseudo-level used for costs not attributable to a disk level (memtable).
BUFFER_LEVEL = 0


@dataclass
class MissionStats:
    """Everything measured during one mission (a batch of operations) —
    simulated quantities only, so the record is a pure function of
    (config, seed). Host time is measured in ``perfbench/``."""

    index: int
    n_lookups: int = 0
    n_updates: int = 0
    n_ranges: int = 0
    read_time: float = 0.0
    write_time: float = 0.0
    level_read_time: Dict[int, float] = field(default_factory=dict)
    level_write_time: Dict[int, float] = field(default_factory=dict)
    io: IOCounters = field(default_factory=IOCounters)
    sim_duration: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def n_operations(self) -> int:
        return self.n_lookups + self.n_updates + self.n_ranges

    @property
    def cache_hit_rate(self) -> float:
        """Block-cache hit fraction during the mission (0.0 with no traffic)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def lookup_fraction(self) -> float:
        """Fraction of point+range lookups in the mission (paper's γ)."""
        ops = self.n_operations
        if ops == 0:
            return 0.0
        return (self.n_lookups + self.n_ranges) / ops

    @property
    def total_time(self) -> float:
        return self.read_time + self.write_time

    @property
    def latency_per_op(self) -> float:
        """Mean simulated latency per operation in seconds."""
        ops = self.n_operations
        return self.total_time / ops if ops else 0.0

    def level_time(self, level_no: int) -> float:
        """Total (read + write) simulated time attributed to ``level_no``."""
        return self.level_read_time.get(level_no, 0.0) + self.level_write_time.get(
            level_no, 0.0
        )


def sum_level_maps(maps: Iterable[Dict[int, float]]) -> Dict[int, float]:
    """Per-level sum of level → seconds maps, accumulated in ``maps`` order
    (float addition is order-dependent; every aggregate uses this one)."""
    merged: Dict[int, float] = {}
    for one in maps:
        for level_no, seconds in one.items():
            merged[level_no] = merged.get(level_no, 0.0) + seconds
    return merged


@dataclass(frozen=True)
class EngineView:
    """One immutable reading of an engine's cumulative simulated state.

    Every engine builds it (``engine.view()``); field names are the names
    of the read-only accessors, so a view stands in wherever one of them
    — or the ``stats`` totals — is read. ``+`` is the cross-shard
    aggregation rule (DESIGN.md §4) and is associative: times, counts and
    counters sum, level maps sum per level, ``n_levels`` is the deepest
    shard's, and the per-target tuples concatenate. Two engines that must
    be sim-identical compare with one ``==``.
    """

    clock_now: float
    total_read_time: float
    total_write_time: float
    level_read_time: Dict[int, float]
    level_write_time: Dict[int, float]
    total_lookups: int
    total_updates: int
    total_ranges: int
    io_counters: IOCounters
    cache_hits: int
    cache_misses: int
    total_entries: int
    n_levels: int
    n_runs: int
    windows_closed: int
    #: One entry per tuning target, in ``tuning_targets()`` order.
    policies: Tuple[Tuple[int, ...], ...]
    named_policy: Tuple[Optional[str], ...]

    def __add__(self, other: "EngineView") -> "EngineView":
        merged = {}
        for name in self.__dataclass_fields__:
            a, b = getattr(self, name), getattr(other, name)
            # Numbers, counters and tuples add; level maps add per level.
            merged[name] = sum_level_maps((a, b)) if isinstance(a, dict) else a + b
        merged["n_levels"] = max(self.n_levels, other.n_levels)
        return EngineView(**merged)


class StatsCollector:
    """Attributes simulated costs to levels and mission windows."""

    def __init__(self) -> None:
        self.windows_closed = 0
        self._current: Optional[MissionStats] = None
        #: The last closed window; the full log belongs to whoever consumes
        #: it (``RusKey.mission_log``, ``KVServer.windows``).
        self.last_mission: Optional[MissionStats] = None
        # Cumulative, across all missions.
        self.total_read_time = 0.0
        self.total_write_time = 0.0
        self.total_lookups = 0
        self.total_updates = 0
        self.total_ranges = 0
        self.level_read_time: Dict[int, float] = {}
        self.level_write_time: Dict[int, float] = {}
        self._io_snapshot: Optional[IOCounters] = None
        self._clock_snapshot: float = 0.0
        self._cache_snapshot: "tuple[int, int]" = (0, 0)

    # ------------------------------------------------------------------
    # Mission windows
    # ------------------------------------------------------------------
    @property
    def in_mission(self) -> bool:
        return self._current is not None

    def begin_mission(
        self,
        io: IOCounters,
        clock_now: float,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> None:
        """Open a mission window; one must not already be open.

        ``cache_hits``/``cache_misses`` are the engine's cumulative
        block-cache counters at window start (0 for engines without a cache).
        """
        if self._current is not None:
            raise RuntimeError("a mission is already in progress")
        self._current = MissionStats(index=self.windows_closed)
        self._io_snapshot = io.snapshot()
        self._clock_snapshot = clock_now
        self._cache_snapshot = (int(cache_hits), int(cache_misses))

    def end_mission(
        self,
        io: IOCounters,
        clock_now: float,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> MissionStats:
        """Close the current mission window and return its stats."""
        if self._current is None:
            raise RuntimeError("no mission in progress")
        mission = self._current
        assert self._io_snapshot is not None
        mission.io = io.diff(self._io_snapshot)
        mission.sim_duration = clock_now - self._clock_snapshot
        mission.cache_hits = int(cache_hits) - self._cache_snapshot[0]
        mission.cache_misses = int(cache_misses) - self._cache_snapshot[1]
        self.last_mission = mission
        self.windows_closed += 1
        self._current = None
        self._io_snapshot = None
        return mission

    # ------------------------------------------------------------------
    # Cost attribution (called by the tree)
    # ------------------------------------------------------------------
    def add_read(self, level_no: int, seconds: float) -> None:
        """Attribute lookup-path time to ``level_no``."""
        self.total_read_time += seconds
        self.level_read_time[level_no] = (
            self.level_read_time.get(level_no, 0.0) + seconds
        )
        if self._current is not None:
            self._current.read_time += seconds
            self._current.level_read_time[level_no] = (
                self._current.level_read_time.get(level_no, 0.0) + seconds
            )

    def read_totals(self, level_nos: Sequence[int]) -> Tuple[float, List[float], float, List[float]]:
        """The accumulators :meth:`add_read` adds to, for a caller-side
        replay: ``(total_read_time, per-level totals, open window's
        read_time, its per-level totals)``, per-level lists in
        ``level_nos`` order. With no window open the window values are
        zeros that :meth:`set_read_totals` will ignore."""
        window = self._current
        window_levels = {} if window is None else window.level_read_time
        return (
            self.total_read_time,
            [self.level_read_time.get(no, 0.0) for no in level_nos],
            0.0 if window is None else window.read_time,
            [window_levels.get(no, 0.0) for no in level_nos],
        )

    def set_read_totals(self, level_nos, total, level_totals, window_time, window_levels) -> None:
        """Write back what :meth:`read_totals` handed out, after the caller
        added every charge to each value in :meth:`add_read` call order:
        bit-equivalent to those calls, at one call per batch
        (``ReadPlan.charge_ranges``)."""
        self.total_read_time = total
        self.level_read_time.update(zip(level_nos, level_totals))
        window = self._current
        if window is not None:
            window.read_time = window_time
            window.level_read_time.update(zip(level_nos, window_levels))

    def add_write(self, level_no: int, seconds: float) -> None:
        """Attribute write-path (flush/compaction) time to ``level_no``."""
        self.total_write_time += seconds
        self.level_write_time[level_no] = (
            self.level_write_time.get(level_no, 0.0) + seconds
        )
        if self._current is not None:
            self._current.write_time += seconds
            self._current.level_write_time[level_no] = (
                self._current.level_write_time.get(level_no, 0.0) + seconds
            )

    def count_lookup(self, n: int = 1) -> None:
        self.total_lookups += n
        if self._current is not None:
            self._current.n_lookups += n

    def count_update(self, n: int = 1) -> None:
        self.total_updates += n
        if self._current is not None:
            self._current.n_updates += n

    def count_range(self, n: int = 1) -> None:
        self.total_ranges += n
        if self._current is not None:
            self._current.n_ranges += n

    def __getstate__(self) -> Dict[str, object]:
        """Pickled between missions only: an open window holds a reference
        to live engine counters that cannot be carried across processes
        (the one "between missions" rule, DESIGN.md §6)."""
        if self._current is not None:
            raise SnapshotError(
                "cannot snapshot a StatsCollector mid-mission; "
                "close the window first"
            )
        return vars(self)
