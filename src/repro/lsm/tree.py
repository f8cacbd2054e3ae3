"""The LSM-tree engine.

:class:`LSMTree` implements the full storage engine of the reproduction:
memtable, levels of sorted runs, Bloom-filtered lookups, fence-pointer page
reads, level-granularity compaction (the granularity used throughout the
paper's analysis and its Figure 10 micro-benchmark), range scans, and
per-level compaction policies ``K_i ∈ [1, T]`` in the style of Dostoevsky.

The same class is the paper's FLSM-tree (§4.2): an LSM-tree whose levels
tolerate differently sized sealed runs (:mod:`repro.lsm.level`) plus the
flexible transition (:meth:`Level.set_policy_flexible`). What distinguishes
the designs is only *which transition kind* a policy change is applied
with — the ``transition`` argument of :meth:`LSMTree.set_policy`.

Cost attribution rule (see DESIGN.md §5): all I/O of a compaction that
writes into level *i* is charged to level *i* as write time; lookup probes
are charged to the level probed as read time.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bloom.allocation import allocate_fprs
from repro.config import SystemConfig, TransitionKind
from repro.errors import PolicyError, TreeStateError
from repro.lsm.entry import (
    TOMBSTONE,
    merge_block,
    merge_sorted_sources,
    validate_batch,
    validate_keys,
)
from repro.lsm.level import Level
from repro.lsm.memtable import MemTable
from repro.lsm.policy import CompactionPolicy, PolicyLike, resolve_policy
from repro.lsm.rangepath import BatchResult, scan_batch, validate_ranges
from repro.lsm.readplan import MissionChunks, ReadPlan, run_chunks
from repro.lsm.run import SortedRun
from repro.lsm.stats import EngineView, MissionStats, StatsCollector
from repro.storage.cache import LRUBlockCache
from repro.storage.clock import SimClock
from repro.storage.pager import DiskModel, IOCounters

_NO_SPAN = nullcontext()  # stateless and reentrant: one instance serves all


def open_span(tracer, name: str, **attrs):
    """``tracer.span(name, **attrs)``, or a shared no-op context yielding
    ``None`` while no tracer is attached — so every traced entry point
    (tree, sharded store, server) has a single body either way, and a stage
    boundary inside it is ``if span is not None: span.lap("stage")``: the
    host clock is read in :mod:`repro.obs.trace`, never here."""
    return _NO_SPAN if tracer is None else tracer.span(name, **attrs)


class DerivedMembers:
    """What follows from the primitive surface
    (:class:`~repro.engine.base.KVEngine`), defined once for tree, sharded
    store and facade. Scalar ops are one-element calls of the host's batch
    methods, so each counts, charges, validates — and on a durable engine
    journals — exactly as its batch twin; the accessors read the host's
    ``view()`` (the tree overrides them with the direct reads its view is
    built from)."""

    def put(self, key: int, value: int) -> None:
        """Insert or overwrite one entry."""
        self.put_batch(np.array([key]), np.array([value]))

    def delete(self, key: int) -> None:
        """Delete one key (a tombstone write)."""
        self.delete_batch(np.array([key]))

    def get(self, key: int) -> Optional[int]:
        """Latest value for ``key``, or ``None`` if absent or deleted."""
        found, values = self.get_batch(np.array([key]))
        return int(values[0]) if found[0] else None

    def range_lookup(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """All live entries with ``lo <= key <= hi`` as ``(key, value)``
        pairs in key order."""
        keys, values, _ = self.range_scan_batch(np.array([lo]), np.array([hi]))
        return list(zip(keys.tolist(), values.tolist()))

    @property
    def clock_now(self) -> float:
        """Total simulated seconds consumed so far."""
        return self.view().clock_now

    @property
    def io_counters(self) -> IOCounters:
        """Cumulative page-level I/O counters of the simulated device."""
        return self.view().io_counters

    @property
    def cache_hits(self) -> int:
        """Cumulative block-cache hits."""
        return self.view().cache_hits

    @property
    def cache_misses(self) -> int:
        """Cumulative block-cache misses."""
        return self.view().cache_misses

    @property
    def total_entries(self) -> int:
        """Number of stored entries, including buffered ones."""
        return self.view().total_entries


class LSMTree(DerivedMembers):
    """A simulated LSM-tree key-value store with per-level policies."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        #: Optional :class:`repro.obs.trace.Tracer` — the tree's one
        #: observer (attach via :meth:`set_tracer`): the batch entry points
        #: open a wall-clock span and lap their stages on it. Host-clock
        #: only, zero simulated impact, one ``is None`` test per stage
        #: boundary when detached.
        self.tracer = None
        self.clock = SimClock()
        self.stats = StatsCollector()
        self.cache = LRUBlockCache(config.block_cache_pages)
        self.disk = DiskModel(config.costs, self.clock, self.cache)
        self.memtable = MemTable(config.buffer_capacity_entries)
        self.levels: List[Level] = []
        self._rng = np.random.default_rng(config.seed)
        self._next_run_id = 0
        #: Current Bloom budget; adjustable at runtime (paper §7 names
        #: Bloom memory allocation as a future tuning dimension).
        self.bits_per_key = float(config.bits_per_key)
        self._fpr_depth = 0  # depth the cached FPR allocation was computed for
        #: Named compaction policy the tree is pinned to, or ``None`` when
        #: levels are governed by raw per-level ``K`` values only. A pinned
        #: policy is re-applied whenever the tree grows a level (see
        #: :mod:`repro.lsm.policy`); any explicit per-level
        #: :meth:`set_policy` drops the pin.
        self.compaction_policy: Optional[CompactionPolicy] = None

    def set_tracer(self, tracer) -> None:
        """Attach (or detach with ``None``) a span tracer to the batch
        read/write entry points."""
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Structure-change template methods, invoked synchronously at the
    # mutation sites. No-ops here; the durable subclass mirrors each change
    # to disk. An override is wall-clock-side only: it must not mutate the
    # tree or charge simulated costs.
    # ------------------------------------------------------------------
    def _run_installed(self, level_no: int, run: SortedRun, replaced_run_id: Optional[int]) -> None:
        """``run`` was installed into ``level_no`` (replacing the active
        run ``replaced_run_id``, if any)."""

    def _runs_dropped(self, level_no: int, run_ids: Sequence[int]) -> None:
        """The runs ``run_ids`` were removed from ``level_no``."""

    def _flush_completed(self) -> None:
        """A memtable flush, including its compaction cascade, finished."""

    # ------------------------------------------------------------------
    # Structure management
    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level(self, level_no: int) -> Level:
        """The :class:`Level` object for 1-based ``level_no``."""
        if not 1 <= level_no <= len(self.levels):
            raise TreeStateError(f"level {level_no} does not exist (tree has {len(self.levels)})")
        return self.levels[level_no - 1]

    def policies(self) -> List[int]:
        """Current compaction policy of each level, shallow to deep."""
        return [level.policy for level in self.levels]

    @property
    def total_entries(self) -> int:
        return len(self.memtable) + sum(l.data_entries for l in self.levels)

    def _refresh_fprs(self) -> None:
        """Recompute per-level FPRs when the tree grows a level.

        Existing runs keep the filter they were built with (as a real system
        would until the next compaction rebuilds them); new runs pick up the
        refreshed allocation.
        """
        depth = len(self.levels)
        if depth == 0 or depth == self._fpr_depth:
            return
        fprs = allocate_fprs(
            self.config.bloom_scheme,
            self.bits_per_key,
            depth,
            self.config.size_ratio,
        )
        for level, fpr in zip(self.levels, fprs):
            level.fpr = fpr
        self._fpr_depth = depth

    def set_bits_per_key(self, bits_per_key: float) -> None:
        """Change the Bloom filter budget at runtime.

        Existing runs keep the filters they were built with (a real system
        rebuilds filters at the next compaction); new runs use the refreshed
        per-level FPR allocation immediately.
        """
        if bits_per_key <= 0:
            raise TreeStateError(f"bits_per_key must be > 0, got {bits_per_key}")
        self.bits_per_key = float(bits_per_key)
        self._fpr_depth = 0  # force re-allocation at the current depth
        self._refresh_fprs()

    def _ensure_level(self, level_no: int) -> Level:
        """Create levels up to ``level_no`` (with the initial policy) if the
        tree is not yet that deep."""
        grew = False
        while len(self.levels) < level_no:
            next_no = len(self.levels) + 1
            self.levels.append(
                Level(
                    level_no=next_no,
                    capacity_entries=self.config.level_capacity_entries(next_no),
                    policy=self.config.initial_policy,
                    fpr=1.0,  # refreshed below
                    max_policy=self.config.size_ratio,
                )
            )
            grew = True
        if grew:
            self._refresh_fprs()
            self._apply_pinned_policy()
        return self.levels[level_no - 1]

    def _apply_pinned_policy(self) -> None:
        """Re-align per-level policies with the pinned named policy.

        Invoked after the tree grows a level (under lazy-leveling the old
        bottom flips from leveling to tiering when a new bottom appears) and
        after a greedy policy switch whose forced merges cascaded into a new
        bottom level. Alignment uses flexible semantics — only active-run
        capacities change, so no data moves and no simulated time is
        charged. Policies queued by a lazy switch are *retargeted* to the
        pinned assignment rather than eagerly applied.
        """
        pinned = self.compaction_policy
        if pinned is None or not self.levels:
            return
        assignments = pinned.assignments(len(self.levels), self.config.size_ratio)
        for level, want in zip(self.levels, assignments):
            if level.pending_policy is not None:
                if level.pending_policy != want:
                    level.pending_policy = want if level.policy != want else None
                continue
            if level.policy != want:
                level.set_policy_flexible(want)

    def _new_run(
        self,
        level: Level,
        keys: np.ndarray,
        values: np.ndarray,
        capacity_entries: int,
        sealed: bool = False,
    ) -> SortedRun:
        run = SortedRun(
            run_id=self._next_run_id,
            level_no=level.level_no,
            keys=keys,
            values=values,
            fpr=level.fpr,
            capacity_entries=capacity_entries,
            entries_per_page=self.config.entries_per_page,
            bloom_mode=self.config.bloom_mode,
            rng=self._rng,
            sealed=sealed,
        )
        self._next_run_id += 1
        return run

    # ------------------------------------------------------------------
    # Public write path
    # ------------------------------------------------------------------
    def put_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Vectorized insert of many entries, in order: the per-key loop's
        overwrites, flush boundaries and charges (``tests/reference_put.py``)
        with bulk memtable inserts and one flush check per remaining batch."""
        keys, values = validate_batch(keys, values)
        self._write_batch("lsm.put_batch", keys, values)

    def delete_batch(self, keys: np.ndarray) -> None:
        """Vectorized delete of many keys, in order: below the validation
        boundary a delete is a write of ``TOMBSTONE``, so it shares
        :meth:`put_batch`'s flush boundaries and cost charging exactly."""
        keys = validate_keys(keys)
        self._write_batch("lsm.delete_batch", keys, np.full(len(keys), TOMBSTONE, dtype=np.int64))

    # perfbench patches ``vars(LSMTree)["delete"]``: the derived scalar has
    # to be found in this class's own body, not only inherited.
    delete = DerivedMembers.delete

    def _write_batch(self, span_name: str, keys: np.ndarray, values: np.ndarray) -> None:
        """The one write body: count, bulk-insert, flush at every fill."""
        n = len(keys)
        if n == 0:
            return
        self.stats.count_update(n)
        with open_span(self.tracer, span_name, n_keys=n):
            start = 0
            while start < n:
                start += self.memtable.put_batch(keys[start:], values[start:])
                if self.memtable.is_full:
                    self._flush()

    def _flush(self) -> None:
        """Drain the memtable into Level 1's active run."""
        keys, values = self.memtable.drain_sorted()
        if len(keys) == 0:
            return
        self._admit(1, [(keys, values)], source_pages=0)
        self._flush_completed()

    def _admit(
        self,
        level_no: int,
        sources: Sequence[Tuple[np.ndarray, np.ndarray]],
        source_pages: int,
    ) -> None:
        """Merge ``sources`` (oldest → newest) into ``level_no``'s active run.

        ``source_pages`` is how many pages the incoming data occupies on disk
        (0 for a memtable flush, which arrives from memory). All compaction
        I/O and CPU is charged to ``level_no`` as write time.
        """
        level = self._ensure_level(level_no)
        level.drop_lookup_index()
        active = level.active_run
        merge_inputs = list(sources)
        read_pages = source_pages
        if active is not None:
            merge_inputs.insert(0, (active.keys, active.values))
            read_pages += active.n_pages
        key_arrays, value_arrays = zip(*merge_inputs)

        # A tombstone may only be dropped when the merge output covers every
        # older copy of its key: all deeper levels must be empty AND this
        # level must hold no sealed runs outside the merge (under tiering /
        # lazy-leveling the bottom level stacks sealed runs, and a key
        # deleted there would resurrect if its tombstone were dropped from
        # the active-run merge).
        is_bottom = all(l.is_empty for l in self.levels[level_no:])
        covers_level = not level.sealed_runs
        keys, values = merge_sorted_sources(
            key_arrays, value_arrays, drop_tombstones=is_bottom and covers_level
        )

        cost = self.disk.sequential_read(read_pages)
        cost += self.disk.compaction_cpu(sum(map(len, key_arrays)))
        cost += self.disk.sequential_write(self.config.pages_for_entries(len(keys)))
        self.stats.add_write(level_no, cost)

        new_run = self._new_run(level, keys, values, capacity_entries=level.active_run_capacity())
        replaced = level.replace_active(new_run)
        if replaced is not None:
            self.disk.drop_run(replaced.run_id)
        self._run_installed(level_no, new_run, None if replaced is None else replaced.run_id)

        if level.is_full:
            self._merge_level_down(level_no)

    def _merge_level_down(self, level_no: int) -> None:
        """Merge *all* runs of ``level_no`` into level ``level_no + 1``.

        Triggered when a level reaches its capacity (paper Section 2: "All
        entries in a level are eventually merged and flushed down to the next
        level when the level reaches its capacity"), and by the greedy
        transition via :meth:`force_merge_level`.
        """
        level = self.level(level_no)
        if level.is_empty:
            level.drop_all_runs()  # still applies a pending lazy policy
            return
        runs = list(level.runs)  # oldest → newest
        total_pages = sum(run.n_pages for run in runs)
        sources = [(run.keys, run.values) for run in runs]
        level.drop_lookup_index()
        dropped = level.drop_all_runs()
        for run in dropped:
            self.disk.drop_run(run.run_id)
        self._runs_dropped(level_no, [run.run_id for run in dropped])
        self._admit(level_no + 1, sources, source_pages=total_pages)

    def force_merge_level(self, level_no: int) -> None:
        """Immediately flush all data of ``level_no`` into the next level
        (the greedy transition's data movement)."""
        self._merge_level_down(level_no)

    def rebuild_level_in_place(self, level_no: int) -> None:
        """Rewrite all of ``level_no``'s data as one fresh run at the same
        level (the greedy transition's rebuild for the *bottom* level:
        merging the deepest level "into the next level" would grow the tree
        and artificially defer its compactions, which no real system does
        for a policy change)."""
        level = self.level(level_no)
        if level.is_empty:
            level.drop_all_runs()
            return
        runs = list(level.runs)
        total_pages = sum(run.n_pages for run in runs)
        n_entries = level.data_entries
        level.drop_lookup_index()
        is_bottom = all(l.is_empty for l in self.levels[level_no:])
        keys, values = merge_sorted_sources(
            [run.keys for run in runs], [run.values for run in runs], drop_tombstones=is_bottom
        )
        cost = self.disk.sequential_read(total_pages)
        cost += self.disk.compaction_cpu(n_entries)
        cost += self.disk.sequential_write(self.config.pages_for_entries(len(keys)))
        self.stats.add_write(level_no, cost)
        dropped = level.drop_all_runs()
        for run in dropped:
            self.disk.drop_run(run.run_id)
        self._runs_dropped(level_no, [run.run_id for run in dropped])
        rebuilt = self._new_run(level, keys, values, capacity_entries=level.active_run_capacity())
        level.replace_active(rebuilt)
        self._run_installed(level_no, rebuilt, None)

    # ------------------------------------------------------------------
    # Public read path
    # ------------------------------------------------------------------
    def get_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized point lookups, ``(found_mask, values)``: the memtable,
        then one chunk of the read plan (:meth:`ReadPlan.lookup_now`,
        DESIGN.md §10), **bit-identical** in every simulated observable to
        the run-at-a-time reference (``tests/reference_get.py``). A refused
        batch counts nothing."""
        keys = validate_keys(keys)
        n = len(keys)
        self.stats.count_lookup(n)
        with open_span(self.tracer, "lsm.get_batch", n_keys=n) as span:
            # ``stored`` is each resolved key's newest value, tombstone or not.
            resolved, stored = self.memtable.get_batch(keys)
            if span is not None:
                span.lap("memtable")
            pending = (~resolved).nonzero()[0]
            if len(pending):
                for at, values in ReadPlan(self, span).lookup_now(keys, pending):
                    resolved[at] = True
                    stored[at] = values
            found = resolved & (stored != TOMBSTONE)
            return found, np.where(found, stored, 0)

    def range_scan_batch(self, los: np.ndarray, his: np.ndarray) -> BatchResult:
        """Range lookups over R inclusive ranges, counted and charged
        **bit-identically** to R per-op scans in submission order
        (:mod:`repro.lsm.rangepath`). Returns flat ``(keys, values,
        offsets)``: range ``i``'s live entries, sorted, are
        ``keys[offsets[i]:offsets[i + 1]]``. The whole batch is validated
        up front, so a rejected batch charges nothing."""
        los, his = validate_ranges(los, his)
        self.stats.count_range(len(los))
        with open_span(self.tracer, "lsm.range_scan_batch", n_ranges=len(los)) as span:
            return scan_batch((self,), los, his, span)

    def run_chunks(self, chunks: MissionChunks) -> None:
        """A mission's chunks, sim-identical to one ``put_batch`` /
        ``get_batch`` / ``range_scan_batch`` call each, the reads charged
        once per flush interval (:func:`repro.lsm.readplan.run_chunks`)."""
        with open_span(self.tracer, "lsm.run_chunks") as span:
            run_chunks((self,), chunks, span)

    # ------------------------------------------------------------------
    # Policy control
    # ------------------------------------------------------------------
    def set_policy(self, level_no: int, new_policy: int, transition: TransitionKind) -> None:
        """Change the compaction policy of one level using ``transition``.

        An explicit per-level change drops any pinned named policy — the
        caller is taking over per-level control and a pin would silently
        overwrite its choices at the next level growth.
        """
        self.compaction_policy = None
        level = self._ensure_level(level_no)
        if transition is TransitionKind.FLEXIBLE:
            level.set_policy_flexible(new_policy)
        elif transition is TransitionKind.LAZY:
            level.set_policy_lazy(new_policy)
        elif transition is TransitionKind.GREEDY:
            if new_policy != level.policy and not level.is_empty:
                deeper_empty = all(l.is_empty for l in self.levels[level_no:])
                if deeper_empty:
                    self.rebuild_level_in_place(level_no)
                else:
                    self.force_merge_level(level_no)
            level.set_policy_immediate(new_policy)
        else:
            raise PolicyError(f"unknown transition kind: {transition!r}")

    def set_policies(self, new_policies: Sequence[int], transition: TransitionKind) -> None:
        """Set the policy of levels ``1..len(new_policies)`` at once.

        Greedy transitions are applied deepest-first so the cascade of forced
        merges does not invalidate shallower levels' pending changes.
        """
        indices = range(len(new_policies), 0, -1)
        for level_no in indices:
            self.set_policy(level_no, new_policies[level_no - 1], transition)

    def set_named_policy(
        self,
        policy: PolicyLike,
        transition: TransitionKind = TransitionKind.FLEXIBLE,
    ) -> None:
        """Pin the tree to a named compaction policy (see
        :mod:`repro.lsm.policy`).

        The policy's per-level ``K`` assignment is applied through
        ``transition`` (flexible: free and immediate; greedy: forced merges,
        the bounded-migration cost model; lazy: queued until levels empty),
        and the pin keeps future levels — and, under lazy-leveling, the
        moving bottom level — on the discipline as the tree grows.
        """
        resolved = resolve_policy(policy)
        if self.levels:
            assignments = resolved.assignments(len(self.levels), self.config.size_ratio)
            self.set_policies(assignments, transition)
        self.compaction_policy = resolved
        if transition is not TransitionKind.LAZY:
            # A greedy cascade may have created a deeper level mid-switch;
            # align it (and nothing else) with the pinned assignment.
            self._apply_pinned_policy()

    def named_policy(self) -> Optional[str]:
        """Name of the pinned compaction policy, or ``None`` when the tree
        is governed by raw per-level ``K`` values."""
        policy = self.compaction_policy
        return policy.name if policy is not None else None

    # ------------------------------------------------------------------
    # KVEngine surface: mission windows, tuning targets, aggregate views
    # ------------------------------------------------------------------
    @property
    def io_counters(self) -> "IOCounters":
        """Cumulative page-level I/O counters of the simulated device."""
        return self.disk.counters

    @property
    def clock_now(self) -> float:
        """Total simulated seconds consumed so far."""
        return self.clock.now

    @property
    def cache_hits(self) -> int:
        """Cumulative block-cache hits."""
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        """Cumulative block-cache misses."""
        return self.cache.misses

    def view(self) -> EngineView:
        """An immutable reading of every cumulative simulated observable
        (see :class:`~repro.lsm.stats.EngineView`)."""
        stats = self.stats
        return EngineView(
            clock_now=self.clock.now,
            total_read_time=stats.total_read_time,
            total_write_time=stats.total_write_time,
            level_read_time=dict(stats.level_read_time),
            level_write_time=dict(stats.level_write_time),
            total_lookups=stats.total_lookups,
            total_updates=stats.total_updates,
            total_ranges=stats.total_ranges,
            io_counters=self.disk.counters.snapshot(),
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            total_entries=self.total_entries,
            n_levels=len(self.levels),
            n_runs=sum(level.n_runs for level in self.levels),
            windows_closed=stats.windows_closed,
            policies=(tuple(self.policies()),),
            named_policy=(self.named_policy(),),
        )

    def _cache_counters(self) -> Tuple[int, int]:
        """Cache counters for mission windows.

        A capacity-0 cache still tallies its (always-miss) probes
        internally, but mission records treat that as "no cache
        configured" — zero traffic — so reports can distinguish a
        cache-less run from a cache that never hits.
        """
        if self.cache.capacity == 0:
            return 0, 0
        return self.cache.hits, self.cache.misses

    def begin_mission(self) -> None:
        """Open a stats window covering the next batch of operations."""
        hits, misses = self._cache_counters()
        self.stats.begin_mission(self.disk.counters, self.clock.now, hits, misses)

    def end_mission(self) -> "MissionStats":
        """Close the current stats window and return its statistics."""
        hits, misses = self._cache_counters()
        return self.stats.end_mission(self.disk.counters, self.clock.now, hits, misses)

    def tuning_targets(self) -> "List[LSMTree]":
        """The tree itself is the only tuning target."""
        return [self]

    def last_mission_breakdown(self) -> "List[MissionStats]":
        """Per-target stats of the last completed mission."""
        last = self.stats.last_mission
        return [] if last is None else [last]

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, keys: np.ndarray, values: np.ndarray, distribute: bool = False) -> None:
        """Populate an empty tree without charging simulated time.

        By default all entries form one sealed run in the shallowest level
        that can hold them (what an offline bulk load produces). With
        ``distribute=True`` entries are spread bottom-up across levels to
        mimic a steady-state tree.
        """
        if self.total_entries:
            raise TreeStateError("bulk_load requires an empty tree")
        keys, values = validate_batch(keys, values)
        if len(keys) == 0:
            return
        # Callers hand over unsorted keys, a later duplicate winning: that is
        # the primitive's input, not the blocked kernel's sorted sources.
        keys, values = merge_block([keys], [values])
        n = len(keys)
        bottom_no = 1
        while self.config.level_capacity_entries(bottom_no) < n:
            bottom_no += 1
        self._ensure_level(bottom_no)
        if not distribute:
            bottom = self.level(bottom_no)
            run = self._new_run(
                bottom, keys, values,
                capacity_entries=bottom.active_run_capacity(), sealed=True,
            )
            bottom.runs.append(run)
            self._run_installed(bottom_no, run, None)
            return
        # Steady-state layout: a long-running store keeps each shallow level
        # about half full on average (they drain into the next level every
        # time they fill), with the bulk of the data resident at the bottom.
        # Fill levels 1..bottom-1 to ~50% and give the remainder to the
        # bottom level (which by construction can hold all n entries). Each
        # level's share is split into the number of sealed runs its policy
        # would have accumulated at that fill.
        shallow_fill = 0.5
        shares = {}
        left = n
        for level_no in range(1, bottom_no):
            capacity = self.config.level_capacity_entries(level_no)
            take = min(left, max(1, int(shallow_fill * capacity)))
            if take <= 0:
                break
            shares[level_no] = take
            left -= take
            if left <= 0:
                break
        if left > 0:
            shares[bottom_no] = left
        remaining = np.arange(n)
        self._rng.shuffle(remaining)
        cursor = 0
        for level_no in sorted(shares, reverse=True):
            take = shares[level_no]
            level = self.level(level_no)
            capacity = self.config.level_capacity_entries(level_no)
            chosen = remaining[cursor : cursor + take]
            cursor += take
            fill = take / capacity
            n_runs = max(1, round(level.policy * fill))
            run_capacity = level.active_run_capacity()
            for chunk in np.array_split(chosen, n_runs):
                if len(chunk) == 0:
                    continue
                ordered = np.sort(chunk)
                run = self._new_run(
                    level,
                    keys[ordered],
                    values[ordered],
                    capacity_entries=run_capacity,
                    sealed=True,
                )
                level.runs.append(run)
                self._run_installed(level_no, run, None)

    # ------------------------------------------------------------------
    # Introspection & invariants
    # ------------------------------------------------------------------
    def describe(self) -> List[Dict[str, object]]:
        """A structural snapshot for debugging and examples."""
        return [
            {
                "level": level.level_no,
                "policy": level.policy,
                "pending_policy": level.pending_policy,
                "runs": level.n_runs,
                "entries": level.data_entries,
                "capacity": level.capacity_entries,
                "fill": round(level.fill_ratio, 4),
                "fpr": level.fpr,
            }
            for level in self.levels
        ]

    def check_invariants(self) -> None:
        """Verify structural invariants; raises :class:`TreeStateError`."""
        for level in self.levels:
            level.check_invariants()
            if level.data_entries > level.capacity_entries:
                raise TreeStateError(
                    f"level {level.level_no} over capacity: "
                    f"{level.data_entries} > {level.capacity_entries}"
                )
        if len(self.memtable) > self.memtable.capacity_entries:
            raise TreeStateError("memtable over capacity")

    def __getstate__(self) -> Dict[str, object]:
        # The tracer is host wiring, re-attached by whoever loads the tree.
        return {**vars(self), "tracer": None}
