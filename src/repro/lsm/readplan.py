"""The read plan: a tree's reads, charged in one pass per flush interval.

Between two flushes a tree's levels do not change, and nothing reads a
mission's lookup or scan results. So a :class:`ReadPlan` queues each
chunk's reads — point keys after the memtable resolved what it holds when
the chunk ran — and charges the queue at a *barrier*: before a put that can
fill the memtable (``len(memtable) + n >= capacity``) and when the mission
ends. The pass (DESIGN.md §10, §11):

* **search** — one ``newest_ranks`` per level over every queued key, one
  ``searchsorted`` pair per run over every queued range;
* **bloom** — one ``rng.random`` draw per tree: drawing ``a`` then ``b``
  uniforms equals drawing ``a + b``, so the draw is dealt out in the order
  chunk-at-a-time lookups take it (chunk, level, newest run first, key);
* **charge** — every probe, page and cache charge goes to the clock, the
  read totals, the LRU and the counters in exact per-chunk order (each
  chunk's points, then its ranges): the same addends in the same order.

``LSMTree.get_batch`` and ``rangepath.scan_batch`` are one-chunk callers of
the pass; the per-chunk loop lives test-side (``tests/reference_mission.py``).
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Stages the pass laps on its span; a mission's span laps ``chunks`` too.
PLAN_STAGES = ("search", "bloom", "charge")


class MissionChunks(NamedTuple):
    """A mission's columns by op kind; chunk ``i`` is ``[cuts[i]:cuts[i +
    1]]`` of each. Built and validated by ``MissionRunner.chunks``."""

    upd_keys: np.ndarray
    upd_values: np.ndarray
    upd_cuts: List[int]
    get_keys: np.ndarray
    get_cuts: List[int]
    los: np.ndarray
    his: np.ndarray
    rng_cuts: List[int]


def range_sources(tree):
    """The runs a range reads, in charge order (deepest level first, runs
    oldest → newest), and ``(level_nos, level_of_run)``: their levels,
    deepest first, and each run's index into that list."""
    runs: list = []
    level_nos: List[int] = []
    level_of_run: List[int] = []
    for level in reversed(tree.levels):
        if level.runs:
            runs += level.runs
            level_of_run += [len(level_nos)] * len(level.runs)
            level_nos.append(level.level_no)
    return runs, (level_nos, level_of_run)


def search_ranges(key_arrays, entries_per_page, los, his):
    """``(starts, lengths, pages)``, each ``(n_sources, R)``: one
    ``searchsorted`` pair per sorted source, and the page span of each
    non-empty segment (the page of rank ``r`` is ``r // entries_per_page``)."""
    shape = (len(key_arrays), len(los))
    starts = np.concatenate([k.searchsorted(los) for k in key_arrays]).reshape(shape)
    stops = np.concatenate([k.searchsorted(his, "right") for k in key_arrays]).reshape(shape)
    lengths = stops - starts
    epp = np.array(entries_per_page)[:, None]
    return starts, lengths, np.where(lengths > 0, (stops - 1) // epp - starts // epp + 1, 0)


class ReadPlan:
    """One tree's queued reads; ``span`` is the caller's open trace span."""

    __slots__ = ("tree", "span", "_queue")

    def __init__(self, tree, span=None) -> None:
        self.tree = tree
        self.span = span
        #: A chunk's pending point keys as ``(keys, None)``, its ranges as ``(los, his)``.
        self._queue: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []

    def put(self, keys: np.ndarray, values: np.ndarray) -> None:
        """A chunk's updates: the barrier first if they can fill the
        memtable (a flush changes the levels)."""
        memtable = self.tree.memtable
        if len(memtable) + len(keys) >= memtable.capacity_entries:
            self.charge()
        self.tree.put_batch(keys, values)

    def lookup(self, keys: np.ndarray) -> None:
        """A chunk's point lookups: counted and resolved against the
        memtable now, the rest queued."""
        self.tree.stats.count_lookup(len(keys))
        resolved, _ = self.tree.memtable.get_batch(keys)
        if not resolved.all():
            self._queue.append((keys[~resolved], None))

    def scan(self, los: np.ndarray, his: np.ndarray, n_counted: int) -> None:
        """A chunk's ranges, all queued; ``n_counted`` of them count here (a
        sharded store counts a range on its home shard)."""
        self.tree.stats.count_range(n_counted)
        self._queue.append((los, his))

    def charge(self) -> None:
        """The barrier: charge every queued read in one pass."""
        queue, self._queue = self._queue, []
        if not queue or not self.tree.levels:
            return
        if self.span is not None:
            self.span.lap("chunks")
        points = [keys for keys, his in queue if his is None]
        steps = self._point_steps(points)[0] if points else ()
        runs, levels = range_sources(self.tree)
        ranges = [item for item in queue if item[1] is not None]
        rows: list = []
        if ranges and runs:
            los, his = (np.concatenate(column) for column in zip(*ranges))
            epp = [run.entries_per_page for run in runs]
            rows = search_ranges([run.keys for run in runs], epp, los, his)[2].T.tolist()
            if self.span is not None:
                self.span.lap("search")
        self._replay([None if his is None else len(los) for los, his in queue], steps, rows, levels)

    def lookup_now(self, keys: np.ndarray, pending: np.ndarray) -> List[Tuple[np.ndarray, ...]]:
        """Charge one batch's lookups of ``keys[pending]`` (what the memtable
        left); returns, per run holding some, their indices into ``keys``
        and their stored values."""
        steps, hits = self._point_steps([keys], pending)
        self._replay([None], steps, (), ())
        return hits

    def _point_steps(self, segments: List[np.ndarray], at: Optional[np.ndarray] = None):
        """Each run probe the point ``segments`` (one per chunk; ``at``, if
        given, the one segment's keys to look up) make, level by level,
        newest run first: ``(level_no, run_id, keys probed per chunk,
        cumulative positives per chunk, their pages)``; and each run's hits
        as ``(index, stored value)`` when ``at`` is given."""
        tree, span = self.tree, self.span
        gather = at is not None
        n_segs = len(segments)
        keys = segments[0] if n_segs == 1 else np.concatenate(segments)
        seg = None if n_segs == 1 else np.repeat(np.arange(n_segs), [len(s) for s in segments])
        # --- search: ``rank`` names the run resolving each pending key (0
        # the newest, n_runs a miss); run j probes the keys of rank >= j ---
        probes = []
        # ``at``: indices into ``keys`` still pending; None: all of them
        rank = None  # the last level searched: its misses stay pending
        for level in tree.levels:
            runs = level.runs
            if not runs:
                continue
            if rank is not None:
                missed = rank == n_runs
                at = missed.nonzero()[0] if at is None else at[missed]
                if not len(at):
                    break
            pk = keys if at is None else keys[at]
            sk = None if seg is None else (seg if at is None else seg[at])
            index = level.lookup_index()
            rank, slot = index.newest_ranks(pk)
            n_runs = len(runs)
            for j in range(n_runs):
                if j == 0:
                    sel, present = None, rank == 0
                else:
                    sel = (rank >= j).nonzero()[0]
                    if not len(sel):
                        break
                    present = rank[sel] == j
                probes.append((level.level_no, runs[-1 - j], index, pk, slot, sk, at, sel, present))
        if span is not None:
            span.lap("search")
        # --- bloom: one chunk's filters draw as they probe; a queue's draw
        # is taken once and dealt out (chunk, step, key)-major ---
        draws = [None] * len(probes)
        if seg is not None:
            counts = [probe[1].bloom_draws(probe[-1]) for probe in probes]
            total = sum(counts)
            if total:
                owners = [  # each drawing probe's absent keys' chunks
                    (p[5] if p[7] is None else p[5][p[7]])[~p[8]]
                    for p, n in zip(probes, counts)
                    if n
                ]
                dealt = np.empty(total)
                dealt[np.argsort(np.concatenate(owners), kind="stable")] = tree._rng.random(total)
                cuts = np.cumsum([0] + counts).tolist()
                draws = [dealt[a:b] if a < b else None for a, b in zip(cuts, cuts[1:])]
        steps, hits = [], []
        for (level_no, run, index, pk, slot, sk, at, sel, present), u in zip(probes, draws):
            probed = pk if sel is None else pk[sel]
            positive = run.bloom_positive_batch(probed, present, u)
            if span is not None:
                span.lap("bloom")
            pos_idx = positive.nonzero()[0] if sel is None else sel[positive]
            if sk is None:
                per_chunk: Sequence[int] = (len(probed),)
                bounds: Sequence[int] = (0, len(pos_idx))
            else:
                per_chunk = np.bincount(sk if sel is None else sk[sel], minlength=n_segs).tolist()
                bounds = [0] + np.bincount(sk[pos_idx], minlength=n_segs).cumsum().tolist()
            pages = None
            if len(pos_idx):
                hit = present[positive]
                positions = index.run_positions(run, pk, slot, pos_idx, hit)
                pages = positions // run.entries_per_page
                if gather:
                    found = pos_idx[hit]
                    if len(found):
                        hits.append((at[found], run.values[positions[hit]]))
            steps.append((level_no, run.run_id, per_chunk, bounds, pages))
            if span is not None:
                span.lap("search")
        return steps, hits

    def _replay(self, order: List[Optional[int]], steps, rows: list, levels) -> None:
        """Charge queued reads in ``order`` — ``None`` for a chunk's points,
        a count for its ranges: a point chunk walks ``steps`` (``probe_cpu``
        per run probed, then its pages through ``random_read_batch``), a
        range chunk its ``rows``."""
        disk, stats = self.tree.disk, self.tree.stats
        point_no = row_no = 0
        for n_rows in order:
            if n_rows is None:
                for level_no, run_id, per_chunk, bounds, pages in steps:
                    n = per_chunk[point_no]
                    if n:
                        stats.add_read(level_no, disk.probe_cpu(n))
                        a, b = bounds[point_no], bounds[point_no + 1]
                        if a < b:
                            stats.add_read(level_no, disk.random_read_batch(run_id, pages[a:b]))
                point_no += 1
            elif n_rows and rows:
                self.charge_ranges(rows[row_no : row_no + n_rows], *levels)
                row_no += n_rows
        if self.span is not None:
            self.span.lap("charge")

    def charge_ranges(self, rows: list, level_nos: List[int], level_of_run: List[int]) -> None:
        """Charge ranges from their page ``rows`` (one entry per run, in
        :func:`range_sources` order), range-major: per run ``probe_cpu(1)``,
        then ``pages * seq_read_s`` if the segment touches pages. The clock
        and read totals are locals written back once
        (``StatsCollector.read_totals``): the same addends in the same order
        as an ``advance`` + ``add_read`` pair per charge."""
        tree = self.tree
        probe_s, seq_s = tree.config.costs.run_probe_cpu_s, tree.config.costs.seq_read_s
        now = tree.clock.now
        total, level_totals, window, window_levels = tree.stats.read_totals(level_nos)
        seq_pages = 0
        for row in rows:
            for lv, n_pages in zip(level_of_run, row):
                now += probe_s
                total += probe_s
                level_totals[lv] += probe_s
                window += probe_s
                window_levels[lv] += probe_s
                if n_pages:
                    seq_pages += n_pages
                    cost = n_pages * seq_s
                    now += cost
                    total += cost
                    level_totals[lv] += cost
                    window += cost
                    window_levels[lv] += cost
        tree.clock.advance_to(now)
        tree.stats.set_read_totals(level_nos, total, level_totals, window, window_levels)
        tree.disk.counters.seq_reads += seq_pages


def run_chunks(
    trees: Sequence,
    chunks: MissionChunks,
    span=None,
    route: Optional[Callable[[np.ndarray], List[np.ndarray]]] = None,
) -> None:
    """Apply ``chunks`` to key-disjoint ``trees``, one :class:`ReadPlan`
    each: per chunk every tree's updates, then lookups, then ranges — the
    order chunk-at-a-time batch calls take, so a put that raises leaves
    what they leave. ``route`` splits keys into each tree's indices
    (``None``: one tree); a range is scanned everywhere and counted on its
    ``lo``'s home. Every plan charges on the way out, failing or not."""

    def split(keys: np.ndarray, cuts: List[int]):
        ats = [np.arange(len(keys))] if route is None else route(keys)
        return [(at, at.searchsorted(cuts).tolist()) for at in ats]

    upd = [
        (chunks.upd_keys[at], chunks.upd_values[at], cuts)
        for at, cuts in split(chunks.upd_keys, chunks.upd_cuts)
    ]
    get = [(chunks.get_keys[at], cuts) for at, cuts in split(chunks.get_keys, chunks.get_cuts)]
    homes = [cuts for _, cuts in split(chunks.los, chunks.rng_cuts)]
    los, his, rng_cuts = chunks.los, chunks.his, chunks.rng_cuts
    plans = [ReadPlan(tree, span) for tree in trees]
    try:
        for i in range(len(rng_cuts) - 1):
            for plan, (keys, values, cuts) in zip(plans, upd):
                if cuts[i] < cuts[i + 1]:
                    plan.put(keys[cuts[i] : cuts[i + 1]], values[cuts[i] : cuts[i + 1]])
            for plan, (keys, cuts) in zip(plans, get):
                if cuts[i] < cuts[i + 1]:
                    plan.lookup(keys[cuts[i] : cuts[i + 1]])
            a, b = rng_cuts[i], rng_cuts[i + 1]
            if a < b:
                for plan, cuts in zip(plans, homes):
                    plan.scan(los[a:b], his[a:b], cuts[i + 1] - cuts[i])
    finally:
        for plan in plans:
            plan.charge()
