"""The vectorized batch range-scan path.

Range counterpart of :meth:`LSMTree.get_batch`: a per-op scan walks every
run with its own pair of scalar ``searchsorted`` calls and runs one
``merge_sorted_sources`` per range. :func:`scan_batch` does the same work
for a whole batch of R ranges over a *sequence of key-disjoint trees* (one
tree, or every shard of a hash-partitioned store) in one pass:

* **search** — per run only the ``keys.searchsorted(los)`` /
  ``keys.searchsorted(his, "right")`` pair remains; the bounds of every
  run of every tree (and each memtable's sorted view) are stacked into
  ``(n_sources, R)`` matrices, so the fence-pointer page counts (the page
  of rank ``r`` is ``r // entries_per_page``, as
  :meth:`SortedRun.page_of_position` has it) and the gather indices are
  one set of numpy dispatches per call instead of one per run.
* **charge** — simulated costs are replayed per tree in exactly the
  per-op order (range-major: for each range, deepest level first, runs
  oldest → newest within a level; ``probe_cpu`` per run, then
  ``sequential_read`` when the segment touches pages). Float accumulation
  is order-dependent, so the replay *is* the bit-identity proof: every
  accumulator (clock, read totals, the open mission window's) sees the
  same addends in the same order. The loop holds them in locals and
  writes them back once per tree (:meth:`SimClock.advance_to`,
  :meth:`StatsCollector.set_read_totals`). Trees own their clocks, so
  replaying tree by tree instead of interleaved is unobservable.
* **gather** — every non-empty source contributes its segments through
  one fancy-index, sources ordered tree-major and oldest → newest inside
  a tree, each entry tagged with its range id.
* **merge** — one stable ``(range_id, key)`` lexsort over everything
  gathered replaces R separate ``merge_sorted_sources`` calls per tree
  and the cross-tree re-merge: within a range, equal keys keep source
  order, so keep-last dedup and tombstone drop reproduce the per-range
  merge exactly; trees are key-disjoint, so newest-wins only ever
  decides between sources of one tree.

The memtable contributes through its lazily-built sorted view (two
``searchsorted`` calls per batch) instead of R O(M) dict scans; building
the view is host-side caching with no simulated cost, exactly like the
point-lookup path.

The per-op loop this path must match bit for bit lives test-side
(``tests/reference_range.py``): the differential oracle
(``tests/test_oracle.py``) holds every engine's scans sim-identical to it,
and the ``range_path_scale`` benchmark diffs :meth:`LSMTree.range_scan_batch`
against it on identical tree snapshots.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.lsm.entry import TOMBSTONE, validate_keys

#: Stage names :func:`scan_batch` laps on the caller's span, in pipeline order.
RANGE_STAGES = ("range_search", "range_charge", "range_gather", "range_merge")

BatchResult = Tuple[np.ndarray, np.ndarray, np.ndarray]


def empty_batch_result(n_ranges: int) -> BatchResult:
    """``(keys, values, offsets)`` for a batch with no live entries."""
    empty = np.zeros(0, dtype=np.int64)
    return empty, empty.copy(), np.zeros(n_ranges + 1, dtype=np.int64)


def validate_ranges(los, his) -> Tuple[np.ndarray, np.ndarray]:
    """``(los, his)`` as equal-length 1-d int64 arrays of inclusive ranges
    with every ``lo <= hi``, each column checked like a key batch
    (:func:`~repro.lsm.entry.validate_keys`). Engines call this before
    counting or charging anything, so a rejected batch leaves the simulation
    untouched."""
    los, his = validate_keys(los), validate_keys(his)
    if los.shape != his.shape:
        raise ValueError(
            f"los/his must have equal length, got {los.shape} vs {his.shape}"
        )
    bad = los > his
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"empty range: lo={int(los[i])} > hi={int(his[i])}")
    return los, his


def multi_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + lengths[i])``.

    The standard cumsum/repeat trick: one flat ``arange`` over the total
    length, shifted per block so each block restarts at its own start.
    Zero-length blocks contribute nothing. Used to gather every range's
    segment of a run with a single fancy-index.
    """
    total = int(lengths.sum())
    idx = np.arange(total, dtype=np.int64)
    ends = np.cumsum(lengths)
    # Position of block b in the flat arange is ends[b] - lengths[b].
    idx += np.repeat(starts - (ends - lengths), lengths)
    return idx


def merge_tagged_segments(
    rids: np.ndarray, keys: np.ndarray, values: np.ndarray, n_ranges: int
) -> BatchResult:
    """Newest-wins merge of range-tagged entries, one lexsort per batch.

    The (non-empty) arrays must list sources that may share a key oldest →
    newest (the precedence order :func:`repro.lsm.entry.merge_sorted_sources`
    takes). The stable ``(range_id, key)`` lexsort groups each range,
    sorts it by key, and leaves the newest copy of every duplicate key
    last in its group — so keep-last dedup plus tombstone drop equal the
    per-range reference merge. Returns flat ``(keys, values, offsets)``
    with ``offsets`` of length ``n_ranges + 1`` delimiting each range's
    slice.
    """
    order = np.lexsort((keys, rids))  # stable; rids primary, keys secondary
    rids = rids[order]
    keys = keys[order]
    values = values[order]
    keep = np.empty(len(keys), dtype=bool)
    keep[:-1] = (rids[1:] != rids[:-1]) | (keys[1:] != keys[:-1])
    keep[-1] = True
    alive = keep & (values != TOMBSTONE)
    rids = rids[alive]
    offsets = np.searchsorted(rids, np.arange(n_ranges + 1))
    return keys[alive], values[alive], offsets


def scan_batch(
    trees: Sequence, los: np.ndarray, his: np.ndarray, span=None
) -> BatchResult:
    """Scan R ranges over every tree of ``trees`` (key-disjoint: one tree,
    or the shards of a hash-partitioned store): charges each tree every
    probe and I/O cost (bit-identically to R per-op scans of that tree,
    in the same order) but does not count operations — engines layer op
    counting on top (:meth:`LSMTree.range_scan_batch` counts here,
    :meth:`ShardedStore.range_scan_batch` counts on home shards). Returns
    flat ``(keys, values, offsets)`` arrays where range ``i``'s live
    entries are ``keys[offsets[i]:offsets[i + 1]]``, sorted by key.

    Callers must validate ``los``/``his``; ranges are inclusive on both
    ends and every ``los[i] <= his[i]``. ``span`` is the caller's open
    trace span (``None`` untraced): each of :data:`RANGE_STAGES` the call
    reaches is lapped on it once.
    """
    n_ranges = len(los)
    if n_ranges == 0:
        return empty_batch_result(0)
    # --- search: one searchsorted pair per source, bounds stacked ---
    # Sources in charge/precedence order: tree by tree, deepest level
    # first, runs oldest -> newest within a level, memtable last (newest,
    # never charged). Every run is charged its probes, empty overlap or
    # not; an empty run searches to (0, 0) and so charges zero pages.
    key_arrays: List[np.ndarray] = []
    value_arrays: List[np.ndarray] = []
    page_sizes: List[int] = []
    #: Per tree: its first source row, the levels it charges (deepest
    #: first) and, per run, that run's index into those levels.
    plans: List[Tuple[int, List[int], List[int]]] = []
    for tree in trees:
        level_nos: List[int] = []
        level_of_run: List[int] = []
        first_row = len(key_arrays)
        for level in reversed(tree.levels):
            runs = level.runs
            if runs:
                level_of_run += [len(level_nos)] * len(runs)
                level_nos.append(level.level_no)
                for run in runs:
                    key_arrays.append(run.keys)
                    value_arrays.append(run.values)
                    page_sizes.append(run.entries_per_page)
        plans.append((first_row, level_nos, level_of_run))
        mk, mv = tree.memtable.sorted_view()
        if len(mk):
            key_arrays.append(mk)
            value_arrays.append(mv)
            page_sizes.append(1)
    if not key_arrays:
        return empty_batch_result(n_ranges)
    shape = (len(key_arrays), n_ranges)
    starts = np.concatenate([k.searchsorted(los) for k in key_arrays])
    stops = np.concatenate([k.searchsorted(his, "right") for k in key_arrays])
    starts, stops = starts.reshape(shape), stops.reshape(shape)
    lengths = stops - starts
    # Page span of each non-empty segment: last_page - first_page + 1
    # (stops never exceeds the run, so SortedRun.page_of_position's clamp
    # is a no-op here). Transposed: the replay below is range-major.
    epp = np.array(page_sizes)[:, None]
    pages = np.where(lengths > 0, (stops - 1) // epp - starts // epp + 1, 0)
    page_rows = pages.T.tolist()
    if span is not None:
        span.lap("range_search")

    # --- charge: replay the reference cost sequence, range-major ---
    # probe_cpu(1) returns 1 * run_probe_cpu_s == the constant itself, and
    # sequential_read(p) returns p * seq_read_s; adding those products to
    # each accumulator in the reference order reproduces the exact float
    # rounding sequence of R per-op scans. The window accumulators run
    # from 0.0 and are simply not written back when no mission is open.
    # The seq-read counter is an integer total, so it sums once at the end.
    for tree, (first_row, level_nos, level_of_run) in zip(trees, plans):
        costs = tree.config.costs
        probe_cost = 1 * costs.run_probe_cpu_s
        seq_read_s = costs.seq_read_s
        stats = tree.stats
        now = tree.clock.now
        total, level_totals, window, window_levels = stats.read_totals(level_nos)
        seq_pages = 0
        last_row = first_row + len(level_of_run)
        for row in page_rows:
            for lv, n_pages in zip(level_of_run, row[first_row:last_row]):
                now += probe_cost
                total += probe_cost
                level_totals[lv] += probe_cost
                window += probe_cost
                window_levels[lv] += probe_cost
                if n_pages:
                    seq_pages += n_pages
                    io_cost = n_pages * seq_read_s
                    now += io_cost
                    total += io_cost
                    level_totals[lv] += io_cost
                    window += io_cost
                    window_levels[lv] += io_cost
        tree.clock.advance_to(now)
        stats.set_read_totals(level_nos, total, level_totals, window, window_levels)
        tree.disk.counters.seq_reads += seq_pages
    if span is not None:
        span.lap("range_charge")

    # --- gather: one fancy-index per non-empty source, tagged by range ---
    # The in-source index of every gathered entry comes from one
    # multi_arange over all (source, range) segments; a source's share of
    # it is the slice its row total delimits.
    cuts = [0] + np.cumsum(lengths.sum(axis=1)).tolist()
    if not cuts[-1]:
        return empty_batch_result(n_ranges)
    flat_lengths = lengths.ravel()
    idx = multi_arange(starts.ravel(), flat_lengths)
    rids = np.repeat(
        np.tile(np.arange(n_ranges, dtype=np.int64), len(key_arrays)), flat_lengths
    )
    slices = [idx[a:b] for a, b in zip(cuts, cuts[1:])]
    keys = np.concatenate([k[i] for k, i in zip(key_arrays, slices) if len(i)])
    values = np.concatenate([v[i] for v, i in zip(value_arrays, slices) if len(i)])
    if span is not None:
        span.lap("range_gather")

    # --- merge: one (range_id, key) lexsort for the whole batch ---
    result = merge_tagged_segments(rids, keys, values, n_ranges)
    if span is not None:
        span.lap("range_merge")
    return result
