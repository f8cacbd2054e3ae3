"""The vectorized batch range-scan path and its scalar reference.

Range counterpart of :mod:`repro.lsm.readpath` (ROADMAP item 6): the
per-op reference scan walks every run with its own pair of scalar
``searchsorted`` calls and runs one ``merge_sorted_sources`` per range.
:func:`scan_batch` does the same work for a whole batch of R ranges at
once:

* **search** — one vectorized ``np.searchsorted(run.keys, los/his)``
  pair per run yields all R segment bounds, and the fence-pointer page
  counts fall out of integer math on the bounds (the page of rank ``r``
  is ``r // entries_per_page``, clamped like
  :meth:`SortedRun.page_of_position`).
* **charge** — simulated costs are replayed in exactly the reference
  order (range-major: for each range, deepest level first, runs oldest →
  newest within a level; ``probe_cpu`` per run, then ``sequential_read``
  when the segment touches pages). Float accumulation is
  order-dependent, so the replay *is* the bit-identity proof: same
  charge sequence, same clock, same per-level read attribution.
* **gather** — each run contributes all its segments through one
  fancy-index; segments are tagged with their range id.
* **merge** — one stable ``(range_id, key)`` lexsort over every gathered
  segment replaces R separate ``merge_sorted_sources`` calls: within a
  range, equal keys keep source order (oldest → newest), so keep-last
  dedup and tombstone drop reproduce the per-range merge exactly.

The memtable contributes through its lazily-built sorted view (two
``searchsorted`` calls per batch) instead of R O(M) dict scans; building
the view is host-side caching with no simulated cost, exactly like the
point-lookup path.

:func:`reference_range_scan_batch` keeps the pre-vectorization per-op
loop verbatim as an executable specification — the equivalence suite
(``tests/test_rangepath.py``) and the ``range_path_scale`` benchmark
both diff :meth:`LSMTree.range_scan_batch` against it on identical tree
snapshots.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.lsm.entry import TOMBSTONE, merge_sorted_sources
from repro.lsm.readpath import perf_counter

#: Profiler stage names added to :data:`repro.lsm.readpath.STAGES` for the
#: batch range path, in pipeline order.
RANGE_STAGES = ("range_search", "range_charge", "range_gather", "range_merge")

BatchResult = Tuple[np.ndarray, np.ndarray, np.ndarray]


def empty_batch_result(n_ranges: int) -> BatchResult:
    """``(keys, values, offsets)`` for a batch with no live entries."""
    empty = np.zeros(0, dtype=np.int64)
    return empty, empty.copy(), np.zeros(n_ranges + 1, dtype=np.int64)


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
    rid_parts: List[np.ndarray],
    key_parts: List[np.ndarray],
    value_parts: List[np.ndarray],
    n_ranges: int,
) -> BatchResult:
    """Newest-wins merge of range-tagged segments, one lexsort per batch.

    ``parts`` lists must be ordered oldest source → newest source (the
    same precedence order :func:`repro.lsm.entry.merge_sorted_sources`
    takes). The stable ``(range_id, key)`` lexsort groups each range,
    sorts it by key, and leaves the newest copy of every duplicate key
    last in its group — so keep-last dedup plus tombstone drop equal the
    per-range reference merge. Returns flat ``(keys, values, offsets)``
    with ``offsets`` of length ``n_ranges + 1`` delimiting each range's
    slice.
    """
    if not key_parts:
        return empty_batch_result(n_ranges)
    rids = np.concatenate(rid_parts)
    keys = np.concatenate(key_parts)
    values = np.concatenate(value_parts)
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


def scan_batch(tree, los: np.ndarray, his: np.ndarray) -> BatchResult:
    """Scan R ranges: charges every probe and I/O cost (bit-identically
    to R per-op reference scans, in the same order) but does not count
    operations — engines layer op counting on top
    (:meth:`LSMTree.range_scan_batch` counts here,
    :meth:`ShardedStore.range_scan_batch` counts on home shards while
    scanning every shard). Returns flat ``(keys, values, offsets)``
    arrays where range ``i``'s live entries are
    ``keys[offsets[i]:offsets[i + 1]]``, sorted by key.

    Callers must validate ``los``/``his``; ranges are inclusive on both
    ends and every ``los[i] <= his[i]``.
    """
    n_ranges = len(los)
    if n_ranges == 0:
        return empty_batch_result(0)
    prof = tree.read_profiler
    if prof is not None:
        prof.note_range_batch(n_ranges)
        t0 = perf_counter()

    # --- search: all R segment bounds + page counts, one pass per run ---
    # Sources in charge/precedence order: deepest level first, runs
    # oldest -> newest within a level, memtable last (newest). Every run
    # enters the charge plan (probes are charged even for empty overlap);
    # only runs with data enter the gather list.
    charge_plan: List[Tuple[int, List[int]]] = []  # (level_no, pages per range)
    gather: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    zero_pages: List[int] = [0] * n_ranges
    for level in reversed(tree.levels):
        level_no = level.level_no
        for run in level.runs:
            n_entries = run.n_entries
            if n_entries == 0:
                charge_plan.append((level_no, zero_pages))
                continue
            starts = np.searchsorted(run.keys, los, side="left")
            stops = np.searchsorted(run.keys, his, side="right")
            # Page span of each non-empty segment, matching
            # SortedRun.range_slice: last_page - first_page + 1 with both
            # positions clamped into the run.
            epp = run.entries_per_page
            first_page = starts // epp
            last_page = np.minimum(stops - 1, n_entries - 1) // epp
            pages = np.where(starts < stops, last_page - first_page + 1, 0)
            charge_plan.append((level_no, pages.tolist()))
            gather.append((run.keys, run.values, starts, stops))
    mk, mv = tree.memtable.sorted_view()
    if len(mk):
        m_starts = np.searchsorted(mk, los, side="left")
        m_stops = np.searchsorted(mk, his, side="right")
        gather.append((mk, mv, m_starts, m_stops))
    if prof is not None:
        prof.add("range_search", perf_counter() - t0)
        t0 = perf_counter()

    # --- charge: replay the reference cost sequence, range-major ---
    # probe_cpu(1) returns 1 * run_probe_cpu_s == the constant itself, and
    # sequential_read(p) returns p * seq_read_s; charging those products
    # through clock.advance in the reference order reproduces the exact
    # float rounding sequence of R per-op scans. The seq-read counter is
    # an integer total, so it sums once at the end.
    costs = tree.config.costs
    probe_cost = 1 * costs.run_probe_cpu_s
    seq_read_s = costs.seq_read_s
    advance = tree.clock.advance
    add_read = tree.stats.add_read
    seq_pages = 0
    for r in range(n_ranges):
        for level_no, pages in charge_plan:
            advance(probe_cost)
            add_read(level_no, probe_cost)
            n_pages = pages[r]
            if n_pages:
                seq_pages += n_pages
                io_cost = n_pages * seq_read_s
                advance(io_cost)
                add_read(level_no, io_cost)
    tree.disk.counters.seq_reads += seq_pages
    if prof is not None:
        prof.add("range_charge", perf_counter() - t0)
        t0 = perf_counter()

    # --- gather: one fancy-index per source, tagged with range ids ---
    rid_range = np.arange(n_ranges, dtype=np.int64)
    rid_parts: List[np.ndarray] = []
    key_parts: List[np.ndarray] = []
    value_parts: List[np.ndarray] = []
    for src_keys, src_values, starts, stops in gather:
        lengths = stops - starts
        if not lengths.any():
            continue
        idx = multi_arange(starts, lengths)
        rid_parts.append(np.repeat(rid_range, lengths))
        key_parts.append(src_keys[idx])
        value_parts.append(src_values[idx])
    if prof is not None:
        prof.add("range_gather", perf_counter() - t0)
        t0 = perf_counter()

    # --- merge: one (range_id, key) lexsort for the whole batch ---
    result = merge_tagged_segments(rid_parts, key_parts, value_parts, n_ranges)
    if prof is not None:
        prof.add("range_merge", perf_counter() - t0)
    return result


def reference_range_scan_batch(
    tree, los: np.ndarray, his: np.ndarray
) -> BatchResult:
    """The pre-vectorization range path: one full per-op scan per range.

    Kept verbatim as the executable specification — per range this is
    exactly the seed's scalar ``range_lookup`` body (op count, then the
    run walk with scalar ``range_slice`` calls, the O(M) memtable dict
    scan, and one ``merge_sorted_sources``)
    — only the outputs are packed into the batch ``(keys, values,
    offsets)`` layout so both paths can be diffed directly.
    """
    result_keys: List[np.ndarray] = []
    result_values: List[np.ndarray] = []
    offsets = np.zeros(len(los) + 1, dtype=np.int64)
    for i, (lo, hi) in enumerate(zip(los.tolist(), his.tolist())):
        if lo > hi:
            raise ValueError(f"empty range: lo={lo} > hi={hi}")
        tree.stats.count_range()
        key_arrays: List[np.ndarray] = []
        value_arrays: List[np.ndarray] = []
        # Oldest sources first so merge_sorted_sources keeps the newest.
        for level in reversed(tree.levels):
            for run in level.runs:  # within a level: oldest -> newest
                probe_cost = tree.disk.probe_cpu(1)
                tree.stats.add_read(level.level_no, probe_cost)
                run_keys, run_values, n_pages = run.range_slice(lo, hi)
                if n_pages:
                    io_cost = tree.disk.sequential_read(n_pages)
                    tree.stats.add_read(level.level_no, io_cost)
                if len(run_keys):
                    key_arrays.append(run_keys)
                    value_arrays.append(run_values)
        buffered = tree.memtable.range_items_scan(lo, hi)
        if buffered:
            mk = np.fromiter(buffered.keys(), dtype=np.int64, count=len(buffered))
            mv = np.fromiter(
                buffered.values(), dtype=np.int64, count=len(buffered)
            )
            order = np.argsort(mk, kind="stable")
            key_arrays.append(mk[order])
            value_arrays.append(mv[order])
        keys, values = merge_sorted_sources(
            key_arrays, value_arrays, drop_tombstones=True
        )
        result_keys.append(keys)
        result_values.append(values)
        offsets[i + 1] = offsets[i] + len(keys)
    if not result_keys:
        return empty_batch_result(len(los))
    return (
        np.concatenate(result_keys),
        np.concatenate(result_values),
        offsets,
    )
