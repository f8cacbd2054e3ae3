"""The per-op range scan, kept as the executable specification.

``src/`` ships one range implementation
(:func:`repro.lsm.rangepath.scan_batch`); this is the loop it replaced,
verbatim — per range exactly the seed's scalar ``range_lookup`` body (op
count, then the run walk with one scalar :func:`range_slice` per run, the
O(M) memtable dict scan, and one ``merge_sorted_sources``) — with only
the outputs packed into the batch ``(keys, values, offsets)`` layout so
both paths can be diffed directly. ``tests/test_rangepath.py`` and
``benchmarks/test_range_path_scale.py`` import it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from reference_get import add_read, page_of_position, probe_cpu

from repro.lsm.entry import merge_sorted_sources
from repro.lsm.memtable import MemTable
from repro.lsm.rangepath import BatchResult, empty_batch_result


def range_items_scan(table: MemTable, lo: int, hi: int) -> Dict[int, int]:
    """Buffered entries with ``lo <= key <= hi`` (including tombstones)
    by full dict scan — the O(M) path the sorted-view batch path is
    verified against."""
    return {k: v for k, v in table._entries.items() if lo <= k <= hi}


def range_slice(run, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """``run``'s entries with ``lo <= key <= hi`` plus the pages touched:
    ``(keys, values, n_pages_read)``. An empty overlap costs zero pages
    (fence pointers prove the range is absent without I/O)."""
    if run.n_entries == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), 0
    start = int(np.searchsorted(run.keys, lo, side="left"))
    stop = int(np.searchsorted(run.keys, hi, side="right"))
    if start >= stop:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), 0
    first_page = page_of_position(run, start)
    last_page = page_of_position(run, stop - 1)
    return run.keys[start:stop], run.values[start:stop], last_page - first_page + 1


def reference_range_scan_batch(
    tree, los: np.ndarray, his: np.ndarray
) -> BatchResult:
    """One full per-op scan per range, counted and charged on ``tree``."""
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
                probe_cost = probe_cpu(tree.disk, 1)
                add_read(tree.stats, level.level_no, probe_cost)
                run_keys, run_values, n_pages = range_slice(run, lo, hi)
                if n_pages:
                    io_cost = tree.disk.sequential_read(n_pages)
                    add_read(tree.stats, level.level_no, io_cost)
                if len(run_keys):
                    key_arrays.append(run_keys)
                    value_arrays.append(run_values)
        buffered = range_items_scan(tree.memtable, lo, hi)
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
