"""The vectorized batch range-scan path (DESIGN.md §11).

Range counterpart of :meth:`LSMTree.get_batch`: :func:`scan_batch` scans a
batch of R ranges over a *sequence of key-disjoint trees* (one tree, or
every shard of a hash-partitioned store) in one pass — **search** (one
``searchsorted`` pair per run and per memtable sorted view, stacked into
``(n_sources, R)`` matrices), **charge** (each tree's
:class:`~repro.lsm.readplan.ReadPlan` replays its costs in per-op order),
**gather** (one fancy-index per non-empty source, entries tagged with their
range id) and **merge** (one stable ``(range_id, key)`` lexsort: equal
keys keep source order, so keep-last dedup and tombstone drop reproduce
the per-range merge, and key-disjoint trees never compete).

The per-op loop this path must match bit for bit lives test-side
(``tests/reference_range.py``); the oracle (``tests/test_oracle.py``) and
the ``range_path_scale`` benchmark diff against it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.lsm.entry import TOMBSTONE, validate_keys
from repro.lsm.readplan import ReadPlan, range_sources, search_ranges

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
        raise ValueError(f"los/his must have equal length, got {los.shape} vs {his.shape}")
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


def scan_batch(trees: Sequence, los: np.ndarray, his: np.ndarray, span=None) -> BatchResult:
    """Scan R validated inclusive ranges over key-disjoint ``trees``,
    charging each tree bit-identically to R per-op scans of it; counting is
    the engines' (a tree counts every range, a sharded store each on its
    home shard). Returns flat ``(keys, values, offsets)``: range ``i``'s
    live entries, sorted, are ``keys[offsets[i]:offsets[i + 1]]``. Each of
    :data:`RANGE_STAGES` reached is lapped once on ``span``.
    """
    n_ranges = len(los)
    if n_ranges == 0:
        return empty_batch_result(0)
    # --- search: sources tree by tree, its runs in charge order, then its
    # memtable (newest, never charged); an empty run charges zero pages ---
    key_arrays: List[np.ndarray] = []
    value_arrays: List[np.ndarray] = []
    page_sizes: List[int] = []
    charged = []  # per tree: (tree, its first source row, its runs, their levels)
    for tree in trees:
        runs, levels = range_sources(tree)
        charged.append((tree, len(key_arrays), len(runs), levels))
        key_arrays += [run.keys for run in runs]
        value_arrays += [run.values for run in runs]
        page_sizes += [run.entries_per_page for run in runs]
        mk, mv = tree.memtable.sorted_view()
        if len(mk):
            key_arrays.append(mk)
            value_arrays.append(mv)
            page_sizes.append(1)
    if not key_arrays:
        return empty_batch_result(n_ranges)
    starts, lengths, pages = search_ranges(key_arrays, page_sizes, los, his)
    if span is not None:
        span.lap("range_search")

    # --- charge: each tree's read plan replays its rows, range-major ---
    for tree, first, n_runs, levels in charged:
        if n_runs:
            ReadPlan(tree).charge_ranges(pages[first : first + n_runs], levels)
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
    rids = np.repeat(np.tile(np.arange(n_ranges, dtype=np.int64), len(key_arrays)), flat_lengths)
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
