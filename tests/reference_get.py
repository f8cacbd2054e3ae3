"""The run-at-a-time point lookup, kept as the executable specification.

``src/`` ships one point-lookup implementation (the stacked
level-at-a-time ``LSMTree.get_batch``); this is the loop it replaced,
verbatim. The production path must be **bit-identical** to it in every
observable: found/values output, simulated clock, per-level read charges,
I/O and cache counters, and the Bloom RNG stream.
``tests/test_readpath.py`` and ``benchmarks/test_read_path_scale.py``
import it.

The per-run, per-key probes it is written in (:func:`find`,
:func:`find_batch`, :func:`bloom_positive`, :func:`position_of`,
:func:`page_of_position`) were ``SortedRun`` methods until nothing in
``src/`` called them; they live here as functions of a run. So do the
per-charge calls (:func:`probe_cpu`, :func:`random_read_batch`,
:func:`advance_repeated`, :func:`add_read`), once ``DiskModel``,
``SimClock`` and ``StatsCollector`` methods: ``src/`` charges a read
plan's pass into locals written back once (``ReadPlan._replay``), and
these state the per-charge arithmetic it must equal.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import StorageError
from repro.lsm.entry import TOMBSTONE
from repro.storage.cache import PAGE_LIMIT


def advance_repeated(clock, seconds: float, times: int) -> float:
    """Advance ``clock`` by ``seconds``, ``times`` times; returns the total
    charged, accumulated by the same repeated addition as the clock."""
    if seconds < 0:
        raise StorageError(f"cannot advance clock by {seconds} s")
    if times < 0:
        raise StorageError(f"cannot advance clock {times} times")
    total = 0.0
    for _ in range(times):
        total += seconds
        clock.advance(seconds)
    return total


def probe_cpu(disk, n_runs: int = 1) -> float:
    """CPU cost of probing the metadata of ``n_runs`` sorted runs (the
    paper's ``c_r``), charged to ``disk``'s clock in one step."""
    return disk._charge(n_runs, disk._costs.run_probe_cpu_s, "n_runs")


def random_read_batch(disk, run_id: int, page_indices) -> float:
    """Read several pages of one run; returns total charged seconds.

    Cached pages cost nothing. With no cache configured, the whole batch is
    priced in one step. With a cache, the batch runs through
    ``LRUBlockCache.access_batch``, and the clock and total accumulate by
    repeated per-miss addition (:func:`advance_repeated`), bit-identical to
    charging page by page.
    """
    n = len(page_indices)
    if n == 0:
        return 0.0
    if disk.cache.capacity == 0:
        disk.cache.misses += n
        disk.counters.random_reads += n
        return disk._charge(n, disk._costs.random_read_s, "n")
    pages = np.asarray(page_indices)
    low, high = int(pages.min()), int(pages.max())
    if low < 0 or high >= PAGE_LIMIT:
        raise StorageError(f"page_index must lie in [0, 2**32), got {low if low < 0 else high}")
    misses = n - disk.cache.access_batch(run_id, pages.tolist())
    disk.counters.random_reads += misses
    return advance_repeated(disk.clock, disk._costs.random_read_s, misses)


def add_read(stats, level_no: int, seconds: float) -> None:
    """Attribute lookup-path time to ``level_no`` on ``stats``: the
    cumulative and per-level totals, and the open window's two."""
    stats.total_read_time += seconds
    stats.level_read_time[level_no] = stats.level_read_time.get(level_no, 0.0) + seconds
    window = stats._current
    if window is not None:
        window.read_time += seconds
        window.level_read_time[level_no] = window.level_read_time.get(level_no, 0.0) + seconds


def bloom_positive(run, key: int) -> bool:
    """Whether ``run``'s Bloom filter directs a disk probe for ``key``."""
    return run._bloom.might_contain(key)


def position_of(run, key: int) -> int:
    """Rank ``key`` would occupy in ``run``; used by fence pointers."""
    return int(np.searchsorted(run.keys, key))


def page_of_position(run, position: int) -> int:
    """Page index holding the entry at ``position`` (clamped to the run)."""
    if run.n_entries == 0:
        return 0
    position = min(max(position, 0), run.n_entries - 1)
    return position // run.entries_per_page


def find(run, key: int) -> Tuple[bool, int, int]:
    """Exact search: ``(found, value, page_index)``.

    ``page_index`` is the page a fence-pointer-guided probe would read,
    whether or not the key is present (a Bloom false positive still costs
    that one page read).
    """
    pos = position_of(run, key)
    page = page_of_position(run, pos)
    if pos < run.n_entries and run.keys[pos] == key:
        return True, int(run.values[pos]), page
    return False, 0, page


def find_batch(run, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`find`: ``(found_mask, values, page_indices)``."""
    keys = np.asarray(keys, dtype=np.int64)
    if run.n_entries == 0:
        n = len(keys)
        return (
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
        )
    pos = np.searchsorted(run.keys, keys)
    clamped = np.minimum(pos, run.n_entries - 1)
    found = run.keys[clamped] == keys
    values = np.where(found, run.values[clamped], 0)
    pages = clamped // run.entries_per_page
    return found, values, pages


def reference_get_batch(tree, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The pre-vectorization ``get_batch``: one Python iteration per run.

    Kept as the executable reference the stacked level-at-a-time
    pipeline is verified against (same probe
    schedule, same :func:`probe_cpu` / :func:`add_read` charges per run, same Bloom
    RNG consumption, same ``O(n log n)`` ``np.isin`` pending-set
    maintenance the production path replaced with ``O(n)`` masks).
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    tree.stats.count_lookup(n)
    resolved, buffered_values = tree.memtable.get_batch(keys)
    found = resolved & (buffered_values != TOMBSTONE)
    values = np.where(found, buffered_values, 0)

    pending = np.flatnonzero(~resolved)
    for level in tree.levels:
        if len(pending) == 0:
            break
        for run in reversed(level.runs):
            if len(pending) == 0:
                break
            probe_cost = probe_cpu(tree.disk, len(pending))
            add_read(tree.stats, level.level_no, probe_cost)
            positives = run.bloom_positive_batch(keys[pending])
            if not positives.any():
                continue
            probe_idx = pending[positives]
            hit, hit_values, pages = find_batch(run, keys[probe_idx])
            io_cost = random_read_batch(tree.disk, run.run_id, pages)
            add_read(tree.stats, level.level_no, io_cost)
            if hit.any():
                hit_idx = probe_idx[hit]
                resolved[hit_idx] = True
                real = hit_values[hit] != TOMBSTONE
                found[hit_idx] = real
                values[hit_idx[real]] = hit_values[hit][real]
                pending = pending[~np.isin(pending, hit_idx, assume_unique=True)]
    return found, values
