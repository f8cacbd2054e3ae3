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
``src/`` called them; they live here as functions of a run.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.lsm.entry import TOMBSTONE


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
    schedule, same ``probe_cpu``/``add_read`` charges per run, same Bloom
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
            probe_cost = tree.disk.probe_cpu(len(pending))
            tree.stats.add_read(level.level_no, probe_cost)
            positives = run.bloom_positive_batch(keys[pending])
            if not positives.any():
                continue
            probe_idx = pending[positives]
            hit, hit_values, pages = find_batch(run, keys[probe_idx])
            io_cost = tree.disk.random_read_batch(run.run_id, pages)
            tree.stats.add_read(level.level_no, io_cost)
            if hit.any():
                hit_idx = probe_idx[hit]
                resolved[hit_idx] = True
                real = hit_values[hit] != TOMBSTONE
                found[hit_idx] = real
                values[hit_idx[real]] = hit_values[hit][real]
                pending = pending[~np.isin(pending, hit_idx, assume_unique=True)]
    return found, values
