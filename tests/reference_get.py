"""The run-at-a-time point lookup, kept as the executable specification.

``src/`` ships one point-lookup implementation (the stacked
level-at-a-time ``LSMTree.get_batch``); this is the loop it replaced,
verbatim. The production path must be **bit-identical** to it in every
observable: found/values output, simulated clock, per-level read charges,
I/O and cache counters, and the Bloom RNG stream.
``tests/test_readpath.py`` and ``benchmarks/test_read_path_scale.py``
import it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.lsm.entry import TOMBSTONE


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
            hit, hit_values, pages = run.find_batch(keys[probe_idx])
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
