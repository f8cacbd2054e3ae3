"""Merging iteration over the whole tree.

Used by verification utilities and examples to view the live contents of an
LSM-tree as a single sorted stream, without charging simulated I/O (it is an
in-memory debugging view, not a database scan — use
:meth:`LSMTree.range_lookup` for cost-accounted scans).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.lsm.entry import merge_sorted_sources
from repro.lsm.tree import LSMTree


def live_items(tree: LSMTree) -> "Tuple[np.ndarray, np.ndarray]":
    """All live ``(keys, values)`` of ``tree``, sorted by key.

    Tombstoned keys are excluded. No simulated cost is charged.
    """
    key_arrays = []
    value_arrays = []
    for level in reversed(tree.levels):  # deepest (oldest) first
        for run in level.runs:  # oldest → newest within the level
            if run.n_entries:
                key_arrays.append(run.keys)
                value_arrays.append(run.values)
    mk, mv = tree.memtable.sorted_view()
    if len(mk):
        key_arrays.append(mk)
        value_arrays.append(mv)
    return merge_sorted_sources(key_arrays, value_arrays, drop_tombstones=True)
