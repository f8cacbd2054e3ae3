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
    # Deepest level first, oldest → newest within a level, the buffer last.
    runs = [run for level in reversed(tree.levels) for run in level.runs]
    mk, mv = tree.memtable.sorted_view()
    return merge_sorted_sources(
        [run.keys for run in runs] + [mk], [run.values for run in runs] + [mv], drop_tombstones=True
    )
