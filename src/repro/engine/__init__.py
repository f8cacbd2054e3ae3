"""Pluggable storage engines.

:class:`KVEngine` is the structural contract every engine satisfies;
:class:`~repro.lsm.tree.LSMTree` (the paper's FLSM-tree) is the single-tree
reference implementation and :class:`ShardedStore` the hash-partitioned
multi-tree one.
"""

from repro.engine.base import KVEngine
from repro.engine.sharded import (
    ShardedStore,
    merge_mission_stats,
    shard_of,
    shard_of_key,
)

__all__ = [
    "KVEngine",
    "ShardedStore",
    "shard_of",
    "shard_of_key",
    "merge_mission_stats",
]
