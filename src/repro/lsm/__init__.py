"""The LSM/FLSM-tree storage engine.

``FLSMTree`` is the paper's name for :class:`LSMTree`: variable-size runs
live in :mod:`repro.lsm.level`, the flexible transition in
:meth:`Level.set_policy_flexible`.
"""

from repro.lsm.entry import TOMBSTONE, merge_sorted_sources
from repro.lsm.iterators import live_items
from repro.lsm.level import Level
from repro.lsm.memtable import MemTable
from repro.lsm.policy import (
    POLICY_NAMES,
    CompactionPolicy,
    LazyLevelingPolicy,
    LevelingPolicy,
    TieringPolicy,
    classify_policies,
    named_policies,
    policy_from_index,
    policy_index,
    resolve_policy,
)
from repro.lsm.run import SortedRun
from repro.lsm.stats import BUFFER_LEVEL, MissionStats, StatsCollector
from repro.lsm.tree import LSMTree

FLSMTree = LSMTree

__all__ = [
    "TOMBSTONE",
    "merge_sorted_sources",
    "MemTable",
    "SortedRun",
    "Level",
    "LSMTree",
    "FLSMTree",
    "StatsCollector",
    "MissionStats",
    "BUFFER_LEVEL",
    "CompactionPolicy",
    "LevelingPolicy",
    "TieringPolicy",
    "LazyLevelingPolicy",
    "POLICY_NAMES",
    "named_policies",
    "resolve_policy",
    "policy_index",
    "policy_from_index",
    "classify_policies",
    "live_items",
]
