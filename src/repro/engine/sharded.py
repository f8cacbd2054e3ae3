"""Hash-partitioned multi-tree engine.

:class:`ShardedStore` splits the keyspace over ``n_shards`` independent
FLSM-trees by a Fibonacci hash of the key. Each shard owns its clock, disk
model, cache and :class:`~repro.lsm.stats.StatsCollector`; the store's
:meth:`~ShardedStore.view` is the left fold of its shards' views, so
everything written against the :class:`~repro.engine.base.KVEngine`
contract (mission runner, tuners, benchmark harness) drives a sharded store
exactly like a single tree.

Aggregation rule (see DESIGN.md): shards model independent stores executing
their slice of the traffic serially on one device, so *times and counters
sum* across shards (``EngineView.__add__``) — ``clock_now`` is the sum of
shard clocks, the aggregated :class:`~repro.lsm.stats.MissionStats` of a
mission window sums the per-shard windows field by field, and per-level
time maps merge by summing per level. Operation counts are attributed to
exactly one shard (the key's home shard; a range scan counts once, on the
home shard of its start key) so aggregated counts equal the counts an
unsharded tree would report for the same operations.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SystemConfig, TransitionKind
from repro.errors import ConfigError, TreeStateError
from repro.lsm.entry import validate_batch, validate_keys
from repro.lsm.rangepath import empty_batch_result, scan_batch, validate_ranges
from repro.lsm.stats import EngineView, MissionStats, sum_level_maps
from repro.lsm.tree import DerivedMembers, LSMTree, open_span
from repro.storage.pager import IOCounters

if TYPE_CHECKING:  # obs depends on engine; annotate lazily to avoid a cycle
    from repro.obs.trace import Tracer

#: Fibonacci hashing multiplier (golden-ratio / 2^64, odd).
_HASH_MULT = 0x9E3779B97F4A7C15
_MASK_64 = (1 << 64) - 1


def shard_of(keys: np.ndarray, n_shards: int) -> np.ndarray:
    """Vectorized shard index for each 64-bit key.

    A multiplicative (Fibonacci) hash decorrelates shard choice from key
    magnitude, so both sequential and skewed keyspaces spread evenly.
    """
    h = np.asarray(keys, dtype=np.int64).astype(np.uint64)
    h = (h * np.uint64(_HASH_MULT)) >> np.uint64(17)
    return (h % np.uint64(n_shards)).astype(np.int64)


def shard_of_key(key: int, n_shards: int) -> int:
    """Scalar counterpart of :func:`shard_of` (bit-identical result)."""
    h = ((int(key) & _MASK_64) * _HASH_MULT) & _MASK_64
    return (h >> 17) % n_shards


def merge_mission_stats(
    index: int, parts: Sequence[MissionStats]
) -> MissionStats:
    """Sum per-shard mission windows into one store-level record."""
    return MissionStats(
        index=index,
        n_lookups=sum(p.n_lookups for p in parts),
        n_updates=sum(p.n_updates for p in parts),
        n_ranges=sum(p.n_ranges for p in parts),
        read_time=sum(p.read_time for p in parts),
        write_time=sum(p.write_time for p in parts),
        level_read_time=sum_level_maps(p.level_read_time for p in parts),
        level_write_time=sum_level_maps(p.level_write_time for p in parts),
        io=reduce(add, (p.io for p in parts), IOCounters()),
        sim_duration=sum(p.sim_duration for p in parts),
        cache_hits=sum(p.cache_hits for p in parts),
        cache_misses=sum(p.cache_misses for p in parts),
    )


class ShardedStore(DerivedMembers):
    """A :class:`~repro.engine.base.KVEngine` over N independent FLSM shards.

    ``tree_factory(config, shard_no)`` may be passed to customize shard
    construction; by default each shard is an :class:`LSMTree` with the
    shared config and a per-shard seed offset (so Bloom randomness is
    independent across shards).
    """

    def __init__(
        self,
        config: SystemConfig,
        n_shards: int,
        tree_factory: Optional[
            Callable[[SystemConfig, int], LSMTree]
        ] = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        self.config = config
        self.n_shards = n_shards
        if tree_factory is None:
            tree_factory = lambda cfg, i: LSMTree(  # noqa: E731
                cfg.with_updates(seed=cfg.seed + i)
            )
        self.shards: List[LSMTree] = [
            tree_factory(config, i) for i in range(n_shards)
        ]
        self._mission_index = 0
        self._last_breakdown: List[MissionStats] = []
        #: Optional span tracer (see :meth:`set_tracer`); store-level spans
        #: parent the per-shard ``lsm.*`` spans opened on the same thread.
        self.tracer: Optional["Tracer"] = None

    def set_tracer(self, tracer: "Optional[Tracer]") -> None:
        """Attach (or detach with ``None``) a span tracer to this store
        *and* every shard tree, so a store-level batch span nests the
        per-shard spans it fans out to."""
        self.tracer = tracer
        for shard in self.shards:
            shard.set_tracer(tracer)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _shard_groups(self, keys: np.ndarray):
        """Group a key batch per home shard with one stable sort.

        Yields ``(shard_no, idx)`` for each non-empty group, where ``idx``
        indexes the caller's arrays *in original order* (the stable sort
        preserves each shard's operation order, so per-shard execution is
        identical to routing the keys one by one).
        """
        shard_ids = shard_of(keys, self.n_shards)
        order = np.argsort(shard_ids, kind="stable")
        bounds = np.searchsorted(
            shard_ids[order], np.arange(self.n_shards + 1)
        )
        for s in range(self.n_shards):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            if lo != hi:
                yield s, order[lo:hi]

    # ------------------------------------------------------------------
    # Batch data path
    # ------------------------------------------------------------------
    def put_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Group the batch per shard, then bulk-insert each group — one
        memtable bulk-insert (and one flush check) per shard per batch
        instead of per key. The whole batch is validated before any shard
        sees it, so a rejected batch applies nothing."""
        keys, values = validate_batch(keys, values)
        if len(keys) == 0:
            return
        with open_span(self.tracer, "store.put_batch", n_keys=len(keys)):
            for s, idx in self._shard_groups(keys):
                self.shards[s].put_batch(keys[idx], values[idx])

    def delete_batch(self, keys: np.ndarray) -> None:
        """Group the keys per shard, then bulk-delete each group; as with
        :meth:`put_batch`, a batch that cannot be converted is rejected
        before any shard sees it."""
        keys = validate_keys(keys)
        if len(keys) == 0:
            return
        with open_span(self.tracer, "store.delete_batch", n_keys=len(keys)):
            for s, idx in self._shard_groups(keys):
                self.shards[s].delete_batch(keys[idx])

    def get_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized lookups grouped per shard (one batch call per shard
        instead of one mask scan per shard); results scatter back in the
        caller's order. As with the writes, the batch is validated before
        any shard counts a lookup."""
        keys = validate_keys(keys)
        n = len(keys)
        found = np.zeros(n, dtype=bool)
        values = np.zeros(n, dtype=np.int64)
        if n == 0:
            return found, values
        with open_span(self.tracer, "store.get_batch", n_keys=n):
            for s, idx in self._shard_groups(keys):
                shard_found, shard_values = self.shards[s].get_batch(keys[idx])
                found[idx] = shard_found
                values[idx] = shard_values
            return found, values

    def range_scan_batch(
        self, los: np.ndarray, his: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized cross-shard range scans.

        Hash partitioning does not preserve key order, so every shard
        scans the whole batch — in one stacked pass over all shards (see
        :func:`repro.lsm.rangepath.scan_batch`): per-shard charges replay
        in range order, bit-identical to a per-op loop (shard clocks are
        independent, so cross-shard interleaving is unobservable), and
        the key-disjoint shards' segments merge per range in the same
        ``(range_id, key)`` lexsort that merges each shard's runs. Each
        range is *counted* once, on the home shard of its ``lo``, so
        aggregated operation counts match an unsharded tree. Returns flat
        ``(keys, values, offsets)`` arrays in the
        :meth:`LSMTree.range_scan_batch` layout.
        """
        los, his = validate_ranges(los, his)
        n_ranges = len(los)
        if n_ranges == 0:
            return empty_batch_result(0)
        with open_span(
            self.tracer, "store.range_scan_batch", n_ranges=n_ranges
        ) as span:
            homes = np.bincount(shard_of(los, self.n_shards), minlength=self.n_shards)
            for shard, n_home in zip(self.shards, homes.tolist()):
                if n_home:
                    shard.stats.count_range(n_home)
            return scan_batch(self.shards, los, his, span)

    def bulk_load(
        self, keys: np.ndarray, values: np.ndarray, distribute: bool = False
    ) -> None:
        """Partition the records by shard and bulk-load each shard (the
        whole load is validated before any shard sees it)."""
        if self.total_entries:
            raise TreeStateError("bulk_load requires an empty store")
        keys, values = validate_batch(keys, values)
        for s, idx in self._shard_groups(keys):
            self.shards[s].bulk_load(keys[idx], values[idx], distribute=distribute)

    # ------------------------------------------------------------------
    # Mission windows
    # ------------------------------------------------------------------
    def begin_mission(self) -> None:
        for shard in self.shards:
            shard.begin_mission()

    def end_mission(self) -> MissionStats:
        parts = [shard.end_mission() for shard in self.shards]
        merged = merge_mission_stats(self._mission_index, parts)
        self._mission_index += 1
        self._last_breakdown = parts
        return merged

    # ------------------------------------------------------------------
    # Tuning surface
    # ------------------------------------------------------------------
    def tuning_targets(self) -> Sequence[LSMTree]:
        return self.shards

    def last_mission_breakdown(self) -> Sequence[MissionStats]:
        return self._last_breakdown

    def policies(self) -> List[int]:
        """Shard 0's per-level policies (the representative trajectory;
        with independent per-shard tuners shards may diverge — see
        ``view().policies``)."""
        return self.shards[0].policies()

    def set_policies(
        self, new_policies: Sequence[int], transition: TransitionKind
    ) -> None:
        """Set levels ``1..len(new_policies)`` on every shard."""
        for shard in self.shards:
            shard.set_policies(new_policies, transition)

    def set_policy(
        self, level_no: int, new_policy: int, transition: TransitionKind
    ) -> None:
        """Set one level's policy on every shard."""
        for shard in self.shards:
            shard.set_policy(level_no, new_policy, transition)

    def named_policy(self) -> Optional[str]:
        """Shard 0's pinned named policy (the representative trajectory;
        with independent per-shard tuners shards may diverge)."""
        return self.shards[0].named_policy()

    def set_named_policy(
        self, policy, transition: TransitionKind = TransitionKind.FLEXIBLE
    ) -> None:
        """Pin every shard to a named compaction policy (see
        :mod:`repro.lsm.policy`)."""
        for shard in self.shards:
            shard.set_named_policy(policy, transition)

    # ------------------------------------------------------------------
    # Aggregated introspection: one fold; the accessors read it (mixin)
    # ------------------------------------------------------------------
    def view(self) -> EngineView:
        """The shards' views folded left to right in shard order — floats
        round exactly as a ``sum(...)`` over the shards does."""
        return reduce(add, (shard.view() for shard in self.shards))

    @property
    def stats(self) -> EngineView:
        """The cumulative totals (``total_lookups``, ``total_read_time``,
        …) under the name a tree's collector has."""
        return self.view()

    def describe(self) -> List[List[Dict[str, object]]]:
        """Per-shard structural snapshots."""
        return [shard.describe() for shard in self.shards]

    def check_invariants(self) -> None:
        for shard in self.shards:
            shard.check_invariants()

    def __getstate__(self) -> Dict[str, object]:
        # The tracer is host wiring, re-attached by whoever loads the store.
        return {**vars(self), "tracer": None}
