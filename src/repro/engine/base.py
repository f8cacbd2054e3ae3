"""The formal storage-engine contract.

Every component above the storage layer — :class:`~repro.core.missions.MissionRunner`,
the :class:`~repro.core.ruskey.RusKey` facade and the benchmark harness —
drives the store exclusively through :class:`KVEngine`. The reference
implementation is :class:`~repro.lsm.tree.LSMTree` (the paper's FLSM-tree);
:class:`~repro.engine.sharded.ShardedStore` implements the same contract
over N hash-partitioned shards.

``KVEngine`` is a structural :class:`typing.Protocol` rather than an ABC so
the LSM layer does not need to import this package (no inheritance, no
import cycle): any object with the right methods *is* an engine, and
``isinstance(obj, KVEngine)`` checks conformance at runtime.

The protocol lists the 16 *primitive* members — what an engine must
implement itself. What follows from them (scalar ``get`` / ``range_lookup``
/ ``put`` / ``delete`` as one-element batches; ``clock_now`` /
``io_counters`` / ``cache_hits`` / ``cache_misses`` / ``total_entries`` as
reads of ``view()``) is defined once, in
:class:`~repro.lsm.tree.DerivedMembers`, which every engine inherits.

The contract, beyond plain data access:

* **Batch paths** — ``put_batch``/``delete_batch``/``get_batch``/
  ``range_scan_batch`` are *the* data path. ``put_batch`` and
  ``delete_batch`` must be semantically equivalent to a per-key loop
  against the same engine state (identical flush boundaries and cost
  charging), just vectorized; a delete is a write of the tombstone.
* **One view** — ``view()`` is an immutable
  :class:`~repro.lsm.stats.EngineView` of every cumulative simulated
  observable; a sharded engine's is the left fold (``+``) of its shards',
  and engines that must be sim-identical compare ``==``.
* **Mission windows** — ``begin_mission``/``end_mission`` bracket one batch
  of operations; ``end_mission`` returns the window's aggregated
  :class:`~repro.lsm.stats.MissionStats`. For a sharded engine the returned
  record sums the per-shard windows (see DESIGN.md, "Sharded stats
  aggregation").
* **Tuning surface** — ``tuning_targets`` exposes the underlying tree(s) a
  :class:`~repro.core.tuners.Tuner` may adjust, and
  ``last_mission_breakdown`` the matching per-target stats of the last
  completed mission, so one tuner (or one tuner per shard) can be wired to
  any engine without knowing its topology.
* **Policy control** — ``set_policies`` sets the compaction policy of
  levels ``1..len(policies)`` using a given transition kind on every
  underlying tree; ``set_named_policy``/``named_policy`` do the same for
  the named tiering/leveling/lazy-leveling dimension
  (:mod:`repro.lsm.policy`), which is also the discrete policy action
  surface the RL tuner drives.
"""

from __future__ import annotations

from typing import (
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.config import SystemConfig, TransitionKind
from repro.lsm.stats import EngineView, MissionStats


@runtime_checkable
class KVEngine(Protocol):
    """Structural contract of a simulated key-value storage engine."""

    config: SystemConfig

    # -- batch data path ------------------------------------------------
    def put_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Vectorized insert; equivalent to per-key inserts in order."""
        ...

    def delete_batch(self, keys: np.ndarray) -> None:
        """Vectorized delete (tombstone writes); equivalent to per-key
        deletes in order."""
        ...

    def get_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized lookups; returns ``(found_mask, values)``."""
        ...

    def range_scan_batch(
        self, los: np.ndarray, his: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized inclusive range lookups, counted and charged in
        submission order; returns flat ``(keys, values, offsets)`` arrays
        where range ``i``'s live entries are
        ``keys[offsets[i]:offsets[i + 1]]``."""
        ...

    def bulk_load(
        self, keys: np.ndarray, values: np.ndarray, distribute: bool = False
    ) -> None:
        """Populate an empty engine without charging simulated time."""
        ...

    # -- mission windows ------------------------------------------------
    def begin_mission(self) -> None:
        """Open a stats window covering the next batch of operations."""
        ...

    def end_mission(self) -> MissionStats:
        """Close the window; returns its (aggregated) statistics."""
        ...

    # -- tuning surface -------------------------------------------------
    def tuning_targets(self) -> Sequence[object]:
        """The underlying tree(s) a tuner may adjust, in a stable order."""
        ...

    def last_mission_breakdown(self) -> Sequence[MissionStats]:
        """Per-target stats of the last completed mission (aligned with
        :meth:`tuning_targets`)."""
        ...

    def policies(self) -> List[int]:
        """Representative per-level compaction policies, shallow to deep."""
        ...

    def set_policies(
        self, new_policies: Sequence[int], transition: TransitionKind
    ) -> None:
        """Set the policy of levels ``1..len(policies)`` on every tree."""
        ...

    def named_policy(self) -> Optional[str]:
        """Name of the pinned compaction policy (representative tree), or
        ``None`` when levels are governed by raw per-level ``K`` values."""
        ...

    def set_named_policy(
        self, policy: object, transition: TransitionKind
    ) -> None:
        """Pin every underlying tree to a named compaction policy
        (leveling / tiering / lazy-leveling) via ``transition``."""
        ...

    # -- observability --------------------------------------------------
    def set_tracer(self, tracer: object) -> None:
        """Attach (or detach with ``None``) a :class:`repro.obs.trace.Tracer`
        to the engine's batch entry points. Tracing is host-wall-clock
        observation only — it must leave every simulated observable
        bit-identical (the zero-sim-impact contract, DESIGN.md §12)."""
        ...

    # -- introspection --------------------------------------------------
    def view(self) -> EngineView:
        """Immutable reading of the engine's cumulative simulated state
        (aggregated over its trees)."""
        ...

    def check_invariants(self) -> None:
        """Raise if any structural invariant is violated."""
        ...
