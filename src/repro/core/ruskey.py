"""RusKey: the self-tuning key-value store (the paper's system).

:class:`RusKey` is a thin facade over a pluggable storage engine
(:class:`~repro.engine.base.KVEngine`) and its tuner(s). Per the paper's
workflow (Section 3.1): the store processes a mission, the statistics
collector reports mission statistics, the tuner extracts experience
samples, updates its networks and issues a tuning strategy, and the
FLSM-tree applies it through the flexible transition before the next
mission.

The engine is an :class:`~repro.lsm.tree.LSMTree` (the FLSM-tree) by
default; pass ``n_shards > 1`` for a hash-partitioned
:class:`~repro.engine.sharded.ShardedStore` (or any engine via ``engine=``).
The facade forwards the batch data path and ``view()``; the scalar ops and
the read-only accessors are the shared derived ones
(:class:`~repro.lsm.tree.DerivedMembers`) over those forwards.
Tuning composes across shards in two ways:

* ``tuner=`` — one *shared* tuner instance observes every shard's tree and
  per-shard mission stats in turn (the natural fit for stateless baselines
  such as :class:`~repro.core.tuners.StaticTuner`);
* default / ``tuners=[...]`` — one *independent* tuner per shard (the
  default builds one :class:`~repro.core.lerp.Lerp` per shard through
  :func:`~repro.core.lerp.per_shard_tuners`, the per-instance-model
  composition of CAMAL/ArceKV style tuning).

The same facade also hosts the baselines — pass a
:class:`~repro.core.tuners.StaticTuner` for the paper's Aggressive /
Moderate / Lazy configurations, or any other tuner.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.config import SystemConfig, TransitionKind
from repro.core.lerp import Lerp, LerpConfig, per_shard_tuners
from repro.core.missions import MissionRunner
from repro.core.tuners import Tuner
from repro.engine.sharded import ShardedStore
from repro.errors import ConfigError, WorkloadError
from repro.lsm.stats import EngineView, MissionStats
from repro.lsm.tree import DerivedMembers, LSMTree
from repro.workload.spec import Mission, WorkloadSpec


class RusKey(DerivedMembers):
    """A storage engine driven by (pluggable) tuning models."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        tuner: Optional[Tuner] = None,
        lerp_config: Optional[LerpConfig] = None,
        chunk_size: int = 64,
        engine=None,
        n_shards: int = 1,
        tuners: Optional[List[Tuner]] = None,
    ) -> None:
        self.config = config if config is not None else SystemConfig()
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        if engine is None:
            if n_shards > 1:
                engine = ShardedStore(self.config, n_shards)
            else:
                engine = LSMTree(self.config)
        elif n_shards != 1:
            raise ConfigError(
                "pass either engine= or n_shards, not both "
                f"(got an explicit engine and n_shards={n_shards})"
            )
        self.engine = engine
        targets = engine.tuning_targets()
        if tuners is not None:
            if len(tuners) != len(targets):
                raise ConfigError(
                    f"got {len(tuners)} tuners for {len(targets)} tuning "
                    "targets; pass one per target"
                )
            self.tuners: List[Tuner] = list(tuners)
        elif tuner is not None:
            self.tuners = [tuner] * len(targets)
        else:
            base = lerp_config if lerp_config is not None else LerpConfig()
            self.tuners = per_shard_tuners(Lerp, self.config, base, len(targets))
        #: The (first) tuner; with independent per-shard tuners see
        #: :attr:`tuners` for the rest.
        self.tuner: Tuner = self.tuners[0]
        self.runner = MissionRunner(engine, chunk_size=chunk_size)
        self.mission_log: List[MissionStats] = []
        self.policy_history: List[List[int]] = []
        #: The one log :meth:`attach_audit` handed to every tuner.
        self.audit = None

    # ------------------------------------------------------------------
    # Data access (pass-through to the engine)
    # ------------------------------------------------------------------
    def put_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Vectorized insert of many entries (the hot ingestion path)."""
        self.engine.put_batch(keys, values)

    def get_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized point lookups; returns ``(found_mask, values)``."""
        return self.engine.get_batch(keys)

    def delete_batch(self, keys: np.ndarray) -> None:
        """Vectorized delete of many keys."""
        self.engine.delete_batch(keys)

    def range_scan_batch(
        self, los: np.ndarray, his: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized range lookups; returns flat ``(keys, values,
        offsets)`` arrays (see :meth:`LSMTree.range_scan_batch`)."""
        return self.engine.range_scan_batch(los, his)

    def bulk_load(
        self, keys: np.ndarray, values: np.ndarray, distribute: bool = False
    ) -> None:
        """Populate an empty store (no simulated time is charged)."""
        self.engine.bulk_load(keys, values, distribute=distribute)

    def view(self) -> EngineView:
        """The engine's cumulative simulated state (aggregated over shards)."""
        return self.engine.view()

    def policies(self) -> List[int]:
        """Current per-level compaction policies (representative shard)."""
        return self.engine.policies()

    def named_policy(self) -> Optional[str]:
        """The pinned named compaction policy, if any (representative
        shard)."""
        return self.engine.named_policy()

    def set_named_policy(
        self,
        policy,
        transition: TransitionKind = TransitionKind.FLEXIBLE,
    ) -> None:
        """Pin the engine to a named compaction policy (leveling / tiering /
        lazy-leveling)."""
        self.engine.set_named_policy(policy, transition)

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------
    def attach_audit(self, audit) -> None:
        """Attach one :class:`repro.obs.audit.DecisionAuditLog` to every
        distinct tuner (a shared tuner instance is attached once). Audit
        recording is host-side only — simulated results are bit-identical
        with or without it (DESIGN.md §12)."""
        self.audit = audit
        for tuner in dict.fromkeys(self.tuners):
            tuner.attach_audit(audit)

    # ------------------------------------------------------------------
    # Mission loop
    # ------------------------------------------------------------------
    def run_mission(self, mission: Mission) -> MissionStats:
        """Process one mission, then let the tuner(s) adapt the engine."""
        stats = self.runner.run(mission)
        for tuner, target, part in zip(
            self.tuners,
            self.engine.tuning_targets(),
            self.engine.last_mission_breakdown(),
        ):
            tuner.observe_mission(target, part)
        self.mission_log.append(stats)
        self.policy_history.append(self.policies())
        return stats

    def run_workload(
        self,
        workload: WorkloadSpec,
        n_missions: int,
        mission_size: int,
        load: bool = True,
    ) -> List[MissionStats]:
        """Bulk load the workload's records (optional) and run its missions."""
        if n_missions < 1 or mission_size < 1:
            raise WorkloadError("n_missions and mission_size must be >= 1")
        if load:
            if self.engine.total_entries:
                raise WorkloadError(
                    "store already contains data; pass load=False to continue"
                )
            if not hasattr(workload, "load_records"):
                raise WorkloadError(
                    f"workload {workload.name!r} does not provide load_records"
                )
            keys, values = workload.load_records()  # type: ignore[attr-defined]
            self.bulk_load(keys, values)
        return self.run_missions(workload.missions(n_missions, mission_size))

    def run_missions(self, missions: Iterable[Mission]) -> List[MissionStats]:
        """Run a pre-built mission stream."""
        return [self.run_mission(mission) for mission in missions]

    @property
    def missions_run(self) -> int:
        """Number of missions processed so far."""
        return len(self.mission_log)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def latency_series(self) -> np.ndarray:
        """Per-mission mean latency per operation (simulated seconds)."""
        return np.asarray([m.latency_per_op for m in self.mission_log])

    def mean_latency(self, last_n: Optional[int] = None) -> float:
        """Mean per-op latency over the last ``last_n`` missions (or all)."""
        if last_n is not None and last_n < 1:
            raise ConfigError(f"last_n must be >= 1, got {last_n}")
        series = self.latency_series()
        if len(series) == 0:
            return 0.0
        if last_n is not None:
            series = series[-last_n:]
        return float(series.mean())
