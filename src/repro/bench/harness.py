"""Experiment harness: run systems × workloads and collect series.

One *system* is a named way of building a store (a tuner plus its natural
initial policy); one *experiment* runs several systems over one workload and
collects per-mission latency series, policy traces and mission statistics —
the raw material of every figure and table in the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.core.lerp import LerpConfig
from repro.core.ruskey import RusKey
from repro.core.tuners import Tuner
from repro.errors import ConfigError, WorkloadError
from repro.lsm.stats import MissionStats
from repro.workload.spec import WorkloadSpec

TunerFactory = Callable[[SystemConfig], Optional[Tuner]]


@dataclass
class SystemSpec:
    """A named system under test.

    ``make_tuner`` builds the tuner given the resolved config (return
    ``None`` for the default Lerp). ``initial_policy`` seeds every level —
    static baselines start in their steady-state structure, RusKey starts at
    leveling (K=1, RocksDB's default, as in the paper). ``n_shards > 1``
    runs the system on a hash-partitioned
    :class:`~repro.engine.sharded.ShardedStore` instead of a single tree
    (with one independent Lerp per shard when ``make_tuner`` returns
    ``None``, else one shared tuner instance observing every shard).
    """

    name: str
    make_tuner: TunerFactory
    initial_policy: int = 1
    lerp_config: Optional[LerpConfig] = None
    n_shards: int = 1


@dataclass
class SeriesResult:
    """Everything collected from one system's run."""

    system: str
    missions: List[MissionStats]
    policy_history: List[List[int]]

    @property
    def latencies(self) -> np.ndarray:
        """Per-mission mean latency per operation (simulated seconds)."""
        return np.asarray([m.latency_per_op for m in self.missions])

    def mean_latency(self, last_n: Optional[int] = None) -> float:
        if last_n is not None and last_n < 1:
            raise ConfigError(f"last_n must be >= 1, got {last_n}")
        series = self.latencies
        if last_n is not None:
            series = series[-last_n:]
        return float(series.mean()) if len(series) else 0.0

    def total_time(self) -> float:
        """End-to-end simulated seconds spent processing all missions."""
        return float(sum(m.total_time for m in self.missions))

    @property
    def cache_hits(self) -> int:
        """Block-cache hits over all missions (summed across shards)."""
        return sum(m.cache_hits for m in self.missions)

    @property
    def cache_misses(self) -> int:
        """Block-cache misses over all missions (summed across shards)."""
        return sum(m.cache_misses for m in self.missions)

    @property
    def cache_hit_rate(self) -> float:
        """Block-cache hit fraction over the whole run (0.0 = no cache or
        no hits)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass
class Experiment:
    """A workload plus run-shape parameters shared by all systems."""

    name: str
    workload: WorkloadSpec
    n_missions: int
    mission_size: int
    base_config: SystemConfig
    chunk_size: int = 128
    systems: List[SystemSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_missions < 1 or self.mission_size < 1:
            raise WorkloadError("n_missions and mission_size must be >= 1")


def build_store(experiment: Experiment, system: SystemSpec, engine=None) -> RusKey:
    """The loaded store ``system`` describes, ready for the experiment's
    first mission — the one ``SystemSpec`` → store builder, for the
    figures, the warm-start transfer and the serving experiments alike.

    ``engine`` (default: a tree, or a ``ShardedStore`` of
    ``system.n_shards``) is what a durable server passes in; an engine that
    already holds data — a reopened durable directory — is not re-loaded.
    """
    config = experiment.base_config.with_updates(
        initial_policy=system.initial_policy
    )
    # When make_tuner returns None, RusKey builds the default Lerp(s) from
    # lerp_config — one per shard, or a single one for an unsharded store.
    # An explicit tuner is shared across shards.
    tuner = system.make_tuner(config)
    store = RusKey(
        config,
        tuner=tuner,
        lerp_config=system.lerp_config,
        chunk_size=experiment.chunk_size,
        engine=engine,
        n_shards=system.n_shards,
    )
    workload = experiment.workload
    if hasattr(workload, "load_records") and not store.engine.total_entries:
        keys, values = workload.load_records()  # type: ignore[attr-defined]
        store.bulk_load(keys, values, distribute=True)
    return store


def run_system(experiment: Experiment, system: SystemSpec) -> SeriesResult:
    """Run one system through the experiment's workload, start to finish."""
    store = build_store(experiment, system)
    missions = store.run_missions(
        experiment.workload.missions(experiment.n_missions, experiment.mission_size)
    )
    return SeriesResult(system.name, missions, store.policy_history)


def run_experiment(experiment: Experiment) -> Dict[str, SeriesResult]:
    """Run every system of the experiment; returns results by system name."""
    if not experiment.systems:
        raise WorkloadError(f"experiment {experiment.name!r} has no systems")
    results: Dict[str, SeriesResult] = {}
    for system in experiment.systems:
        results[system.name] = run_system(experiment, system)
    return results


def session_rankings(
    results: Dict[str, SeriesResult], session_bounds: Sequence[int]
) -> Dict[str, List[int]]:
    """Per-session performance ranks (1 = best), paper Table 3 style.

    ``session_bounds`` holds the mission index where each session starts
    plus the total mission count as the final element. Within each session,
    only the second half of the missions is scored so systems are compared
    after tuning has settled (the paper compares "after the RL model is
    converged in each session").
    """
    if len(session_bounds) < 2:
        raise WorkloadError("session_bounds needs at least start and end")
    ranks: Dict[str, List[int]] = {name: [] for name in results}
    for start, stop in zip(session_bounds[:-1], session_bounds[1:]):
        settle = start + (stop - start) // 2
        means = {
            name: float(result.latencies[settle:stop].mean())
            for name, result in results.items()
        }
        ordered = sorted(means, key=means.get)
        for position, name in enumerate(ordered, start=1):
            ranks[name].append(position)
    return ranks
