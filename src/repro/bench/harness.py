"""Experiment harness: run systems × workloads and collect series.

One *system* is a named way of building a store (a tuner plus its natural
initial policy); one *experiment* runs several systems over one workload and
collects per-mission latency series, policy traces and mission statistics —
the raw material of every figure and table in the paper's evaluation.

Long experiments can be checkpointed and resumed: set
``Experiment.checkpoint_every`` (missions per checkpoint) and re-run with
``resume=True`` — or drive it from the command line::

    python -m repro.bench dynamic --checkpoint-every 100 --resume

Resume is *bit-exact*: workload generators are deterministic from their
seed, so the already-processed prefix of the mission stream is regenerated
and skipped, and the restored store (engine + tuners, see
:mod:`repro.persist`) continues as if never interrupted.
"""

from __future__ import annotations

import os
import re
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
    """A workload plus run-shape parameters shared by all systems.

    ``checkpoint_every > 0`` snapshots each system's full store (engine +
    tuners, via :mod:`repro.persist`) every that-many missions under
    ``checkpoint_dir``; with ``resume=True`` an interrupted run picks up
    from the latest checkpoint and finishes bit-exactly.
    """

    name: str
    workload: WorkloadSpec
    n_missions: int
    mission_size: int
    base_config: SystemConfig
    chunk_size: int = 128
    systems: List[SystemSpec] = field(default_factory=list)
    checkpoint_every: int = 0
    checkpoint_dir: str = "checkpoints"
    resume: bool = False

    def __post_init__(self) -> None:
        if self.n_missions < 1 or self.mission_size < 1:
            raise WorkloadError("n_missions and mission_size must be >= 1")
        if self.checkpoint_every < 0:
            raise WorkloadError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )


def _slug(text: str) -> str:
    """A filesystem-safe token for checkpoint file names."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "unnamed"


def checkpoint_path(experiment: Experiment, system: SystemSpec) -> str:
    """Where one system's checkpoint of this experiment lives."""
    return os.path.join(
        experiment.checkpoint_dir,
        f"{_slug(experiment.name)}__{_slug(system.name)}.ckpt",
    )


def _workload_fingerprint(workload: WorkloadSpec) -> object:
    """What generates ``workload``'s mission stream: its public scalar
    parameters (seed, mix, record count, ...), per phase for a dynamic
    schedule."""
    if hasattr(workload, "phases"):
        return workload.name, [
            (_workload_fingerprint(phase.spec), phase.n_missions)
            for phase in workload.phases
        ]
    return sorted(
        (key, value)
        for key, value in vars(workload).items()
        if not key.startswith("_") and isinstance(value, (bool, int, float, str))
    )


def _resume_fingerprint(
    experiment: Experiment, system: SystemSpec
) -> Dict[str, object]:
    """Identifies the run a checkpoint was cut from.

    The store config alone cannot distinguish two runs that share a
    ``SystemConfig`` but differ in workload seed, mix, record count,
    mission size or tuner hyperparameters, so this fingerprint is saved in
    checkpoint meta and must match on resume. (Tuners built by a custom
    ``make_tuner`` closure are beyond fingerprinting; ``lerp_config``
    covers the default path.)
    """
    return {
        "workload": _workload_fingerprint(experiment.workload),
        "mission_size": experiment.mission_size,
        "lerp_config": repr(system.lerp_config),
    }


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
    """Run one system through the experiment's workload (checkpointing and
    resuming per the experiment's settings)."""
    ckpt_path: Optional[str] = None
    if experiment.checkpoint_every > 0 or experiment.resume:
        os.makedirs(experiment.checkpoint_dir, exist_ok=True)
        ckpt_path = checkpoint_path(experiment, system)
    store: Optional[RusKey] = None
    if experiment.resume and ckpt_path and os.path.exists(ckpt_path):
        from repro.errors import SnapshotError
        from repro.persist import load_snapshot

        payload = load_snapshot(ckpt_path, expected_kind="store")
        store = payload["object"]
        if (
            store.config
            != experiment.base_config.with_updates(initial_policy=system.initial_policy)
            or store.runner.chunk_size != experiment.chunk_size
            or payload["meta"].get("fingerprint")
            != _resume_fingerprint(experiment, system)
        ):
            raise SnapshotError(
                f"checkpoint {ckpt_path} was taken under a different "
                "configuration, workload shape or tuner setup (e.g. "
                "another REPRO_BENCH_SCALE or chunk size); delete it or "
                "rerun with the matching settings"
            )
    if store is None:
        store = build_store(experiment, system)
    done = store.missions_run
    missions = experiment.workload.missions(
        experiment.n_missions, experiment.mission_size
    )
    for index, mission in enumerate(missions):
        if index < done:
            continue  # deterministic generator: regenerate and skip
        store.run_mission(mission)
        if (
            ckpt_path
            and experiment.checkpoint_every > 0
            and (index + 1) % experiment.checkpoint_every == 0
        ):
            from repro.persist import save_store

            fingerprint = _resume_fingerprint(experiment, system)
            meta = {"experiment": experiment.name, "fingerprint": fingerprint}
            save_store(store, ckpt_path, meta=meta)
    # A checkpoint may hold more missions than this run asked for (resuming
    # a shortened experiment); report exactly the requested prefix.
    return SeriesResult(
        system=system.name,
        missions=store.mission_log[: experiment.n_missions],
        policy_history=store.policy_history[: experiment.n_missions],
    )


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
