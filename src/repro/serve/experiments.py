"""Canonical serving experiments: live traffic + live tuning.

This is the serving-layer counterpart of :mod:`repro.bench.experiments`:
one function builds a loaded :class:`KVServer` for a (shards × tuner)
configuration, one runs the open-loop tail-latency comparison the
``serving_tail_latency`` benchmark and the ``python -m repro.serve`` CLI
share, and one formats the paper-style text report.

The headline comparison puts the same offered load (an open-loop Poisson
stream replaying the paper's five-session dynamic schedule) on four
configurations: {1, 4} shards × {static K, Lerp-tuned}. Shards serve from
per-lane worker threads with bounded queues; the tuning loop closes a
mission window every ``window_ops`` completed requests, so Lerp adapts the
store *while traffic flows*. Reported per configuration: completed
throughput, drop fraction, queue depth, and wall-clock p50/p99/p99.9.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.experiments import (
    BenchScale,
    base_config,
    bench_lerp_config,
    bench_scale,
)
from repro.config import SystemConfig
from repro.core.lerp import Lerp, per_shard_tuners
from repro.core.tuners import StaticTuner, Tuner
from repro.engine.sharded import ShardedStore
from repro.serve.loadgen import LoadReport, TenantSpec, run_load
from repro.serve.server import KVServer
from repro.workload.dynamic import paper_dynamic_workload
from repro.workload.spec import WorkloadSpec


@dataclass
class ServingScale:
    """Run-shape parameters of one serving-experiment tier: the open-loop
    clients offer exactly ``n_ops`` requests at ``rate``, so every
    configuration faces the same request stream."""

    n_ops: int  # offered requests
    rate: float  # open-loop offered rate (requests / wall second)
    window_ops: int  # mission-window length (completed requests)
    queue_capacity: int  # per-lane admission queue bound
    max_batch: int  # per-lane drain batch
    mission_size: int  # generator mission granularity


def serving_scale(scale: Optional[BenchScale] = None) -> ServingScale:
    """Serving run shapes per ``REPRO_BENCH_SCALE`` tier."""
    scale = scale or bench_scale()
    if scale.name == "quick":
        return ServingScale(
            n_ops=60_000,
            rate=40_000.0,
            window_ops=6_000,
            queue_capacity=512,
            max_batch=256,
            mission_size=1_000,
        )
    if scale.name == "full":
        return ServingScale(
            n_ops=600_000,
            rate=60_000.0,
            window_ops=25_000,
            queue_capacity=1_024,
            max_batch=512,
            mission_size=2_000,
        )
    return ServingScale(
        n_ops=150_000,
        rate=50_000.0,
        window_ops=12_000,
        queue_capacity=768,
        max_batch=384,
        mission_size=1_200,
    )


def build_server(
    n_shards: int,
    tuned: bool,
    config: Optional[SystemConfig] = None,
    workload: Optional[WorkloadSpec] = None,
    serving: Optional[ServingScale] = None,
    scale: Optional[BenchScale] = None,
    seed: int = 0,
    static_policy: int = 5,
    split_buffer: bool = True,
    backend: str = "memory",
    data_dir: Optional[str] = None,
) -> KVServer:
    """A loaded, not-yet-started server for one configuration.

    ``split_buffer`` divides the write buffer by ``n_shards`` so every
    configuration runs under the same *total* memory budget — the fair
    control for shard-count comparisons (per-shard flushes become smaller
    and stall their lane for less wall time).

    ``backend`` selects the engine: ``"memory"`` (the default
    :class:`ShardedStore`) or ``"durable"``, which serves from a
    :class:`~repro.durable.store.DurableStore` rooted at ``data_dir``
    (WAL + SSTables + manifest; single shard only — the durable store is
    one tree). A durable server survives ``kill -9``: acknowledged
    writes are replayed from the WAL on the next open.
    """
    if backend not in ("memory", "durable"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "durable":
        if n_shards != 1:
            raise ValueError("backend='durable' serves a single shard")
        if not data_dir:
            raise ValueError("backend='durable' requires a data_dir")
    scale = scale or bench_scale()
    serving = serving or serving_scale(scale)
    if config is None:
        config = base_config(scale=scale, seed=seed)
    # Static baselines serve from their steady-state structure; RusKey
    # starts at leveling (K=1) as in the paper's experiments.
    config = config.with_updates(initial_policy=1 if tuned else static_policy)
    if split_buffer and n_shards > 1:
        config = config.with_updates(
            write_buffer_bytes=max(
                config.entry_bytes * 8, config.write_buffer_bytes // n_shards
            )
        )
    if workload is None:
        workload = _default_workload(
            scale, seed, serving.n_ops, serving.mission_size
        )
    if backend == "durable":
        from repro.durable.store import DurableStore

        engine = DurableStore(data_dir, config)
        if engine.total_entries == 0:  # fresh directory: seed the dataset
            engine.bulk_load(*workload.load_records(), distribute=True)
    else:
        engine = ShardedStore(config, n_shards)
        engine.bulk_load(*workload.load_records(), distribute=True)
    tuners: Sequence[Tuner]
    if tuned:
        # window_ops == 0 disables the background tuning loop but a Lerp
        # can still be attached; size its schedule for a nominal budget.
        n_windows = (
            max(1, serving.n_ops // serving.window_ops)
            if serving.window_ops > 0
            else 40
        )
        lerp_config = bench_lerp_config(max(40, n_windows), seed=seed)
        tuners = per_shard_tuners(Lerp, config, lerp_config, n_shards)
    else:
        tuners = [StaticTuner(static_policy)] * n_shards
    return KVServer(
        engine,
        tuners=list(tuners),
        queue_capacity=serving.queue_capacity,
        max_batch=serving.max_batch,
        window_ops=serving.window_ops,
    )


def _default_workload(
    scale: BenchScale, seed: int, total_ops: int, mission_size: int
) -> WorkloadSpec:
    """The five-session dynamic schedule, phase lengths in *missions* sized
    so a request stream of ``total_ops`` sweeps every session."""
    missions_per_session = max(1, total_ops // (5 * mission_size))
    return paper_dynamic_workload(
        n_records=scale.n_records,
        missions_per_session=missions_per_session,
        seed=seed + 23,
    )


@dataclass
class ServingRun:
    """One configuration's serving outcome."""

    name: str
    n_shards: int
    tuned: bool
    report: LoadReport
    final_policies: List[List[int]]
    n_windows: int
    sim_seconds: float


def run_serving_config(
    n_shards: int,
    tuned: bool,
    scale: Optional[BenchScale] = None,
    serving: Optional[ServingScale] = None,
    seed: int = 0,
    rate: Optional[float] = None,
    static_policy: int = 5,
) -> ServingRun:
    """Serve the dynamic schedule open-loop against one configuration."""
    scale = scale or bench_scale()
    serving = serving or serving_scale(scale)
    workload = _default_workload(
        scale, seed, serving.n_ops, serving.mission_size
    )
    server = build_server(
        n_shards,
        tuned,
        workload=workload,
        serving=serving,
        scale=scale,
        seed=seed,
        static_policy=static_policy,
    )
    tenant = TenantSpec(
        name="dynamic",
        workload=workload,
        n_ops=serving.n_ops,
        rate=rate if rate is not None else serving.rate,
        mission_size=serving.mission_size,
        seed=seed,
    )
    server.start()
    try:
        report = run_load(server, [tenant])
    finally:
        server.stop()
    name = f"{'Lerp-tuned' if tuned else f'static K={static_policy}'}, " \
           f"{n_shards} shard{'s' if n_shards != 1 else ''}"
    return ServingRun(
        name=name,
        n_shards=n_shards,
        tuned=tuned,
        report=report,
        final_policies=[list(t.policies()) for t in server.engine.tuning_targets()],
        n_windows=len(server.windows),
        sim_seconds=float(server.engine.clock_now),
    )


def run_serving_comparison(
    scale: Optional[BenchScale] = None,
    serving: Optional[ServingScale] = None,
    seed: int = 0,
    shard_counts: Sequence[int] = (1, 4),
    rate: Optional[float] = None,
) -> Dict[str, ServingRun]:
    """The benchmark grid: {shards} × {static, Lerp-tuned}, same offered
    load everywhere — the tier's ``n_ops`` requests at ``rate`` (default:
    the tier's own rate). Configurations run sequentially (each gets the
    whole machine); results key on the configuration name."""
    runs: Dict[str, ServingRun] = {}
    for n_shards in shard_counts:
        for tuned in (False, True):
            run = run_serving_config(
                n_shards,
                tuned,
                scale=scale,
                serving=serving,
                seed=seed,
                rate=rate,
            )
            runs[run.name] = run
            print(
                f"[serve] {run.name}: {run.report.throughput:,.0f} req/s, "
                f"drops {run.report.drop_fraction * 100:.2f}%",
                file=sys.stderr,
            )
    return runs


def format_serving_report(
    runs: Dict[str, ServingRun], title: str = ""
) -> str:
    """Throughput / drops / queue depth / tail latency, one row per
    configuration (latencies are wall-clock milliseconds)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = (
        f"{'configuration':>24} | {'req/s':>9} | {'offered/s':>9} | "
        f"{'drop %':>7} | {'qdepth':>7} | {'p50 ms':>8} | {'p99 ms':>8} | "
        f"{'p99.9 ms':>8} | {'windows':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, run in runs.items():
        # One source for key naming and ms scaling: the histogram itself.
        p = run.report.histogram.percentile_summary((50.0, 99.0, 99.9))
        lines.append(
            f"{name:>24} | {run.report.throughput:9,.0f} | "
            f"{run.report.offered_rate:9,.0f} | "
            f"{run.report.drop_fraction * 100:7.2f} | "
            f"{run.report.mean_queue_depth:7.1f} | "
            f"{p['p50_ms']:8.3f} | {p['p99_ms']:8.3f} | "
            f"{p['p999_ms']:8.3f} | {run.n_windows:7d}"
        )
    return "\n".join(lines)
