"""Canonical serving experiments: live traffic + live tuning.

This is the serving-layer counterpart of :mod:`repro.bench.experiments`:
one function builds a loaded :class:`KVServer` for a (shards × tuner)
configuration — through :func:`repro.bench.harness.build_store`, the one
builder every experiment shares — one runs the open-loop tail-latency
comparison the ``serving_tail_latency`` benchmark and the
``python -m repro.serve`` CLI share, and one formats the paper-style text
report. Run shapes per tier are :func:`repro.bench.experiments.serving_scale`.

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
from typing import Dict, List, Optional

from repro.bench.experiments import (
    BenchScale,
    ServingScale,
    base_config,
    bench_lerp_config,
    bench_scale,
    serving_scale,
)
from repro.bench.harness import Experiment, SystemSpec, build_store
from repro.core.tuners import StaticTuner
from repro.serve.loadgen import LoadReport, LoadSpec, run_load
from repro.serve.server import KVServer
from repro.workload.dynamic import PAPER_SESSIONS, DynamicWorkload, paper_dynamic_workload


def serving_workload(
    scale: BenchScale, serving: ServingScale, seed: int = 0
) -> DynamicWorkload:
    """The five-session dynamic schedule, sessions sized in *missions* so
    the tier's ``n_ops`` requests sweep every one."""
    return paper_dynamic_workload(
        scale.n_records,
        max(1, serving.n_ops // (len(PAPER_SESSIONS) * serving.mission_size)),
        seed=seed + 23,
    )


def build_server(
    n_shards: int,
    tuned: bool,
    serving: Optional[ServingScale] = None,
    scale: Optional[BenchScale] = None,
    seed: int = 0,
    static_policy: int = 5,
    backend: str = "memory",
    data_dir: Optional[str] = None,
) -> KVServer:
    """A loaded, not-yet-started server for one configuration over
    :func:`serving_workload`'s records, built by ``build_store``.

    The write buffer is divided by ``n_shards`` so every configuration
    runs under the same *total* memory budget — the fair control for
    shard-count comparisons (per-shard flushes become smaller and stall
    their lane for less wall time).

    ``backend`` selects the engine: ``"memory"`` (a tree or a
    ``ShardedStore``) or ``"durable"``, a single-shard
    :class:`~repro.durable.store.DurableStore` rooted at ``data_dir``
    that survives ``kill -9`` (acknowledged writes are replayed from the
    WAL on the next open; a reopened directory is not loaded again).
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
    # Static baselines serve from their steady-state structure; RusKey
    # starts at leveling (K=1) as in the paper's experiments.
    policy = 1 if tuned else static_policy
    config = base_config(scale=scale, seed=seed).with_updates(initial_policy=policy)
    if n_shards > 1:
        config = config.with_updates(
            write_buffer_bytes=max(
                config.entry_bytes * 8, config.write_buffer_bytes // n_shards
            )
        )
    # window_ops == 0 disables the background tuning loop but a Lerp can
    # still be attached; size its schedule for a nominal budget.
    n_windows = (
        max(1, serving.n_ops // serving.window_ops) if serving.window_ops > 0 else 40
    )
    experiment = Experiment(
        "serving", serving_workload(scale, serving, seed), n_windows,
        serving.mission_size, config,
    )
    system = SystemSpec(
        "serving",
        (lambda config: None) if tuned else (lambda config: StaticTuner(static_policy)),
        policy,
        lerp_config=bench_lerp_config(max(40, n_windows), seed=seed) if tuned else None,
        n_shards=n_shards,
    )
    engine = None
    if backend == "durable":
        from repro.durable.store import DurableStore

        engine = DurableStore(data_dir, config)
    store = build_store(experiment, system, engine)
    return KVServer(
        store.engine,
        tuners=store.tuners,
        queue_capacity=serving.queue_capacity,
        max_batch=serving.max_batch,
        window_ops=serving.window_ops,
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
    server = build_server(n_shards, tuned, serving, scale, seed, static_policy)
    spec = LoadSpec(
        workload=serving_workload(scale, serving, seed),
        n_ops=serving.n_ops,
        rate=rate if rate is not None else serving.rate,
        mission_size=serving.mission_size,
        seed=seed,
    )
    server.start()
    try:
        report = run_load(server, spec)
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
    rate: Optional[float] = None,
) -> Dict[str, ServingRun]:
    """The benchmark grid: {1, 4} shards × {static, Lerp-tuned}, same offered
    load everywhere — the tier's ``n_ops`` requests at ``rate`` (default:
    the tier's own rate). Configurations run sequentially (each gets the
    whole machine); results key on the configuration name."""
    runs: Dict[str, ServingRun] = {}
    for n_shards in (1, 4):
        for tuned in (False, True):
            run = run_serving_config(n_shards, tuned, scale, serving, seed, rate)
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
        p = run.report.histogram.percentile_summary()
        lines.append(
            f"{name:>24} | {run.report.throughput:9,.0f} | "
            f"{run.report.offered_rate:9,.0f} | "
            f"{run.report.drop_fraction * 100:7.2f} | "
            f"{run.report.mean_queue_depth:7.1f} | "
            f"{p['p50_ms']:8.3f} | {p['p99_ms']:8.3f} | "
            f"{p['p999_ms']:8.3f} | {run.n_windows:7d}"
        )
    return "\n".join(lines)
