"""Build registry views of live (or restored) system components.

These collectors *read* engine, tuner and server state into a
:class:`~repro.obs.metrics.MetricsRegistry` — they never mutate what they
observe, so collecting is safe at any point between missions and has zero
simulated impact by construction. They are the only way a registry gets
its values: a registry is never merged, saved or restored. Because every
value here is sourced from state that round-trips bit-exactly through
:mod:`repro.persist` snapshots, the registry view of a restored system
equals the view of the live system it was cut from (wall-clock serving
histograms, which snapshots deliberately exclude, are collected only from
live servers).

Label vocabulary: ``shard`` (tree index within the engine), ``level``
(LSM level number, 0 = memtable pseudo-level), ``tenant`` (serving
traffic class), ``policy`` (named compaction discipline), ``op``
(operation / IO class).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry


def collect_engine_metrics(
    engine, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Registry view of any :class:`~repro.engine.base.KVEngine` — one
    ``view()`` per shard (``tuning_targets`` order), one series per shard
    and per level where applicable."""
    registry = registry if registry is not None else MetricsRegistry()
    clock = registry.counter(
        "repro_sim_clock_seconds",
        "simulated seconds consumed by the shard's cost model",
        labels=("shard",),
    )
    level_time = registry.counter(
        "repro_sim_level_seconds",
        "cumulative simulated seconds attributed to one level",
        labels=("shard", "level", "op"),
    )
    io_pages = registry.counter(
        "repro_io_pages",
        "cumulative simulated page IOs by class",
        labels=("shard", "op"),
    )
    cache = registry.counter(
        "repro_cache_events",
        "cumulative block-cache hits and misses",
        labels=("shard", "op"),
    )
    ops = registry.counter(
        "repro_ops",
        "cumulative operations counted on their home shard",
        labels=("shard", "op"),
    )
    entries = registry.gauge(
        "repro_engine_entries",
        "stored entries including the memtable",
        labels=("shard",),
    )
    levels = registry.gauge(
        "repro_engine_levels", "instantiated LSM levels", labels=("shard",)
    )
    level_k = registry.gauge(
        "repro_engine_level_k",
        "per-level compaction policy K (runs per level)",
        labels=("shard", "level"),
    )
    named = registry.gauge(
        "repro_engine_named_policy",
        "1 for the pinned named compaction policy (absent when unpinned)",
        labels=("shard", "policy"),
    )
    missions = registry.counter(
        "repro_missions",
        "completed mission windows",
        labels=("shard",),
    )
    for index, tree in enumerate(engine.tuning_targets()):
        shard = str(index)
        view = tree.view()
        clock.labels(shard=shard).inc(float(view.clock_now))
        for level_no, seconds in sorted(view.level_read_time.items()):
            level_time.labels(shard=shard, level=level_no, op="read").inc(
                float(seconds)
            )
        for level_no, seconds in sorted(view.level_write_time.items()):
            level_time.labels(shard=shard, level=level_no, op="write").inc(
                float(seconds)
            )
        io = view.io_counters
        io_pages.labels(shard=shard, op="random_read").inc(io.random_reads)
        io_pages.labels(shard=shard, op="random_write").inc(io.random_writes)
        io_pages.labels(shard=shard, op="seq_read").inc(io.seq_reads)
        io_pages.labels(shard=shard, op="seq_write").inc(io.seq_writes)
        cache.labels(shard=shard, op="hit").inc(view.cache_hits)
        cache.labels(shard=shard, op="miss").inc(view.cache_misses)
        ops.labels(shard=shard, op="lookup").inc(view.total_lookups)
        ops.labels(shard=shard, op="update").inc(view.total_updates)
        ops.labels(shard=shard, op="range").inc(view.total_ranges)
        entries.labels(shard=shard).set(view.total_entries)
        levels.labels(shard=shard).set(view.n_levels)
        for level_no, k in enumerate(view.policies[0], start=1):
            level_k.labels(shard=shard, level=level_no).set(int(k))
        pinned = view.named_policy[0]
        if pinned is not None:
            named.labels(shard=shard, policy=pinned).set(1)
        missions.labels(shard=shard).inc(view.windows_closed)
    return registry


def collect_durable_metrics(
    store, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Registry view of a :class:`~repro.durable.store.DurableStore`:
    engine metrics plus durability telemetry (WAL/SSTable/manifest byte
    and record counters, wall-clock file-I/O seconds, and the last
    recovery's replay summary).

    Wall-clock series here are telemetry only — the simulated cost model
    never sees file I/O, so these counters have zero simulated impact
    (the same contract as the serve-path histograms).
    """
    registry = registry if registry is not None else MetricsRegistry()
    collect_engine_metrics(store, registry)
    telemetry = store.telemetry
    events = registry.counter(
        "repro_durable_events",
        "durable-store event counts (records, files, commits, orphans)",
        labels=("op",),
    )
    for op in (
        "wal_records",
        "wal_syncs",
        "wal_rotations",
        "wal_records_replayed",
        "sstables_written",
        "manifest_edits",
        "manifest_rotations",
        "commits",
        "orphans_removed",
    ):
        events.labels(op=op).inc(int(telemetry[op]))
    written = registry.counter(
        "repro_durable_bytes",
        "bytes appended to durable files by kind",
        labels=("op",),
    )
    written.labels(op="wal").inc(int(telemetry["wal_bytes"]))
    written.labels(op="sstable").inc(int(telemetry["sstable_bytes"]))
    wall = registry.counter(
        "repro_durable_wall_seconds",
        "host wall seconds spent on durable file I/O (telemetry only)",
        labels=("op",),
    )
    wall.labels(op="wal").inc(float(telemetry["wall_wal_s"]))
    wall.labels(op="sstable").inc(float(telemetry["wall_sstable_s"]))
    wall.labels(op="manifest").inc(float(telemetry["wall_manifest_s"]))
    wall.labels(op="recovery").inc(float(telemetry["wall_recovery_s"]))
    registry.gauge(
        "repro_durable_acked_seqno",
        "highest WAL-acknowledged sequence number",
    ).labels().set(int(store.acked_seqno))
    report = store.last_recovery
    if report is not None:
        recovery = registry.gauge(
            "repro_durable_recovery",
            "summary of the most recent directory open/recovery",
            labels=("op",),
        )
        recovery.labels(op="created").set(int(report.created))
        recovery.labels(op="manifest_edits").set(int(report.manifest_edits))
        recovery.labels(op="runs_opened").set(int(report.runs_opened))
        recovery.labels(op="recovered_entries").set(
            int(report.recovered_entries)
        )
        recovery.labels(op="wal_segments").set(int(report.wal_segments))
        recovery.labels(op="wal_records_replayed").set(
            int(report.wal_records_replayed)
        )
        recovery.labels(op="wal_ops_replayed").set(
            int(report.wal_ops_replayed)
        )
        recovery.labels(op="wal_torn").set(int(report.wal_torn))
        recovery.labels(op="manifest_torn").set(int(report.manifest_torn))
        recovery.labels(op="orphans_removed").set(int(report.orphans_removed))
    return registry


def collect_tuner_metrics(
    tuners, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Registry view of a tuner list (one label per ``shard`` position).

    Works for any :class:`~repro.core.tuners.Tuner`; fields specific to
    the learned tuners (restarts, convergence, model-update time) appear
    only when present. A shared tuner and a shared audit log count once.
    """
    registry = registry if registry is not None else MetricsRegistry()
    restarts = registry.counter(
        "repro_tuner_restarts",
        "exploration restarts (workload-shift detector and resets)",
        labels=("shard",),
    )
    converged = registry.gauge(
        "repro_tuner_converged",
        "1 once the tuner considers tuning converged (committed / propagated)",
        labels=("shard",),
    )
    model_seconds = registry.counter(
        "repro_tuner_model_seconds",
        "host wall seconds spent in tuning-model updates",
        labels=("shard",),
    )
    audit_events = registry.counter(
        "repro_tuner_audit_events",
        "decision audit events recorded",
        labels=("shard",),
    )
    seen = set()  # ids of tuners and audit logs already counted
    for index, tuner in enumerate(tuners):
        if id(tuner) in seen:
            continue
        seen.add(id(tuner))
        shard = str(index)
        if hasattr(tuner, "restarts"):
            restarts.labels(shard=shard).inc(int(tuner.restarts))
        if hasattr(tuner, "converged"):
            converged.labels(shard=shard).set(int(bool(tuner.converged)))
        if hasattr(tuner, "total_model_update_s"):
            model_seconds.labels(shard=shard).inc(
                float(tuner.total_model_update_s)
            )
        audit = getattr(tuner, "audit", None)
        if audit is not None and id(audit) not in seen:
            seen.add(id(audit))
            audit_events.labels(shard=shard).inc(len(audit))
    return registry


def collect_store_metrics(
    store, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Registry view of a :class:`~repro.core.ruskey.RusKey` store:
    engine + tuner metrics plus the controller's mission log summary."""
    registry = registry if registry is not None else MetricsRegistry()
    collect_engine_metrics(store.engine, registry)
    collect_tuner_metrics(store.tuners, registry)
    registry.counter(
        "repro_store_missions", "missions the controller has processed"
    ).labels().inc(store.missions_run)
    if store.mission_log:
        registry.gauge(
            "repro_store_mean_latency_seconds",
            "mean simulated latency per operation over the mission log",
        ).labels().set(store.mean_latency())
    return registry


def collect_server_metrics(
    server, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Registry view of a live :class:`~repro.serve.server.KVServer`:
    engine metrics plus per-lane admission counters and per-tenant
    wall-clock latency histograms (labels ``shard`` / ``tenant``)."""
    registry = registry if registry is not None else MetricsRegistry()
    collect_engine_metrics(server.engine, registry)
    completed = registry.counter(
        "repro_serve_requests",
        "requests completed or rejected per lane",
        labels=("shard", "op"),
    )
    latency = registry.histogram(
        "repro_serve_latency_seconds",
        "wall-clock request latency (queueing + service)",
        labels=("shard", "tenant"),
    )
    for index, lane in enumerate(server.lanes):
        shard = str(index)
        completed.labels(shard=shard, op="completed").inc(int(lane.completed))
        completed.labels(shard=shard, op="rejected").inc(int(lane.rejected))
        # The lane's worker may add a tenant meanwhile: read a snapshot.
        for tenant, hist in list(lane.histograms.items()):
            latency.labels(shard=shard, tenant=tenant).merge(hist)
    return registry
