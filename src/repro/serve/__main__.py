"""``python -m repro.serve`` — put live load on a store from the shell.

Examples::

    # one quick configuration: 4 Lerp-tuned shards, open loop at 30k req/s
    python -m repro.serve --shards 4 --tuned --rate 30000 --ops 50000

    # closed loop (4 synchronous clients), static K=5 baseline
    python -m repro.serve --shards 2 --closed-loop --clients 4 --ops 20000

    # the full benchmark grid (static vs Lerp × 1 vs 4 shards)
    python -m repro.serve --compare

Scales follow ``REPRO_BENCH_SCALE`` (quick / default / full) like the
offline benchmarks; all latencies printed are wall-clock.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.bench.experiments import base_config, bench_scale
from repro.errors import ConfigError
from repro.serve.experiments import (
    build_server,
    format_serving_report,
    run_serving_comparison,
    serving_scale,
    serving_workload,
)
from repro.serve.loadgen import LoadSpec, run_load


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="Serve live request traffic over a (sharded) FLSM "
        "store with optional online Lerp tuning.",
    )
    parser.add_argument("--shards", type=int, default=1, help="shard count")
    parser.add_argument(
        "--tuned",
        action="store_true",
        help="tune the live store with Lerp at window boundaries "
        "(default: static K)",
    )
    parser.add_argument(
        "--static-policy",
        type=int,
        default=5,
        metavar="K",
        help="compaction policy of the static baseline (default 5)",
    )
    parser.add_argument(
        "--ops", type=int, default=None, help="offered requests (default: scale tier)"
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop offered rate, requests/s (default: scale tier)",
    )
    parser.add_argument(
        "--closed-loop",
        action="store_true",
        help="closed-loop clients instead of open-loop Poisson arrivals",
    )
    parser.add_argument(
        "--clients", type=int, default=1, help="client threads (default 1)"
    )
    parser.add_argument(
        "--window-ops",
        type=int,
        default=None,
        metavar="N",
        help="close a mission window every N completed requests",
    )
    parser.add_argument(
        "--backend",
        choices=("memory", "durable"),
        default="memory",
        help="engine backend: in-memory sharded store (default) or the "
        "durable WAL+SSTable store (requires --data-dir, single shard)",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="durable store directory (created on first use; an existing "
        "directory is recovered, replaying the WAL tail)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="snapshot the live engine to PATH after the run (pre-stop)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="run the full static-vs-Lerp × 1-vs-4-shard grid and print "
        "the benchmark report",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="trace the serve path (sampled spans) and export JSONL to PATH",
    )
    parser.add_argument(
        "--trace-every",
        type=int,
        default=16,
        metavar="N",
        help="keep every Nth serve.batch root span (default 16)",
    )
    parser.add_argument(
        "--audit",
        default=None,
        metavar="PATH",
        help="record the tuners' decision audit log and export JSONL to "
        "PATH (Lerp-tuned runs only produce events)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.clients < 1:
        parser.error("--clients must be >= 1")
    if args.trace_every < 1:
        parser.error("--trace-every must be >= 1")
    if args.backend == "durable":
        if args.data_dir is None:
            parser.error("--backend durable requires --data-dir")
        if args.shards != 1:
            parser.error("--backend durable serves a single shard")
    elif args.data_dir is not None:
        parser.error("--data-dir only applies to --backend durable")

    scale = bench_scale()
    overrides = {"n_ops": args.ops, "rate": args.rate, "window_ops": args.window_ops}
    try:
        serving = dataclasses.replace(
            serving_scale(scale),
            **{field: value for field, value in overrides.items() if value is not None},
        )
        # The store's own config refuses a bad --seed or --static-policy;
        # build it here, before a store or a data directory exists.
        base_config(scale=scale, seed=args.seed).with_updates(initial_policy=args.static_policy)
    except ConfigError as error:
        parser.error(str(error))

    if args.compare:
        runs = run_serving_comparison(
            scale=scale, serving=serving, seed=args.seed
        )
        print(
            format_serving_report(
                runs,
                title=f"== serving comparison (scale={scale.name}, "
                f"{serving.n_ops} offered ops at {serving.rate:,.0f} req/s) ==",
            )
        )
        return 0

    server = build_server(
        args.shards,
        args.tuned,
        serving=serving,
        scale=scale,
        seed=args.seed,
        static_policy=args.static_policy,
        backend=args.backend,
        data_dir=args.data_dir,
    )
    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer(sample_every=args.trace_every)
        server.tracer = tracer
        server.engine.set_tracer(tracer)
    audit = None
    if args.audit:
        from repro.obs.audit import DecisionAuditLog

        audit = DecisionAuditLog()
        for tuner in dict.fromkeys(server.tuners):
            if hasattr(tuner, "attach_audit"):
                tuner.attach_audit(audit)
    spec = LoadSpec(
        workload=serving_workload(scale, serving, args.seed),
        n_ops=serving.n_ops,
        rate=serving.rate,
        n_clients=args.clients,
        closed_loop=args.closed_loop,
        mission_size=serving.mission_size,
        seed=args.seed,
    )
    server.start()
    try:
        report = run_load(server, spec)
        if args.checkpoint:
            server.checkpoint(args.checkpoint)
            print(f"checkpointed live engine to {args.checkpoint}", file=sys.stderr)
    finally:
        server.stop()
        if args.backend == "durable":
            server.engine.close()

    mode = "closed-loop" if args.closed_loop else f"open-loop @ {serving.rate:,.0f}/s"
    tuner = "Lerp-tuned" if args.tuned else f"static K={args.static_policy}"
    print(f"== repro.serve: {args.shards} shard(s), {tuner}, {mode} ==")
    print(
        f"offered {report.offered} accepted {report.accepted} "
        f"completed {report.completed} dropped {report.dropped} "
        f"({report.drop_fraction * 100:.2f}%) timed out {report.timed_out}"
    )
    print(
        f"throughput {report.throughput:,.0f} req/s over "
        f"{report.wall_seconds:.2f}s wall; mean queue depth "
        f"{report.mean_queue_depth:.1f} (max {report.max_queue_depth})"
    )
    print(f"latency: {report.histogram.summary()}")
    print(
        f"windows closed: {len(server.windows)}; simulated seconds "
        f"charged by the engine: {server.engine.clock_now:.3f}"
    )
    if server.windows:
        last = server.windows[-1]
        print(
            f"last window: {last.stats.n_operations} ops, "
            f"policies {last.policies}"
        )
    if args.backend == "durable":
        t = server.engine.telemetry
        print(
            f"durable: {t['wal_syncs']} WAL syncs ({t['wal_bytes']:,} bytes), "
            f"{t['sstables_written']} SSTables written, "
            f"{t['commits']} manifest commits; data at {args.data_dir}"
        )
    if tracer is not None:
        written = tracer.export_jsonl(args.trace)
        print(
            f"traced {tracer.roots_seen} serve batches, kept "
            f"{tracer.roots_kept}, wrote {written} spans to {args.trace}",
            file=sys.stderr,
        )
    if audit is not None:
        written = audit.export_jsonl(args.audit)
        print(
            f"wrote {written} decision audit events to {args.audit}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
