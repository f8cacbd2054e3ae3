"""Serving under live traffic and live tuning (beyond the paper).

The paper evaluates RusKey on offline mission batches; this benchmark puts
the same five-session dynamic schedule on the wire as an *open-loop*
Poisson request stream against :class:`repro.serve.KVServer`, on four
configurations at the **same fixed offered rate and request count**:

    {1 shard, 4 shards} × {static K, Lerp-tuned at window boundaries}

All latencies and throughputs here are **wall-clock** and host-dependent,
so tier-1 asserts *conservation laws only*: every offered request is
either accepted or dropped, every accepted request completes and is timed
exactly once, quantiles are monotone, the engine charged simulated time
for what it served, and the tuning loop closed a window. The comparative
claims (4 shards vs 1, Lerp vs static tails) are host-time claims and
belong to ``perfbench/``, judged by alternating pairs like every other
wall number (ROADMAP item 0). The engines keep charging SimClock
internally and no simulated result anywhere in the suite is affected.

The table (completed and offered throughput, drop fraction, mean queue
depth, p50/p99/p99.9) is printed, not committed: every cell follows host
timing — even the engines' SimClock totals, since served batch composition
does. ``python -m repro.serve --compare`` prints the same table on demand;
the host-time metrics are ``perfbench``'s ``serve.sat_*`` / ``serve.sync_*``.
"""

from repro.bench import bench_scale
from repro.serve.experiments import (
    format_serving_report,
    run_serving_comparison,
    serving_scale,
)


def test_serving_tail_latency(benchmark):
    # Defaults: the active scale tier's n_ops at its rate, seed 0, {1, 4} shards.
    runs = benchmark.pedantic(run_serving_comparison, rounds=1, iterations=1)
    scale = bench_scale()
    serving = serving_scale(scale)

    lines = [
        "Serving under open-loop load "
        f"(scale={scale.name}; every configuration is offered the same "
        f"{serving.n_ops:,} requests at {serving.rate:,.0f} req/s)",
        "4-shard servers split the same total write buffer across lanes "
        "(equal memory budget).",
        "",
        format_serving_report(runs),
        "",
    ]
    for name, run in runs.items():
        lines.append(
            f"  {name}: {run.n_windows} windows closed live, "
            f"final policies {run.final_policies}, "
            f"{run.report.completed} completed / {run.report.dropped} dropped, "
            f"sim {run.sim_seconds:.3f}s"
        )
    print("\n===== serving_tail_latency =====")
    print("\n".join(lines))

    assert len(runs) == 4
    for run in runs.values():
        report = run.report
        # The same fixed stream was offered to every configuration.
        assert report.offered == serving.n_ops
        # Every accepted request completed (queues drained) and was timed.
        assert report.offered == report.accepted + report.dropped
        assert report.completed == report.accepted
        assert report.histogram.count == report.completed
        # Tail ordering is monotone.
        p = report.histogram.percentiles((50.0, 99.0, 99.9))
        assert p[50.0] <= p[99.0] <= p[99.9]
        # At least the final window was closed and recorded.
        assert run.n_windows >= 1
        # Wall-clock serving must not have perturbed the simulation contract:
        # the engine still charged simulated time for the served requests.
        assert run.sim_seconds > 0.0
