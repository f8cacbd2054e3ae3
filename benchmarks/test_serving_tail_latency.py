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

Report: ``bench_reports/serving_tail_latency.txt`` — completed and offered
throughput, drop fraction, mean queue depth, p50/p99/p99.9.
"""

import dataclasses

from _common import emit_metrics, emit_report

from repro.bench import bench_scale
from repro.serve.experiments import (
    format_serving_report,
    run_serving_comparison,
    serving_scale,
)


def fixed_serving_scale():
    """The tier's run shape, count-bound: exactly ``n_ops`` requests are
    offered at the tier's configured rate (no host calibration probe)."""
    return dataclasses.replace(serving_scale(bench_scale()), duration=0.0)


def run_serving_benchmark():
    serving = fixed_serving_scale()
    return run_serving_comparison(
        scale=bench_scale(),
        serving=serving,
        seed=0,
        shard_counts=(1, 4),
        rate=serving.rate,
    )


def test_serving_tail_latency(benchmark):
    runs = benchmark.pedantic(run_serving_benchmark, rounds=1, iterations=1)
    scale = bench_scale()
    serving = fixed_serving_scale()

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
    emit_report("serving_tail_latency", "\n".join(lines))
    configs = {}
    for name, run in runs.items():
        configs[name] = {
            "throughput_rps": run.report.throughput,
            "offered": int(run.report.offered),
            "completed": int(run.report.completed),
            "drop_pct": run.report.drop_fraction * 100.0,
            # p50_ms / p99_ms / p999_ms straight from the histogram — the
            # naming and ms scaling live in percentile_summary().
            **run.report.histogram.percentile_summary((50.0, 99.0, 99.9)),
            "sim_total_s": run.sim_seconds,
        }
    emit_metrics("serving_tail_latency", {"configs": configs})

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
