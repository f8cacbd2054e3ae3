"""Warm-start transfer — pretrained Lerp redeployed on an unseen schedule.

The paper's deployment story (Section 3) is that the RL tuner can be
pre-trained offline and redeployed; this experiment trains RusKey on one
dynamic schedule, snapshots the tuner, warm-starts it on a schedule of
*unseen* mixes and seeds, and compares against a cold start on exactly the
same mission stream. The report shows the per-mission series plus
adaptation-phase and settled means.
"""

import numpy as np

from _common import emit_metrics, emit_report

from repro.bench import (
    bench_scale,
    format_transfer_report,
    run_warmstart_transfer,
    transfer_schedule,
)


def run_transfer():
    scale = bench_scale()
    result = run_warmstart_transfer(scale=scale, seed=0)
    return result, transfer_schedule(scale, seed=0)


def test_warmstart_transfer(benchmark):
    result, schedule_b = benchmark.pedantic(run_transfer, rounds=1, iterations=1)
    emit_report(
        "warmstart_transfer", format_transfer_report(result, schedule_b)
    )
    emit_metrics(
        "warmstart_transfer",
        {
            "systems": {
                run.system: {
                    "mean_latency_ms": run.mean_latency() * 1e3,
                    "sim_total_s": run.total_time(),
                    "n_missions": len(run.missions),
                }
                for run in (result.warm, result.cold)
            }
        },
    )

    # Both transfer runs processed the identical full mission stream.
    assert len(result.warm.missions) == result.n_transfer_missions
    assert len(result.cold.missions) == result.n_transfer_missions
    assert np.isfinite(result.warm.latencies).all()
    assert np.isfinite(result.cold.latencies).all()
    assert (result.warm.latencies > 0).all()
    assert (result.cold.latencies > 0).all()

    # The pretrained tuner must not hurt: warm-start stays within a modest
    # band of cold-start overall (and typically wins the adaptation phase —
    # reported, not asserted, since RL trajectories at quick scale are
    # noisy).
    warm_overall = result.warm.mean_latency()
    cold_overall = result.cold.mean_latency()
    assert warm_overall <= cold_overall * 1.25, (
        f"warm-start {warm_overall:.3e} much worse than "
        f"cold-start {cold_overall:.3e}"
    )
