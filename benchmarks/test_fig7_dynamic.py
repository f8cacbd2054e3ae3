"""Figure 7 + Table 3 — the five-session dynamic workload.

Sessions: read-heavy (10 % updates), balanced (50 %), write-heavy (90 %),
write-inclined (70 %), read-inclined (30 %). Every static baseline is
sub-optimal in at least one session; RusKey re-tunes at each shift and the
paper's Table 3 shows it achieving the best average performance rank (1.2).
"""

import numpy as np

from _common import emit_metrics, emit_report, metrics_from_results, run_cached

from repro.bench import (
    SESSION_NAMES,
    dynamic_workload_experiment,
    format_latency_series,
    format_policy_trace,
    format_ranking_table,
    session_bounds,
    session_rankings,
)


def run_dynamic():
    experiment = dynamic_workload_experiment()
    results = run_cached(experiment)
    bounds = session_bounds(experiment.workload)
    return results, bounds


def test_fig7_table3(benchmark):
    results, bounds = benchmark.pedantic(run_dynamic, rounds=1, iterations=1)
    ranks = session_rankings(results, bounds)
    averages = {name: float(np.mean(r)) for name, r in ranks.items()}

    report = [
        format_latency_series(
            results, title="Figure 7: latency per query (ms) across 5 sessions"
        ),
        "",
        format_policy_trace(results["RusKey"], title="RusKey policy trace"),
        "",
        format_ranking_table(
            ranks, SESSION_NAMES, title="Table 3: performance ranking per session"
        ),
    ]
    emit_report("fig7_table3_dynamic", "\n".join(report))
    emit_metrics("fig7_table3_dynamic", metrics_from_results(results))

    # Table 3 shape: RusKey achieves the best average rank.
    best_average = min(averages.values())
    assert averages["RusKey"] == best_average, (
        f"RusKey avg rank {averages['RusKey']} not best: {averages}"
    )
    # Paper: RusKey ranks first or second in every session (avg 1.2). At
    # this scale re-tuning consumes a bigger share of each session, so we
    # assert top-3 in every session alongside the best average rank.
    assert max(ranks["RusKey"]) <= 3

    # Figure 7 headline: across sessions RusKey is up to multiple times
    # better than the worst-suited baseline (paper reports up to 4x).
    gains = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        settle = start + (stop - start) // 2
        ruskey = float(results["RusKey"].latencies[settle:stop].mean())
        worst = max(
            float(result.latencies[settle:stop].mean())
            for name, result in results.items()
            if name != "RusKey"
        )
        gains.append(worst / ruskey)
    assert max(gains) > 1.5
