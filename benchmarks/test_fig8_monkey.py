"""Figure 8 — static workloads under the Monkey Bloom-filter scheme.

Same three panels as Figure 6, with bits-per-key lowered to 4 (the paper's
Monkey setting) and Lazy-Leveling added as the state-of-the-art baseline.
Expected shape: RusKey reaches near-optimal on every panel; Lazy-Leveling
is also near-optimal everywhere but RusKey matches or beats it, most
visibly on the balanced workload where per-level tuning pays off.
"""

import pytest

from _common import emit_metrics, emit_report, metrics_from_results, run_cached, settled_mean

from repro.bench import (
    format_latency_series,
    format_policy_trace,
    format_summary,
    static_workload_experiment,
)
from repro.config import BloomScheme


def run_panel(mix):
    return run_cached(static_workload_experiment(mix, scheme=BloomScheme.MONKEY))


@pytest.mark.parametrize("mix", ["read-heavy", "write-heavy", "balanced"])
def test_fig8(benchmark, mix):
    results = benchmark.pedantic(run_panel, args=(mix,), rounds=1, iterations=1)

    report = [
        format_latency_series(
            results, title=f"Figure 8 ({mix}, Monkey scheme): latency per query (ms)"
        ),
        "",
        format_policy_trace(results["RusKey"], title="RusKey policy trace"),
        "",
        format_summary(results, title="Converged summary"),
    ]
    emit_report(f"fig8_{mix}", "\n".join(report))
    emit_metrics(f"fig8_{mix}", metrics_from_results(results))

    settled = {name: settled_mean(result) for name, result in results.items()}
    baselines = {k: v for k, v in settled.items() if k != "RusKey"}
    best = min(baselines.values())
    worst = max(baselines.values())

    # RusKey near-optimal under Monkey as well; the write-heavy mix gets a
    # wider margin because its two-stage tuning occupies more of the run
    # before the lazy profile propagates to the write-dominant deep levels.
    margin = 2.0 if mix == "write-heavy" else 1.35
    assert settled["RusKey"] <= best * margin
    assert settled["RusKey"] < worst

    if mix == "read-heavy":
        assert min(baselines, key=baselines.get) in (
            "K=1 (Aggressive)",
            "Lazy-Leveling",
        )
    elif mix == "write-heavy":
        assert min(baselines, key=baselines.get) in (
            "K=10 (Lazy)",
            "Lazy-Leveling",
        )
    else:
        # Balanced: RusKey's per-level profile should at least match
        # Lazy-Leveling (paper: "RusKey performs better than Lazy-Leveling
        # on every workload", most visibly here).
        assert settled["RusKey"] <= settled["Lazy-Leveling"] * 1.10
