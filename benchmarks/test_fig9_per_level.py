"""Figure 9 — RusKey adopts novel per-level policy settings.

Balanced workload under the Monkey scheme, after self-tuning: the paper
reports RusKey choosing an aggressive policy at Level 1 that relaxes with
depth — the same *intuition* as Lazy-Leveling but tuned per level — and a
lower end-to-end latency. Left panel: end-to-end latency; right panel:
per-level latency breakdown.
"""

from _common import emit_metrics, emit_report, metrics_from_results, run_cached

from repro.bench import (
    format_per_level_latency,
    format_summary,
    static_workload_experiment,
)
from repro.config import BloomScheme


def run_fig9():
    # Fig. 8's balanced panel: the same two series, simulated once.
    experiment = static_workload_experiment("balanced", scheme=BloomScheme.MONKEY)
    return run_cached(experiment, ["RusKey", "Lazy-Leveling"])


def level_time_breakdown(result, last_fraction=0.35):
    """Summed per-level latency (seconds) over the settled tail."""
    tail = result.missions[-max(1, int(len(result.missions) * last_fraction)):]
    levels = {}
    for mission in tail:
        for level, seconds in mission.level_read_time.items():
            levels[level] = levels.get(level, 0.0) + seconds
        for level, seconds in mission.level_write_time.items():
            levels[level] = levels.get(level, 0.0) + seconds
    return levels


def test_fig9(benchmark):
    results = benchmark.pedantic(run_fig9, rounds=1, iterations=1)

    breakdown = {
        name: level_time_breakdown(result) for name, result in results.items()
    }
    final_policies = results["RusKey"].policy_history[-1]
    report = [
        format_summary(results, title="Figure 9 left: end-to-end latency"),
        "",
        format_per_level_latency(
            breakdown, title="Figure 9 right: per-level latency (s, settled tail)"
        ),
        "",
        f"RusKey final per-level policies: {final_policies}",
        f"Lazy-Leveling policies: {results['Lazy-Leveling'].policy_history[-1]}",
    ]
    emit_report("fig9_per_level", "\n".join(report))
    emit_metrics("fig9_per_level", metrics_from_results(results))

    # Shape 1: RusKey's learned profile relaxes as levels shallow —
    # aggressive at depth, lazy near the top (K_1 >= K_L, non-increasing).
    assert final_policies == sorted(final_policies, reverse=True)
    assert final_policies[-1] <= final_policies[0]

    # Shape 2: RusKey end-to-end at least matches Lazy-Leveling.
    ruskey_tail = float(results["RusKey"].latencies[-100:].mean())
    lazy_leveling_tail = float(results["Lazy-Leveling"].latencies[-100:].mean())
    assert ruskey_tail <= lazy_leveling_tail * 1.10

    # Shape 3: deeper levels dominate the latency budget for both systems.
    for name, levels in breakdown.items():
        deepest = max(levels)
        assert levels[deepest] == max(levels.values())
