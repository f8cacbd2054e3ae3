"""Figure 12 — RusKey vs greedy threshold heuristics on the dynamic
workload.

Six greedy variants (symmetric thresholds 50/50, 33/67, 25/75, 10/90 and
biased 25/50, 50/75) adjust K by ±1 whenever a level's observed lookup
share crosses a threshold. Paper shape: some variants do fine on the
extreme sessions but none is robust across all five; RusKey achieves the
best average rank (1.2 vs 1.8+ for the best greedy).
"""

import numpy as np

from _common import emit_metrics, emit_report, metrics_from_results, run_cached

from repro.bench import (
    SESSION_NAMES,
    dynamic_workload_experiment,
    format_latency_series,
    format_ranking_table,
    session_bounds,
    session_rankings,
)


def first_missions(experiment):
    """The first mission of every session of ``experiment``'s schedule."""
    return [
        next(phase.spec.missions(1, experiment.mission_size))
        for phase in experiment.workload.phases
    ]


def run_greedy_comparison():
    experiment = dynamic_workload_experiment(include_greedy=True)
    # RusKey's series is Fig. 7's: the same schedule, config and Lerp.
    fig7 = dynamic_workload_experiment()
    ruskey, greedy = experiment.systems[0], experiment.systems[1:]
    for shape in ("base_config", "mission_size", "n_missions", "chunk_size"):
        assert getattr(experiment, shape) == getattr(fig7, shape), shape
    assert repr(ruskey.lerp_config) == repr(fig7.systems[0].lerp_config)
    assert session_bounds(experiment.workload) == session_bounds(fig7.workload)
    for ours, theirs in zip(first_missions(experiment), first_missions(fig7)):
        for column in ("kinds", "keys", "values", "spans"):
            assert np.array_equal(getattr(ours, column), getattr(theirs, column))
    results = {
        **run_cached(fig7, [ruskey.name]),
        **run_cached(experiment, [system.name for system in greedy]),
    }
    bounds = session_bounds(experiment.workload)
    return results, bounds


def test_fig12(benchmark):
    results, bounds = benchmark.pedantic(run_greedy_comparison, rounds=1, iterations=1)
    ranks = session_rankings(results, bounds)
    averages = {name: float(np.mean(r)) for name, r in ranks.items()}

    report = [
        format_latency_series(
            results,
            title="Figure 12: RusKey vs greedy thresholds (latency per query, ms)",
        ),
        "",
        format_ranking_table(
            ranks, SESSION_NAMES, title="Figure 12 right: performance rankings"
        ),
    ]
    emit_report("fig12_greedy", "\n".join(report))
    emit_metrics("fig12_greedy", metrics_from_results(results))

    # RusKey achieves the best (or tied-best) average rank.
    best = min(averages.values())
    assert averages["RusKey"] <= best + 0.21, f"averages: {averages}"

    # And no greedy variant is uniformly better across all sessions.
    for name, rank_list in ranks.items():
        if name == "RusKey":
            continue
        assert not all(
            r_greedy < r_ruskey
            for r_greedy, r_ruskey in zip(rank_list, ranks["RusKey"])
        )
