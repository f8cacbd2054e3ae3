"""Policy matrix — the named tiering/leveling/lazy-leveling dimension.

Beyond the paper: ArceKV and CAMAL treat the merge-discipline choice
(tiering vs leveling vs lazy-leveling) as the tuning knob that matters most
under workload drift. This benchmark tunes that dimension as a discrete RL
action (``repro.core.NamedPolicyLerp``) and compares it against each
discipline held statically, across the three static mixes and the
five-session dynamic schedule.

Expected shape: each static discipline is sub-optimal somewhere — leveling
pays ``L·T`` rewrites per entry on write-heavy mixes, tiering pays ``K``
probes per level on read-heavy mixes — while the tuned store converges to
a near-best discipline per era. The acceptance bar is deliberately modest:
Lerp-with-policy-action must beat the *worst* static policy on the
write-heavy and dynamic panels (at converged tail).

Report: ``bench_reports/policy_matrix.txt``.
"""

import numpy as np

from _common import emit_metrics, emit_report, metrics_from_results, settled_mean

from repro.bench import (
    POLICY_MATRIX_MIXES,
    bench_scale,
    format_summary,
    policy_matrix_experiment,
    run_experiment,
    session_bounds,
)
from repro.lsm import classify_policies


def _named_trace(result, size_ratio: int, every: int = 50) -> str:
    lines = [f"{'mission':>8} | named policy (K_1..K_L)"]
    for i in range(0, len(result.policy_history), every):
        ks = result.policy_history[i]
        name = classify_policies(ks, size_ratio) or "per-level"
        lines.append(f"{i:>8} | {name:>13}  {ks}")
    return "\n".join(lines)


def run_policy_matrix():
    panels = {}
    for mix in POLICY_MATRIX_MIXES:
        experiment = policy_matrix_experiment(mix)
        panels[mix] = (experiment, run_experiment(experiment))
    return panels


def test_policy_matrix(benchmark):
    panels = benchmark.pedantic(run_policy_matrix, rounds=1, iterations=1)
    scale = bench_scale()

    settled = {}
    report = [
        "Policy matrix: static disciplines vs Lerp driving the named-policy "
        f"action (scale={scale.name})",
        "",
    ]
    for mix, (experiment, results) in panels.items():
        report.append(
            format_summary(
                results,
                title=f"-- {mix} (converged mean latency, ms/op) --",
            )
        )
        if mix == "dynamic":
            bounds = session_bounds(experiment.workload)
            tail = {}
            for name, result in results.items():
                # Post-settle mean within each session, averaged (a static
                # tail would over-weight the final session's discipline).
                session_means = []
                for start, stop in zip(bounds[:-1], bounds[1:]):
                    mid = start + (stop - start) // 2
                    session_means.append(
                        float(result.latencies[mid:stop].mean())
                    )
                tail[name] = float(np.mean(session_means))
            settled[mix] = tail
        else:
            settled[mix] = {
                name: settled_mean(result) for name, result in results.items()
            }
        report.append("")
    report.append("Lerp+policy trajectory (dynamic panel):")
    report.append(
        _named_trace(
            panels["dynamic"][1]["Lerp+policy"],
            panels["dynamic"][0].base_config.size_ratio,
        )
    )
    report.append("")
    report.append("settled-tail latency (ms/op) per panel:")
    header_names = list(next(iter(settled.values())))
    report.append(
        f"{'panel':>12} | "
        + " | ".join(f"{name:>14}" for name in header_names)
    )
    for mix in POLICY_MATRIX_MIXES:
        row = " | ".join(
            f"{settled[mix][name] * 1e3:14.5f}" for name in header_names
        )
        report.append(f"{mix:>12} | {row}")
    emit_report("policy_matrix", "\n".join(report))
    emit_metrics(
        "policy_matrix",
        {
            mix: metrics_from_results(results)
            for mix, (_, results) in panels.items()
        },
    )

    # The disciplines really differ: on every panel the best and worst
    # static policies are separated (the dimension is worth tuning).
    for mix in POLICY_MATRIX_MIXES:
        statics = [
            settled[mix][name]
            for name in ("Leveling", "Tiering", "Lazy-Leveling")
        ]
        assert min(statics) > 0
        assert max(statics) / min(statics) > 1.05, (mix, statics)

    # Write-heavy: leveling's L·T rewrites make it the worst discipline.
    write_heavy = settled["write-heavy"]
    assert write_heavy["Leveling"] == max(
        write_heavy[n] for n in ("Leveling", "Tiering", "Lazy-Leveling")
    )

    if scale.name == "quick":
        # At smoke scale the RL run is too short to assert convergence
        # quality; the structural assertions above still hold.
        return

    # Acceptance: Lerp with the policy action beats the worst static
    # discipline on the write-heavy and dynamic panels.
    for mix in ("write-heavy", "dynamic"):
        worst_static = max(
            settled[mix][name]
            for name in ("Leveling", "Tiering", "Lazy-Leveling")
        )
        assert settled[mix]["Lerp+policy"] < worst_static, (
            mix,
            settled[mix],
        )
