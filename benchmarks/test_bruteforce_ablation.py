"""Section 7 (text) — brute-force learning approaches are impractical.

The paper evaluates two brute-force alternatives on the balanced workload:
(1) a model over the *joint* action space (no level-based decomposition)
and (2) per-level training of *all* levels with no policy propagation. The
first cannot finish learning in time; the second fails to reach the optimum
from Level 3 down for lack of samples.

Scaled-down equivalent: run the three tuners — ``Lerp``, ``JointLerp`` and
``AllLevelsLerp``, one hyperparameter set — for
the same mission budget and compare convergence and settled latency.
"""

from _common import emit_metrics, emit_report, metrics_from_results, settled_mean

from repro.bench import base_config, bench_lerp_config, bench_scale
from repro.bench.harness import Experiment, SystemSpec, run_experiment
from repro.core import AllLevelsLerp, JointLerp, Lerp
from repro.workload.uniform import UniformWorkload


def run_ablation():
    scale = bench_scale()
    config = base_config()
    workload = UniformWorkload(scale.n_records, lookup_fraction=0.5, seed=29)

    def spec(name, tuner_class):
        return SystemSpec(
            name,
            lambda config: tuner_class(
                config, bench_lerp_config(scale.n_missions)
            ),
            initial_policy=1,
        )

    experiment = Experiment(
        name="bruteforce-ablation",
        workload=workload,
        n_missions=scale.n_missions,
        mission_size=scale.mission_size,
        base_config=config,
        systems=[
            spec("level-based (RusKey)", Lerp),
            spec("joint action space", JointLerp),
            spec("all levels, no propagation", AllLevelsLerp),
        ],
    )
    return run_experiment(experiment)


def test_bruteforce_ablation(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    settled = {name: settled_mean(result) for name, result in results.items()}
    lines = ["Brute-force ablation (balanced workload):"]
    for name, result in results.items():
        final = result.policy_history[-1]
        lines.append(
            f"  {name:>28}: settled latency {settled[name] * 1e3:.4f} ms/op, "
            f"final policies {final}"
        )
    emit_report("bruteforce_ablation", "\n".join(lines))
    emit_metrics("bruteforce_ablation", metrics_from_results(results))

    level = settled["level-based (RusKey)"]
    joint = settled["joint action space"]
    no_propagation = settled["all levels, no propagation"]

    # The level-based model with propagation is at least as good as both
    # brute-force approaches after the same mission budget.
    assert level <= joint * 1.05
    assert level <= no_propagation * 1.05

    # Propagation's signature: the level-based run converges to one policy
    # copied to every level, while training all levels independently (no
    # propagation) leaves the under-sampled deep levels un-tuned — its
    # final configuration is not the uniform propagated one.
    level_final = results["level-based (RusKey)"].policy_history[-1]
    no_prop_final = results["all levels, no propagation"].policy_history[-1]
    assert len(set(level_final)) == 1, level_final
    assert no_prop_final != [level_final[0]] * len(no_prop_final)

    # The joint model cannot finish learning within the mission budget. At
    # the quick (CI) scale its failure mode is deterministic but varies in
    # kind — it may freeze on a bad configuration instead of thrashing —
    # so the robust cross-scale claim is that it misses the level-based
    # optimum: either it keeps churning policies after the level-based
    # model has settled, or it settled on a measurably worse latency.
    def churn(result):
        history = result.policy_history
        tail = history[-len(history) // 4 :]
        return sum(
            1 for a, b in zip(tail[:-1], tail[1:]) if a != b
        ) / max(1, len(tail) - 1)

    joint_churns = churn(results["joint action space"]) > churn(
        results["level-based (RusKey)"]
    )
    joint_settled_worse = joint >= level * 1.02
    assert joint_churns or joint_settled_worse
