"""Pretrain → finetune transfer: does a trained Lerp warm-start pay off?

The paper motivates RL tuning for dynamic workloads partly because a model
"can be pre-trained offline and redeployed"; CAMAL (arXiv:2409.15130) makes
the same point through sample efficiency. This experiment measures that
claim directly:

1. **Pretrain** — RusKey runs a multi-session dynamic schedule A; the
   trained tuner (networks, replay, optimizer moments, scales) is copied
   whole (``copy.deepcopy``, what a snapshot round trip restores).
2. **Transfer** — two fresh stores run an *unseen* dynamic schedule B (new
   mixes, new seed, fresh data): *cold-start* begins from scratch;
   *warm-start* starts from the pretrained copy and re-enters tuning via
   :meth:`~repro.core.lerp.Lerp.warm_start` (episode bookkeeping cleared,
   exploration reduced — the critic already knows the cost surface).
3. **Report** — per-phase latency for both, plus adaptation-phase and
   settled means (``bench_reports/warmstart_transfer.txt``).

Each run is one :func:`~repro.bench.harness.run_system` call whose
``make_tuner`` hands over the experiment's own :class:`Lerp`. Both transfer
stores process an identical mission stream against identical initial data,
so every difference in the series is attributable to the tuner's starting
state.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bench.experiments import BenchScale, base_config, bench_lerp_config, bench_scale
from repro.bench.harness import Experiment, SeriesResult, SystemSpec, run_system
from repro.core.lerp import Lerp
from repro.workload.dynamic import DynamicWorkload, dynamic_schedule


@dataclass
class TransferResult:
    """Everything the warm-start transfer experiment produces."""

    pretrain: SeriesResult
    warm: SeriesResult
    cold: SeriesResult
    #: Each run's tuner by run name (``pretrain``, ``cold-start``,
    #: ``warm-start``), as it stood at the end of its run.
    tuners: Dict[str, Lerp]
    n_transfer_missions: int

    def adaptation_window(self) -> int:
        """Missions counted as the adaptation phase (first third)."""
        return max(1, self.n_transfer_missions // 3)


def pretrain_schedule(scale: BenchScale, seed: int = 0) -> DynamicWorkload:
    """Schedule A: the mixes Lerp trains on (read-heavy → write-heavy →
    balanced)."""
    return dynamic_schedule(
        [("read-heavy", 0.9), ("write-heavy", 0.1), ("balanced", 0.5)],
        scale.n_records,
        scale.session_missions,
        seed + 41,
        "transfer-pretrain",
    )


def transfer_schedule(scale: BenchScale, seed: int = 0) -> DynamicWorkload:
    """Schedule B: *unseen* mixes (read-inclined → write-inclined), a new
    generator seed and therefore new key/value draws."""
    return dynamic_schedule(
        [("read-inclined", 0.7), ("write-inclined", 0.3)],
        scale.n_records,
        scale.session_missions,
        seed + 97,
        "transfer-unseen",
    )


def run_warmstart_transfer(
    scale: Optional[BenchScale] = None, seed: int = 0
) -> TransferResult:
    """Run the full pretrain → (warm vs cold) transfer experiment."""
    scale = scale or bench_scale()
    config = base_config(scale=scale, seed=seed)
    tuners = {
        "pretrain": Lerp(config, bench_lerp_config(scale.session_missions, seed=seed)),
        "cold-start": Lerp(config, bench_lerp_config(scale.session_missions, seed=seed + 1)),
    }

    def run(schedule: DynamicWorkload, name: str) -> SeriesResult:
        # RusKey's default chunking (64), which these runs have always used.
        experiment = Experiment(
            schedule.name, schedule, schedule.total_missions, scale.mission_size,
            config, chunk_size=64,
        )
        return run_system(experiment, SystemSpec(name, lambda config: tuners[name]))

    pretrain = run(pretrain_schedule(scale, seed), "pretrain")
    schedule_b = transfer_schedule(scale, seed)
    cold = run(schedule_b, "cold-start")
    tuners["warm-start"] = copy.deepcopy(tuners["pretrain"])
    tuners["warm-start"].warm_start()
    warm = run(schedule_b, "warm-start")
    return TransferResult(pretrain, warm, cold, tuners, schedule_b.total_missions)


def format_transfer_report(
    result: TransferResult,
    schedule_b: DynamicWorkload,
    every: int = 25,
) -> str:
    """The ``warmstart_transfer.txt`` report: series plus phase summaries."""
    lines: List[str] = []
    lines.append("Warm-start transfer: pretrained Lerp vs cold start on an")
    lines.append("unseen dynamic schedule (latencies in simulated ms/op).")
    lines.append("")
    phase_names = [phase.spec.name for phase in schedule_b.phases]
    lines.append(
        f"pretrain schedule : read-heavy -> write-heavy -> balanced "
        f"({len(result.pretrain.missions)} missions)"
    )
    lines.append(
        f"transfer schedule : {' -> '.join(phase_names)} "
        f"({result.n_transfer_missions} missions, unseen mixes & seed)"
    )
    lines.append("")
    header = f"{'mission':>8} | {'warm-start':>12} | {'cold-start':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    warm, cold = result.warm.latencies, result.cold.latencies
    for i in range(0, min(len(warm), len(cold)), every):
        lines.append(f"{i:>8} | {warm[i] * 1e3:12.5f} | {cold[i] * 1e3:12.5f}")
    adapt = result.adaptation_window()
    settle = max(1, result.n_transfer_missions // 3)
    lines.append("")
    lines.append(f"{'phase':>24} | {'warm-start':>12} | {'cold-start':>12}")
    for label, window in (
        (f"adaptation (first {adapt})", slice(0, adapt)),
        (f"settled (last {settle})", slice(-settle, None)),
        ("overall", slice(None)),
    ):
        lines.append(
            f"{label:>24} | {warm[window].mean() * 1e3:12.5f} "
            f"| {cold[window].mean() * 1e3:12.5f}"
        )
    lines.append("")
    lines.append(
        f"tuner restarts (workload shifts detected): "
        f"warm={result.tuners['warm-start'].restarts} "
        f"cold={result.tuners['cold-start'].restarts}"
    )
    return "\n".join(lines)
