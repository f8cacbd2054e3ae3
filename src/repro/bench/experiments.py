"""Canonical experiment configurations for every paper figure and table.

Scales are controlled by the ``REPRO_BENCH_SCALE`` environment variable:

* ``quick``   — minutes-scale smoke runs (CI);
* ``default`` — laptop-scale runs preserving every qualitative shape;
* ``full``    — closest to the paper's setup that is still practical on one
  machine (the paper used 100 M-entry stores and 100 M-operation workloads
  on a Xeon server; see DESIGN.md §2 for why scaling down preserves shape).

All experiments share the paper's constants: ``T = 10``, 1 KiB entries,
4 KiB pages, bits-per-key 8 (uniform scheme) or 4 (Monkey scheme), initial
policy leveling (K=1), and Lerp's ``α = 1/2``.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.bench.harness import Experiment, SystemSpec
from repro.config import BloomScheme, SystemConfig
from repro.core.lerp import LerpConfig
from repro.core.named_policy import NamedPolicyLerp
from repro.core.state import POLICY_STATE_DIM, STATE_DIM
from repro.core.tuners import (
    PAPER_GREEDY_THRESHOLDS,
    GreedyThresholdTuner,
    LazyLevelingTuner,
    NamedPolicyTuner,
    StaticTuner,
)
from repro.errors import ConfigError
from repro.lsm.policy import POLICY_NAMES
from repro.rl.ddpg import DDPGConfig
from repro.rl.dqn import DQNConfig
from repro.workload.dynamic import PAPER_SESSIONS, DynamicWorkload, paper_dynamic_workload
from repro.workload.spec import WorkloadSpec
from repro.workload.uniform import UniformWorkload
from repro.workload.ycsb import YCSBWorkload


def _refuse_out_of_domain(scale, may_be_zero: tuple = ()) -> None:
    """Every numeric field of ``scale`` must be finite and > 0 (>= 0 for
    the fields named in ``may_be_zero``)."""
    for f in dataclasses.fields(scale):
        value = getattr(scale, f.name)
        if isinstance(value, str):
            continue
        if f.name in may_be_zero:
            bound, ok = ">= 0", 0 <= value < math.inf
        else:
            bound, ok = "> 0", 0 < value < math.inf
        if not ok:
            raise ConfigError(f"{f.name} must be finite and {bound}, got {value!r}")


@dataclass(frozen=True)
class BenchScale:
    """Run-shape parameters for one scale tier."""

    name: str
    write_buffer_bytes: int
    n_records: int
    mission_size: int
    n_missions: int
    session_missions: int  # per-session length for dynamic workloads
    fig10_mission_size: int
    fig10_missions: int

    def __post_init__(self) -> None:
        _refuse_out_of_domain(self)


@dataclass(frozen=True)
class ServingScale:
    """Run-shape parameters of one serving-experiment tier: the open-loop
    clients offer exactly ``n_ops`` requests at ``rate``, so every
    configuration faces the same request stream. ``window_ops == 0`` runs
    no tuning loop."""

    n_ops: int  # offered requests
    rate: float  # open-loop offered rate (requests / wall second)
    window_ops: int  # mission-window length (completed requests)
    queue_capacity: int  # per-lane admission queue bound
    max_batch: int  # per-lane drain batch
    mission_size: int  # generator mission granularity

    def __post_init__(self) -> None:
        _refuse_out_of_domain(self, may_be_zero=("window_ops",))


# The scale tiers, one row each, in field order.
_SCALES = {
    scale.name: scale
    for scale in (
        BenchScale("quick", 64 * 1024, 24_000, 800, 240, 160, 2_500, 60),
        BenchScale("default", 128 * 1024, 50_000, 1_200, 500, 350, 5_000, 120),
        BenchScale("full", 128 * 1024, 200_000, 2_000, 2_000, 1_000, 20_000, 120),
    )
}
# The serving experiments' row of each tier, in field order.
_SERVING_SCALES = {
    "quick": ServingScale(60_000, 40_000.0, 6_000, 512, 256, 1_000),
    "default": ServingScale(150_000, 50_000.0, 12_000, 768, 384, 1_200),
    "full": ServingScale(600_000, 60_000.0, 25_000, 1_024, 512, 2_000),
}

#: The workload mixes of Figures 6, 8 and 11 (lookup fractions).
STATIC_MIXES = {"read-heavy": 0.9, "write-heavy": 0.1, "balanced": 0.5}


def bench_scale() -> BenchScale:
    """The active scale tier (``REPRO_BENCH_SCALE``, default ``default``)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    if name not in _SCALES:
        raise ConfigError(
            f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {name!r}"
        )
    return _SCALES[name]


def serving_scale(scale: Optional[BenchScale] = None) -> ServingScale:
    """The serving row of ``scale``'s tier (default: the active tier)."""
    return _SERVING_SCALES[(scale or bench_scale()).name]


def base_config(
    scheme: BloomScheme = BloomScheme.UNIFORM,
    scale: Optional[BenchScale] = None,
    seed: int = 0,
) -> SystemConfig:
    """The paper's system constants at the active scale.

    Bits-per-key follows the paper: 8 under the uniform scheme, 4 under
    Monkey ("since in this case Monkey exploits Bloom filters more
    effectively").
    """
    scale = scale or bench_scale()
    return SystemConfig(
        size_ratio=10,
        entry_bytes=1024,
        page_bytes=4096,
        write_buffer_bytes=scale.write_buffer_bytes,
        bits_per_key=8.0 if scheme is BloomScheme.UNIFORM else 4.0,
        bloom_scheme=scheme,
        initial_policy=1,
        seed=seed,
    )


def bench_lerp_config(n_missions: int, seed: int = 0, stages: int = 1) -> LerpConfig:
    """Lerp hyperparameters sized so tuning converges within ~45 % of the
    run (the paper's tuning takes ~300 of 2000 missions; shorter runs get a
    proportionally faster exploration decay). ``stages`` is the number of
    tuning stages the budget must cover: 1 under the uniform Bloom scheme,
    2 under Monkey (Levels 1 and 2 are tuned successively)."""
    if stages < 1:
        raise ConfigError(f"stages must be >= 1, got {stages}")
    budget = max(40, int(0.45 * n_missions / stages))
    decay = math.exp(math.log(0.2) / budget)  # sigma 0.4 -> 0.08 over budget
    return LerpConfig(
        ddpg=DDPGConfig(state_dim=STATE_DIM, action_dim=1, noise_decay=decay),
        max_stage_missions=max(60, int(0.55 * n_missions / stages)),
        stable_window=min(25, max(10, n_missions // (12 * stages))),
        seed=seed,
    )


def static_baselines() -> List[SystemSpec]:
    """The paper's Aggressive / Moderate / Lazy fixed-``K`` baselines."""
    return [
        SystemSpec(f"K={k} ({label})", lambda config, k=k: StaticTuner(k), k)
        for k, label in ((1, "Aggressive"), (5, "Moderate"), (10, "Lazy"))
    ]


def standard_systems(
    n_missions: int,
    include_lazy_leveling: bool = False,
    seed: int = 0,
) -> List[SystemSpec]:
    """RusKey plus the paper's baselines (Aggressive/Moderate/Lazy, and
    optionally Lazy-Leveling for the Monkey-scheme experiments)."""
    lerp = bench_lerp_config(n_missions, seed=seed, stages=2 if include_lazy_leveling else 1)
    systems = [
        SystemSpec("RusKey", lambda config: None, 1, lerp_config=lerp),  # default Lerp
        *static_baselines(),
    ]
    if include_lazy_leveling:
        systems.append(SystemSpec("Lazy-Leveling", lambda config: LazyLevelingTuner(), 10))
    return systems


def _experiment(
    name: str,
    workload: WorkloadSpec,
    n_missions: int,
    systems: List[SystemSpec],
    scale: BenchScale,
    seed: int,
    scheme: BloomScheme = BloomScheme.UNIFORM,
) -> Experiment:
    """``systems`` over ``workload`` on the paper's config at ``scale``."""
    return Experiment(
        name, workload, n_missions, scale.mission_size,
        base_config(scheme, scale, seed=seed), systems=systems,
    )


# ----------------------------------------------------------------------
# Figure 6 / Figure 8: static workloads, uniform vs Monkey Bloom scheme
# ----------------------------------------------------------------------
def static_workload_experiment(
    mix: str,
    scheme: BloomScheme = BloomScheme.UNIFORM,
    scale: Optional[BenchScale] = None,
    seed: int = 0,
) -> Experiment:
    """One panel of Figure 6 (uniform) or Figure 8 (Monkey)."""
    if mix not in STATIC_MIXES:
        raise ConfigError(f"mix must be one of {sorted(STATIC_MIXES)}, got {mix!r}")
    scale = scale or bench_scale()
    monkey = scheme is BloomScheme.MONKEY
    return _experiment(
        f"{'fig8' if monkey else 'fig6'}-{mix}",
        UniformWorkload(scale.n_records, STATIC_MIXES[mix], seed + 17, name=mix),
        scale.n_missions,
        standard_systems(scale.n_missions, include_lazy_leveling=monkey, seed=seed),
        scale, seed, scheme,
    )


# ----------------------------------------------------------------------
# Figure 7 / Table 3 / Figure 12: the five-session dynamic workload
# ----------------------------------------------------------------------
SESSION_NAMES = [session for session, _ in PAPER_SESSIONS]


def dynamic_workload_experiment(
    scale: Optional[BenchScale] = None,
    seed: int = 0,
    include_greedy: bool = False,
) -> Experiment:
    """Figure 7 (RusKey vs static baselines) or Figure 12 (vs greedy
    threshold tuners) on the five-session dynamic workload."""
    scale = scale or bench_scale()
    workload = paper_dynamic_workload(
        scale.n_records, scale.session_missions, seed=seed + 23
    )
    lerp = bench_lerp_config(scale.session_missions, seed=seed)
    systems = [SystemSpec("RusKey", lambda config: None, 1, lerp_config=lerp)]
    if include_greedy:
        for h_bottom, h_top in PAPER_GREEDY_THRESHOLDS:
            systems.append(
                SystemSpec(
                    f"Greedy,{int(h_bottom * 100)}%,{int(h_top * 100)}%",
                    lambda config, hb=h_bottom, ht=h_top: GreedyThresholdTuner(hb, ht),
                    initial_policy=5,
                )
            )
    else:
        systems.extend(static_baselines())
    return _experiment(
        "fig12-dynamic-greedy" if include_greedy else "fig7-dynamic",
        workload, workload.total_missions, systems, scale, seed,
    )


def session_bounds(workload: DynamicWorkload) -> List[int]:
    """Session boundaries plus the final mission count (for rankings)."""
    return workload.phase_boundaries() + [workload.total_missions]


# ----------------------------------------------------------------------
# Policy matrix: the named tiering/leveling/lazy-leveling dimension
# ----------------------------------------------------------------------
#: The panels of the policy matrix benchmark: the three static mixes plus
#: the five-session dynamic schedule.
POLICY_MATRIX_MIXES = ("write-heavy", "balanced", "read-heavy", "dynamic")


def policy_lerp_config(n_missions: int, seed: int = 0) -> LerpConfig:
    """:class:`~repro.core.named_policy.NamedPolicyLerp` hyperparameters.

    The policy agent explores three arms with ε-greedy; ε anneals from 1 to
    its floor within ~45 % of the run (per session for dynamic schedules),
    mirroring how :func:`bench_lerp_config` sizes the ΔK noise decay.
    """
    budget = max(30, int(0.45 * n_missions))
    decay = math.exp(math.log(0.05) / budget)  # epsilon 1.0 -> 0.05
    return LerpConfig(
        policy_dqn=DQNConfig(
            state_dim=POLICY_STATE_DIM,
            n_actions=len(POLICY_NAMES),
            epsilon_decay=decay,
        ),
        stable_window=min(25, max(8, n_missions // 12)),
        max_stage_missions=max(40, int(0.55 * n_missions)),
        seed=seed,
    )


def policy_matrix_systems(n_missions: int, size_ratio: int = 10, seed: int = 0) -> List[SystemSpec]:
    """Lerp driving the policy action vs the three static disciplines."""
    lerp_config = policy_lerp_config(n_missions, seed=seed)
    tuned = SystemSpec("Lerp+policy", lambda config: NamedPolicyLerp(config, lerp_config), 1)
    statics = (
        ("Leveling", "leveling", 1),
        ("Tiering", "tiering", size_ratio),
        ("Lazy-Leveling", "lazy-leveling", size_ratio),
    )
    return [tuned] + [
        SystemSpec(name, lambda config, policy=policy: NamedPolicyTuner(policy), k)
        for name, policy, k in statics
    ]


def policy_matrix_experiment(
    mix: str,
    scale: Optional[BenchScale] = None,
    seed: int = 0,
) -> Experiment:
    """One panel of the policy matrix: static leveling vs static tiering vs
    static lazy-leveling vs Lerp driving the named-policy action."""
    scale = scale or bench_scale()
    workload: WorkloadSpec
    if mix == "dynamic":
        workload = paper_dynamic_workload(
            scale.n_records, scale.session_missions, seed=seed + 41
        )
        n_missions = workload.total_missions
        per_era_missions = scale.session_missions
    elif mix in STATIC_MIXES:
        workload = UniformWorkload(
            scale.n_records, STATIC_MIXES[mix], seed + 41, name=f"policy-{mix}"
        )
        n_missions = per_era_missions = scale.n_missions
    else:
        raise ConfigError(f"mix must be one of {POLICY_MATRIX_MIXES}, got {mix!r}")
    size_ratio = base_config(scale=scale).size_ratio
    return _experiment(
        f"policy-matrix-{mix}", workload, n_missions,
        policy_matrix_systems(per_era_missions, size_ratio=size_ratio, seed=seed),
        scale, seed,
    )


# ----------------------------------------------------------------------
# Figure 11: YCSB (Zipfian) workloads
# ----------------------------------------------------------------------
def ycsb_experiment(
    panel: str,
    scale: Optional[BenchScale] = None,
    seed: int = 0,
) -> Experiment:
    """Figure 11 panels: read-heavy / write-heavy / balanced / range."""
    scale = scale or bench_scale()
    if panel == "range":
        workload = YCSBWorkload.paper_range_mix(scale.n_records, seed=seed + 31)
        n_missions = max(40, scale.n_missions // 4)  # range scans are slow
    elif panel in STATIC_MIXES:
        workload = YCSBWorkload(
            scale.n_records, STATIC_MIXES[panel], seed + 31, name=f"ycsb-{panel}"
        )
        n_missions = scale.n_missions
    else:
        raise ConfigError(f"unknown YCSB panel: {panel!r}")
    return _experiment(
        f"fig11-{panel}", workload, n_missions,
        standard_systems(n_missions, seed=seed), scale, seed,
    )


#: The canonical experiments by name, at the active scale and seed 0 —
#: what ``python -m repro.bench <name>`` runs.
NAMED_EXPERIMENTS: Dict[str, Callable[[], Experiment]] = {
    "dynamic": dynamic_workload_experiment,
    "dynamic-greedy": partial(dynamic_workload_experiment, include_greedy=True),
    **{f"static:{mix}": partial(static_workload_experiment, mix) for mix in STATIC_MIXES},
    **{f"ycsb:{panel}": partial(ycsb_experiment, panel) for panel in [*STATIC_MIXES, "range"]},
}
