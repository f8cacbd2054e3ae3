"""RusKey core: the tuning models, mission loop and system facade."""

from repro.core.detector import WorkloadChangeDetector
from repro.core.joint import JointLerp
from repro.core.lerp import AllLevelsLerp, Lerp, LerpConfig
from repro.core.missions import MissionRunner
from repro.core.named_policy import (
    NamedPolicyLerp,
    current_policy_action,
    policy_state,
)
from repro.core.propagation import PolicyPropagator
from repro.core.ruskey import RusKey
from repro.core.state import (
    POLICY_STATE_DIM,
    STATE_DIM,
    RunningScale,
    discretize_action,
    level_state,
    mission_reward,
)
from repro.core.tuners import (
    GreedyThresholdTuner,
    LazyLevelingTuner,
    NamedPolicyTuner,
    StaticTuner,
    Tuner,
)

__all__ = [
    "RusKey",
    "Lerp",
    "AllLevelsLerp",
    "JointLerp",
    "NamedPolicyLerp",
    "LerpConfig",
    "discretize_action",
    "MissionRunner",
    "PolicyPropagator",
    "WorkloadChangeDetector",
    "Tuner",
    "StaticTuner",
    "LazyLevelingTuner",
    "NamedPolicyTuner",
    "GreedyThresholdTuner",
    "STATE_DIM",
    "POLICY_STATE_DIM",
    "RunningScale",
    "current_policy_action",
    "level_state",
    "policy_state",
    "mission_reward",
]
