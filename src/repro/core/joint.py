"""JointLerp: the joint-action-space tuner the paper compares Lerp against.

Section 7's first brute-force approach: one DDPG agent over the joint ``ΔK``
action of all levels, with no level-based decomposition. Run beside
:class:`~repro.core.lerp.Lerp` and :class:`~repro.core.lerp.AllLevelsLerp`
for the same mission budget (``benchmarks/test_bruteforce_ablation.py``), it
cannot finish learning in time.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import SystemConfig, TransitionKind
from repro.core.lerp import EpisodeTuner, LerpConfig
from repro.core.state import discretize_action
from repro.lsm.stats import MissionStats
from repro.lsm.tree import LSMTree
from repro.rl.ddpg import DDPGAgent, DDPGConfig

#: Maximum tree depth the joint agent budgets for.
JOINT_MAX_LEVELS = 6


class JointLerp(EpisodeTuner):
    """One agent, one action vector: ``ΔK`` for the first
    :data:`JOINT_MAX_LEVELS` levels at once. Burn-in and convergence do not
    apply — it acts and learns every mission and never settles."""

    def __init__(self, system_config: SystemConfig, config: Optional[LerpConfig] = None):
        super().__init__(system_config, config)
        self._joint_agent: Optional[DDPGAgent] = None
        #: The previous mission's (state, raw action), awaiting its reward.
        self._last: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _make_agent(self) -> DDPGAgent:
        ddpg = self.config.ddpg
        joint_config = DDPGConfig(
            state_dim=2 * JOINT_MAX_LEVELS + 2,
            action_dim=JOINT_MAX_LEVELS,
            hidden=ddpg.hidden,
            noise_sigma=ddpg.noise_sigma,
            noise_decay=ddpg.noise_decay,
        )
        return DDPGAgent(joint_config, self._rng)

    def _joint_state(self, tree: LSMTree, mission: MissionStats) -> np.ndarray:
        t = self.system_config.size_ratio
        ops = max(1, mission.n_operations)
        policies = np.zeros(JOINT_MAX_LEVELS)
        fills = np.zeros(JOINT_MAX_LEVELS)
        for level in tree.levels[:JOINT_MAX_LEVELS]:
            policies[level.level_no - 1] = level.policy / t
            fills[level.level_no - 1] = min(level.fill_ratio, 1.0)
        tail = np.asarray(
            [mission.lookup_fraction, self._scale.normalize(mission.total_time / ops)]
        )
        return np.concatenate([policies, fills, tail])

    def _step(self, tree: LSMTree, mission: MissionStats, burning_in: bool) -> None:
        cfg = self.config
        if self._joint_agent is None:
            self._joint_agent = self._make_agent()
        agent = self._joint_agent
        state = self._joint_state(tree, mission)
        reward = -self._scale.normalize(mission.total_time / max(1, mission.n_operations))
        if self._last is not None:
            agent.observe(*self._last, reward, state)
            agent.update(cfg.updates_per_mission)
        raw = agent.act(state, explore=True)
        t = self.system_config.size_ratio
        for level in tree.levels[:JOINT_MAX_LEVELS]:
            delta = discretize_action(float(raw[level.level_no - 1]))
            new_policy = int(np.clip(level.policy + delta, 1, t))
            if new_policy != level.policy:
                tree.set_policy(level.level_no, new_policy, TransitionKind.FLEXIBLE)
        self._last = (state, raw)
        agent.decay_noise()

    def _restart(self, reason: str = "detector", exploration_scale: float = 1.0) -> None:
        super()._restart(reason, exploration_scale)
        self._last = None
        agent = self._joint_agent
        if agent is not None:
            agent.reset_exploration(agent.config.noise_sigma * exploration_scale)
