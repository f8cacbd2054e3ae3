"""NamedPolicyLerp: tuning the leveling / tiering / lazy-leveling choice.

Beyond the paper: ArceKV and CAMAL treat the merge discipline as the knob
that matters most under workload drift. Here it is a discrete RL action: one
DQN agent picks among :data:`repro.lsm.policy.POLICY_NAMES` each mission and
the choice is applied as a whole-tree flexible switch. A tuner of its own,
not a mode of :class:`~repro.core.lerp.Lerp`: a named switch rewrites every
level's ``K``, which would invalidate per-level agents' credit assignment.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.config import SystemConfig, TransitionKind
from repro.core.lerp import EpisodeTuner, LerpConfig
from repro.core.state import POLICY_STATE_DIM, RunningScale
from repro.errors import RLError
from repro.lsm.policy import (
    POLICY_NAMES,
    classify_policies,
    policy_from_index,
    policy_index,
)
from repro.lsm.stats import MissionStats
from repro.lsm.tree import LSMTree
from repro.rl.dqn import DQNAgent


def current_policy_action(tree: LSMTree) -> int:
    """The discrete named-policy action the tree currently embodies.

    A pinned tree reports its pin; an unpinned tree whose ``K`` vector
    matches a named discipline reports that; anything else (e.g. the K=5
    Moderate baseline, or mid-tuning per-level vectors) defaults to the
    leveling action — the paper's initial configuration.
    """
    name = tree.named_policy()
    if name is None:
        name = classify_policies(tree.policies(), tree.config.size_ratio)
    return policy_index(name) if name is not None else 0


def policy_state(
    tree: LSMTree,
    mission: MissionStats,
    e2e_scale: RunningScale,
) -> np.ndarray:
    """Tree-global feature vector for the named-policy action dimension.

    Features (all ~[0, 1]):

    0.   mission lookup fraction γ (point + range)
    1.   mission range fraction (range scans punish tiering hardest)
    2.   end-to-end latency per op (normalized by the e2e running scale)
    3-5. one-hot of the current named policy (leveling/tiering/lazy-leveling)
    6.   tree depth / 8
    7.   mean runs per level / ``2T`` (read-amplification / merge-debt proxy)
    """
    ops = max(1, mission.n_operations)
    t = tree.config.size_ratio
    one_hot = np.zeros(len(POLICY_NAMES))
    one_hot[current_policy_action(tree)] = 1.0
    mean_runs = (
        float(np.mean([level.n_runs for level in tree.levels]))
        if tree.levels
        else 0.0
    )
    head = np.asarray(
        [
            mission.lookup_fraction,
            mission.n_ranges / ops,
            e2e_scale.normalize(mission.total_time / ops),
        ]
    )
    tail = np.asarray(
        [
            min(tree.n_levels / 8.0, 1.0),
            min(mean_runs / (2.0 * t), 1.0),
        ]
    )
    return np.concatenate([head, one_hot, tail]).astype(np.float64)


class NamedPolicyLerp(EpisodeTuner):
    """A DQN over the named policies: observe a tree-global state and
    reward (−normalized end-to-end latency per op), switch the whole tree.

    Convergence mirrors Lerp's stages: once the action has been stable for
    ``stable_window`` missions with exploration annealed (or
    ``max_stage_missions`` elapsed), the empirically best arm is committed
    and pinned; a detected workload shift re-opens exploration.
    """

    def __init__(self, system_config: SystemConfig, config: Optional[LerpConfig] = None):
        super().__init__(system_config, config)
        dqn = self.config.policy_dqn
        if dqn.n_actions != len(POLICY_NAMES) or dqn.state_dim != POLICY_STATE_DIM:
            raise RLError(
                f"policy_dqn needs n_actions == {len(POLICY_NAMES)} (one per "
                f"named policy) and state_dim == {POLICY_STATE_DIM}, got "
                f"{dqn.n_actions} and {dqn.state_dim}"
            )
        self._agent: Optional[DQNAgent] = None
        #: The previous mission's (state, arm), awaiting its reward.
        self._last: Optional[Tuple[np.ndarray, int]] = None
        # Per-arm raw end-to-end latency this era: what _commit_policy reads.
        self._arm_stats: Dict[int, List[float]] = {}
        self._history: Deque[int] = deque(maxlen=self.config.stable_window)
        self._stage_missions = 0

    def _step(self, tree: LSMTree, mission: MissionStats, burning_in: bool) -> None:
        cfg = self.config
        if self._agent is None:
            self._agent = DQNAgent(cfg.policy_dqn, self._rng)
        agent = self._agent
        if tree.compaction_policy is None:
            # Pin the tree so level growth keeps the active discipline while
            # the agent explores (flexible semantics: free, immediate).
            tree.set_named_policy(
                policy_from_index(current_policy_action(tree)),
                TransitionKind.FLEXIBLE,
            )
        # Burn-in: the scale is still calibrating; neither learn the warm-up
        # trend nor let it bias the arm means _commit_policy reads.
        if burning_in or self.converged:
            return
        current = current_policy_action(tree)
        e2e = mission.total_time / max(1, mission.n_operations)
        self._arm_stats.setdefault(current, []).append(e2e)
        state = policy_state(tree, mission, self._scale)
        reward = -self._scale.normalize(e2e)
        previous = self._last
        if previous is not None:
            agent.observe(*previous, reward, state)
            for _ in range(cfg.updates_per_mission):
                agent.update()
        action = agent.act(state, explore=True)
        switched = action != current
        if switched:
            tree.set_named_policy(policy_from_index(action), TransitionKind.FLEXIBLE)
        self._audit(
            "policy_action",
            arm=POLICY_NAMES[action],
            previous=POLICY_NAMES[current],
            switched=switched,
            epsilon=float(agent.epsilon),
            reward=None if previous is None else float(reward),
            e2e_latency=float(e2e),
            lookup_fraction=float(mission.lookup_fraction),
            window=len(self._history),
        )
        self._last = (state, action)
        agent.decay_epsilon()
        self._history.append(action)
        self._stage_missions += 1
        if self._stage_complete(agent):
            self._commit_policy(tree)

    def _stage_complete(self, agent: DQNAgent) -> bool:
        cfg = self.config
        if self._stage_missions >= cfg.max_stage_missions:
            return True
        if len(self._history) < cfg.stable_window:
            return False
        annealed = agent.epsilon <= agent.config.epsilon_min + 1e-9
        return len(set(self._history)) == 1 and annealed

    def _commit_policy(self, tree: LSMTree) -> None:
        """Commit the empirically best named policy for this workload era:
        the exploration trajectory is a biased readout (ε-greedy can camp on
        one arm), so the answer is the arm with the lowest mean observed
        end-to-end latency among arms with enough samples."""
        arms = {
            action: float(np.mean(latencies))
            for action, latencies in self._arm_stats.items()
            if len(latencies) >= 3
        }
        if arms:
            best = min(arms, key=arms.get)
        elif self._history:
            best = self._history[-1]
        else:
            best = current_policy_action(tree)
        if best != current_policy_action(tree):
            tree.set_named_policy(policy_from_index(best), TransitionKind.FLEXIBLE)
        self.converged = True
        self._audit(
            "policy_commit",
            arm=POLICY_NAMES[best],
            arm_means={POLICY_NAMES[action]: mean for action, mean in arms.items()},
            stage_missions=self._stage_missions,
        )

    def _restart(self, reason: str = "detector", exploration_scale: float = 1.0) -> None:
        super()._restart(reason, exploration_scale)
        self._last = None
        self._arm_stats.clear()
        self._history.clear()
        self._stage_missions = 0
        if self._agent is not None:
            dqn = self._agent.config
            epsilon = max(dqn.epsilon_min, dqn.epsilon_start * exploration_scale)
            self._agent.reset_exploration(epsilon)
