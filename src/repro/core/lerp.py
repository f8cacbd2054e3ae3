"""Lerp: the Level-based Reinforcement-learning tuner with policy
Propagation (paper Section 5).

Lerp trains one DDPG agent per *tuned* level. The action is a continuous
scalar in ``[-1, 1]`` discretized to ``ΔK ∈ {-1, 0, +1}`` — the paper's
"continuous change" restriction that shrinks the action space from
``O(T^L)`` to ``O(L)``. The reward is ``-(α·t_level + (1-α)·t_e2e)``.

Tuning proceeds in stages: under the uniform Bloom scheme only Level 1 is
learned; under Monkey, Level 1 then Level 2. When a stage's policy has been
stable for a window of missions (with exploration noise decayed), the stage
finishes; after the last stage the learned policies are *propagated* to all
deeper levels (copying under uniform, Eq. 4 under Monkey) and Lerp enters a
converged phase. A detected workload shift restarts tuning with fresh
exploration — networks and replay are retained because the state vector
encodes the workload mix, so old experience remains valid.

Two deliberately degraded modes reproduce the paper's brute-force
comparison (Section 7): ``mode="joint"`` uses a single agent over the joint
action space of all levels, and ``mode="all-levels"`` trains every level's
agent independently with no propagation.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config import SystemConfig, TransitionKind
from repro.core.detector import WorkloadChangeDetector
from repro.core.propagation import PolicyPropagator
from repro.core.state import (
    POLICY_STATE_DIM,
    STATE_DIM,
    RunningScale,
    current_policy_action,
    level_state,
    mission_reward,
    policy_state,
)
from repro.core.tuners import Tuner
from repro.errors import RLError
from repro.lsm.policy import POLICY_NAMES, policy_from_index
from repro.lsm.stats import MissionStats
from repro.lsm.tree import LSMTree
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.dqn import DQNAgent, DQNConfig

#: Continuous actions below/above these thresholds map to ΔK = -1 / +1.
ACTION_THRESHOLD = 1.0 / 3.0

#: Maximum tree depth the joint-agent ablation budgets for.
JOINT_MAX_LEVELS = 6


def discretize_action(action: float) -> int:
    """Map a continuous action in [-1, 1] to ΔK ∈ {-1, 0, +1}."""
    if action < -ACTION_THRESHOLD:
        return -1
    if action > ACTION_THRESHOLD:
        return 1
    return 0


@dataclass
class LerpConfig:
    """Hyperparameters of the Lerp tuner.

    ``alpha`` weighs level latency against end-to-end latency in the reward
    (the paper sets 1/2). ``stable_window`` missions of an unchanged policy
    (with noise below ``convergence_sigma``) finish a tuning stage;
    ``max_stage_missions`` bounds a stage even without stability.

    ``tune_policy`` switches Lerp from the per-level ΔK action space to the
    *named-policy* dimension: one DQN agent picks among
    leveling / tiering / lazy-leveling (:data:`repro.lsm.policy.POLICY_NAMES`)
    each mission and the choice is applied through ``transition`` as a
    whole-tree policy switch. The two action spaces are deliberately not
    tuned simultaneously — a named switch rewrites every level's ``K``,
    which would invalidate the per-level agents' credit assignment.
    """

    alpha: float = 0.5
    transition: TransitionKind = TransitionKind.FLEXIBLE
    agent_kind: str = "ddpg"  # "ddpg" | "dqn"
    ddpg: DDPGConfig = field(
        default_factory=lambda: DDPGConfig(state_dim=STATE_DIM, action_dim=1)
    )
    dqn: DQNConfig = field(
        default_factory=lambda: DQNConfig(state_dim=STATE_DIM, n_actions=3)
    )
    tune_policy: bool = False
    policy_dqn: DQNConfig = field(
        default_factory=lambda: DQNConfig(
            state_dim=POLICY_STATE_DIM, n_actions=len(POLICY_NAMES)
        )
    )
    updates_per_mission: int = 8
    stable_window: int = 25
    stability_tolerance: int = 1
    reward_smoothing: int = 3
    convergence_sigma: float = 0.08
    burn_in_missions: int = 5
    max_stage_missions: int = 400
    detector_threshold: float = 0.12
    scale_alpha: float = 0.0
    mode: str = "level"  # "level" | "joint" | "all-levels"
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise RLError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.agent_kind not in ("ddpg", "dqn"):
            raise RLError(f"unknown agent_kind: {self.agent_kind!r}")
        if self.mode not in ("level", "joint", "all-levels"):
            raise RLError(f"unknown mode: {self.mode!r}")
        if self.stable_window < 2:
            raise RLError("stable_window must be >= 2")
        if self.max_stage_missions < self.stable_window:
            raise RLError("max_stage_missions must be >= stable_window")
        if self.updates_per_mission < 1:
            raise RLError("updates_per_mission must be >= 1")
        if self.stability_tolerance < 0:
            raise RLError("stability_tolerance must be >= 0")
        if self.reward_smoothing < 1:
            raise RLError("reward_smoothing must be >= 1")
        if self.burn_in_missions < 0:
            raise RLError("burn_in_missions must be >= 0")
        if self.tune_policy:
            if self.policy_dqn.n_actions != len(POLICY_NAMES):
                raise RLError(
                    f"policy_dqn.n_actions must be {len(POLICY_NAMES)} "
                    f"(one per named policy), got {self.policy_dqn.n_actions}"
                )
            if self.policy_dqn.state_dim != POLICY_STATE_DIM:
                raise RLError(
                    f"policy_dqn.state_dim must be {POLICY_STATE_DIM}, "
                    f"got {self.policy_dqn.state_dim}"
                )


AgentType = Union[DDPGAgent, DQNAgent]


class Lerp(Tuner):
    """The RusKey tuning model."""

    name = "ruskey"

    # system_config/propagator are immutable wiring rebuilt from the
    # blueprint; every mutable learning component serializes itself.
    _snapshot_exempt = frozenset({"system_config", "propagator"})

    def __init__(self, system_config: SystemConfig, config: Optional[LerpConfig] = None):
        self.system_config = system_config
        self.config = config if config is not None else LerpConfig()
        self.config.validate()
        self._rng = np.random.default_rng(self.config.seed)
        self.propagator = PolicyPropagator(
            system_config.bloom_scheme, system_config.size_ratio
        )
        self.detector = WorkloadChangeDetector(
            threshold=self.config.detector_threshold
        )
        self._scale = RunningScale(alpha=self.config.scale_alpha)
        self._level_scales: Dict[int, RunningScale] = {}
        self._agents: Dict[int, AgentType] = {}
        self._joint_agent: Optional[DDPGAgent] = None
        self._last: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._reward_windows: Dict[int, Deque[float]] = {}
        # Per-level, per-policy mean of the raw (unnormalized) combined
        # latency observed while that policy was active in this workload
        # era: the empirical readout used to commit a finished stage.
        self._arm_stats: Dict[int, Dict[int, List[float]]] = {}
        self._k_history: Deque[int] = deque(maxlen=self.config.stable_window)
        self._stage_missions = 0
        self._stage_idx = 0
        self._learned: List[int] = []
        self._burn_in_left = self.config.burn_in_missions
        self._propagated: Optional[List[int]] = None
        self.converged = False
        self.restarts = 0
        self.total_model_update_s = 0.0
        # --- named-policy action dimension (config.tune_policy) ----------
        self._policy_agent: Optional[DQNAgent] = None
        self._policy_last: Optional[Tuple[np.ndarray, int]] = None
        self._policy_arm_stats: Dict[int, List[float]] = {}
        self._policy_history: Deque[int] = deque(
            maxlen=self.config.stable_window
        )
        self._policy_stage_missions = 0
        self.policy_converged = False
        # --- decision audit (repro.obs.audit) -----------------------------
        #: Optional :class:`~repro.obs.audit.DecisionAuditLog`. ``None``
        #: (the default) keeps every audit site a single attribute check.
        #: Events are emitted inside the ``observe_mission`` wall timer, so
        #: their cost lands in host ``total_model_update_s`` and no simulated
        #: observable moves (the zero-sim-impact contract, DESIGN.md §12).
        self.audit = None
        #: Missions observed so far — the audit events' mission index,
        #: aligned with the controller's per-mission ``policy_history``.
        self.missions_observed = 0

    # ------------------------------------------------------------------
    # Agent plumbing
    # ------------------------------------------------------------------
    def _make_agent(self) -> AgentType:
        if self.config.agent_kind == "ddpg":
            return DDPGAgent(self.config.ddpg, self._rng)
        return DQNAgent(self.config.dqn, self._rng)

    def _agent(self, level_no: int) -> AgentType:
        if level_no not in self._agents:
            self._agents[level_no] = self._make_agent()
        return self._agents[level_no]

    def _level_scale(self, level_no: int) -> RunningScale:
        if level_no not in self._level_scales:
            self._level_scales[level_no] = RunningScale(alpha=self.config.scale_alpha)
        return self._level_scales[level_no]

    def _select_action(
        self, agent: AgentType, state: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Returns (raw action for the replay buffer, ΔK).

        Besides the agent's own exploration noise, a small ε share of
        actions is drawn uniformly from {-1, 0, +1} while exploration is
        active (ε decays with the noise). A saturated tanh actor would
        otherwise stop producing counterfactual actions long before the
        critic has seen all policies, which traps short tuning stages at
        whatever K the first random walk reached.
        """
        if isinstance(agent, DDPGAgent):
            epsilon = 0.3 * min(
                1.0, agent.noise.sigma / max(agent.config.noise_sigma, 1e-9)
            )
            if not self.converged and self._rng.random() < epsilon:
                delta = int(self._rng.integers(-1, 2))
                # Store a representative continuous action for the critic.
                return np.asarray([0.8 * delta], dtype=float), delta
            raw = agent.act(state, explore=not self.converged)
            return raw, discretize_action(float(raw[0]))
        index = agent.act(state, explore=not self.converged)
        return np.asarray([index], dtype=float), index - 1

    def _exploration_low(self, agent: AgentType) -> bool:
        if isinstance(agent, DDPGAgent):
            return agent.noise.sigma <= self.config.convergence_sigma
        return agent.epsilon <= agent.config.epsilon_min + 1e-9

    # ------------------------------------------------------------------
    # Decision audit (repro.obs.audit)
    # ------------------------------------------------------------------
    def attach_audit(self, audit) -> None:
        """Attach a :class:`repro.obs.audit.DecisionAuditLog` (``None``
        detaches). Every subsequent decision — arm picks, ΔK moves, stage
        and policy commits, propagation, exploration restarts — is
        recorded with its context (ε/σ, reward, window stats)."""
        self.audit = audit

    def _audit(self, kind: str, **data: object) -> None:
        """Record one decision event; a no-op without an attached log."""
        if self.audit is not None:
            mission = self.missions_observed - 1
            self.audit.record(kind, mission if mission >= 0 else None, **data)

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def observe_mission(self, tree: LSMTree, mission: MissionStats) -> None:
        # repro: allow[SIM-PURITY] total_model_update_s is a documented
        # host-wall measurement (paper Fig. 13: tuner overhead); obs exports
        # it, it never enters SimClock or the decision state.
        started = time.perf_counter()
        try:
            self._observe(tree, mission)
        finally:
            # repro: allow[SIM-PURITY] closing half of the wall measurement above.
            self.total_model_update_s += time.perf_counter() - started

    def _observe(self, tree: LSMTree, mission: MissionStats) -> None:
        self.missions_observed += 1
        ops = max(1, mission.n_operations)
        self._scale.update(mission.total_time / ops)
        if self.detector.observe(mission.lookup_fraction):
            self._restart(reason="detector")
        if tree.n_levels == 0:
            return
        burning_in = self._burn_in_left > 0
        if burning_in:
            self._burn_in_left -= 1
        if self.config.tune_policy:
            self._tune_named_policy(tree, mission, burning_in)
            return
        if self.config.mode == "joint":
            self._observe_joint(tree, mission)
            return
        if self.converged:
            self._maintain_converged(tree)
            return
        if self.config.mode == "all-levels":
            for level in tree.levels:
                self._tune_level(tree, mission, level.level_no, track_stage=False)
            return
        # --- level mode: tune the current stage's level -------------------
        target = self.propagator.levels_to_learn
        stage_level = self._stage_idx + 1
        if tree.n_levels < stage_level:
            return
        self._tune_level(tree, mission, stage_level, track_stage=True)
        if self._stage_complete(stage_level):
            learned = self._stage_policy(tree, stage_level)
            if tree.level(stage_level).policy != learned:
                tree.set_policy(stage_level, learned, self.config.transition)
            self._learned.append(learned)
            self._audit(
                "stage_commit",
                level=stage_level,
                k=learned,
                stage_missions=self._stage_missions,
            )
            self._stage_idx += 1
            self._k_history.clear()
            self._stage_missions = 0
            if self._stage_idx >= target:
                self._finish_tuning(tree)

    # ------------------------------------------------------------------
    # Named-policy tuning step (the discrete policy action dimension)
    # ------------------------------------------------------------------
    def _tune_named_policy(
        self, tree: LSMTree, mission: MissionStats, burning_in: bool
    ) -> None:
        """One step of the tiering/leveling/lazy-leveling action dimension.

        A DQN agent over :data:`~repro.lsm.policy.POLICY_NAMES` observes a
        tree-global state and reward (−normalized end-to-end latency per
        op) and switches the whole tree's named policy through the
        configured transition. Convergence mirrors the ΔK stages: once the
        action has been stable for ``stable_window`` missions with
        exploration annealed (or ``max_stage_missions`` elapsed), the
        empirically best arm is committed; a detected workload shift
        re-opens exploration via :meth:`_restart`.
        """
        cfg = self.config
        if self._policy_agent is None:
            self._policy_agent = DQNAgent(cfg.policy_dqn, self._rng)
        agent = self._policy_agent
        if tree.compaction_policy is None:
            # Pin the tree so level growth keeps the active discipline while
            # the agent explores (flexible semantics: free, immediate).
            tree.set_named_policy(
                policy_from_index(current_policy_action(tree)),
                TransitionKind.FLEXIBLE,
            )
        current = current_policy_action(tree)
        ops = max(1, mission.n_operations)
        e2e = mission.total_time / ops
        if burning_in:
            # Scale still calibrating; neither learn the warm-up trend nor
            # let it bias the arm means _commit_policy reads.
            return
        if self.policy_converged:
            return
        self._policy_arm_stats.setdefault(current, []).append(e2e)
        state = policy_state(tree, mission, self._scale)
        reward = -self._scale.normalize(e2e)
        previous = self._policy_last
        if previous is not None:
            prev_state, prev_action = previous
            agent.observe(prev_state, prev_action, reward, state)
            for _ in range(cfg.updates_per_mission):
                agent.update()
        action = agent.act(state, explore=True)
        switched = action != current
        if switched:
            tree.set_named_policy(policy_from_index(action), cfg.transition)
        self._audit(
            "policy_action",
            arm=POLICY_NAMES[action],
            previous=POLICY_NAMES[current],
            switched=switched,
            epsilon=float(agent.epsilon),
            reward=None if previous is None else float(reward),
            e2e_latency=float(e2e),
            lookup_fraction=float(mission.lookup_fraction),
            window=len(self._policy_history),
        )
        self._policy_last = (state, action)
        agent.decay_epsilon()
        self._policy_history.append(action)
        self._policy_stage_missions += 1
        if self._policy_stage_complete(agent):
            self._commit_policy(tree)

    def _policy_stage_complete(self, agent: DQNAgent) -> bool:
        cfg = self.config
        if self._policy_stage_missions >= cfg.max_stage_missions:
            return True
        if len(self._policy_history) < cfg.stable_window:
            return False
        stable = len(set(self._policy_history)) == 1
        annealed = agent.epsilon <= agent.config.epsilon_min + 1e-9
        return stable and annealed

    def _commit_policy(self, tree: LSMTree) -> None:
        """Commit the empirically best named policy for this workload era.

        Like the ΔK stages, the exploration trajectory is a biased readout
        (ε-greedy can camp on one arm); the committed answer is the arm with
        the lowest mean observed end-to-end latency among arms with enough
        samples.
        """
        arms = {
            action: float(np.mean(latencies))
            for action, latencies in self._policy_arm_stats.items()
            if len(latencies) >= 3
        }
        if arms:
            best = min(arms, key=arms.get)
        elif self._policy_history:
            best = self._policy_history[-1]
        else:
            best = current_policy_action(tree)
        if best != current_policy_action(tree):
            tree.set_named_policy(
                policy_from_index(best), self.config.transition
            )
        self.policy_converged = True
        self.converged = True
        self._audit(
            "policy_commit",
            arm=POLICY_NAMES[best],
            arm_means={
                POLICY_NAMES[action]: mean for action, mean in arms.items()
            },
            stage_missions=self._policy_stage_missions,
        )

    # ------------------------------------------------------------------
    # Per-level tuning step
    # ------------------------------------------------------------------
    def _tune_level(
        self,
        tree: LSMTree,
        mission: MissionStats,
        level_no: int,
        track_stage: bool,
    ) -> None:
        cfg = self.config
        agent = self._agent(level_no)
        level = tree.level(level_no)
        ops = max(1, mission.n_operations)
        combined_latency = (
            cfg.alpha * mission.level_time(level_no) / ops
            + (1.0 - cfg.alpha) * mission.total_time / ops
        )
        arms = self._arm_stats.setdefault(level_no, {})
        arms.setdefault(level.policy, []).append(combined_latency)
        level_scale = self._level_scale(level_no)
        state = level_state(tree, mission, level_no, level_scale, self._scale)
        raw_reward = mission_reward(
            mission, level_no, cfg.alpha, level_scale, self._scale
        )
        window = self._reward_windows.setdefault(
            level_no, deque(maxlen=cfg.reward_smoothing)
        )
        window.append(raw_reward)
        reward = float(np.mean(window))
        if self._burn_in_left > 0:
            # Scales are still calibrating; acting or learning now would
            # absorb the warm-up trend into the critic.
            return
        previous = self._last.get(level_no)
        if previous is not None:
            prev_state, prev_action = previous
            if isinstance(agent, DDPGAgent):
                agent.observe(prev_state, prev_action, reward, state)
            else:
                agent.observe(prev_state, int(prev_action[0]), reward, state)
            for _ in range(cfg.updates_per_mission):
                agent.update()
        raw, delta = self._select_action(agent, state)
        new_policy = int(
            np.clip(level.policy + delta, 1, self.system_config.size_ratio)
        )
        if new_policy != level.policy:
            tree.set_policy(level_no, new_policy, cfg.transition)
        self._audit(
            "level_action",
            level=level_no,
            delta=int(delta),
            k=new_policy,
            sigma=(
                float(agent.noise.sigma)
                if isinstance(agent, DDPGAgent)
                else float(agent.epsilon)
            ),
            reward=float(reward),
        )
        self._last[level_no] = (state, raw)
        if isinstance(agent, DDPGAgent):
            agent.decay_noise()
        else:
            agent.decay_epsilon()
        if track_stage:
            self._k_history.append(new_policy)
            self._stage_missions += 1

    def _stage_complete(self, level_no: int) -> bool:
        cfg = self.config
        if self._stage_missions >= cfg.max_stage_missions:
            return True
        if len(self._k_history) < cfg.stable_window:
            return False
        spread = max(self._k_history) - min(self._k_history)
        stable = spread <= cfg.stability_tolerance
        return stable and self._exploration_low(self._agent(level_no))

    def _stage_policy(self, tree: LSMTree, level_no: int) -> int:
        """The policy a finished stage settles on.

        The exploration trajectory is a biased estimator of the learned
        optimum: OU noise can pin K against a boundary long enough to look
        "stable" while the critic has already learned to prefer a different
        region. So the stage's answer is extracted from the *actor*: starting
        from the trajectory's rounded mean, greedily follow the actor's
        deterministic ΔK recommendations (substituting the policy-dependent
        state features at each step) until a fixed point.
        """
        t = self.system_config.size_ratio
        arms = {
            policy: (float(np.mean(latencies)), len(latencies))
            for policy, latencies in self._arm_stats.get(level_no, {}).items()
            if len(latencies) >= 3
        }
        if arms:
            # Neighbor-smoothed means: the cost surface is smooth in K, so
            # averaging each arm with its neighbors damps lucky small-sample
            # arms without biasing the argmin.
            def smoothed(policy: int) -> float:
                total_weight = 0.0
                total = 0.0
                for neighbor, weight in (
                    (policy - 1, 0.5),
                    (policy, 1.0),
                    (policy + 1, 0.5),
                ):
                    if neighbor in arms:
                        mean, count = arms[neighbor]
                        effective = weight * min(count, 20)
                        total += effective * mean
                        total_weight += effective
                return total / total_weight

            return min(arms, key=smoothed)
        if self._k_history:
            k = int(np.clip(round(np.mean(self._k_history)), 1, t))
        else:
            k = tree.level(level_no).policy
        agent = self._agents.get(level_no)
        last = self._last.get(level_no)
        if not isinstance(agent, DDPGAgent) or last is None:
            return k
        state = last[0].copy()
        for _ in range(t):
            state[0] = k / t
            state[6] = min(k * state[1] / (2.0 * t), 1.0)
            action = float(agent.actor.forward(state[None, :])[0, 0])
            delta = discretize_action(action)
            next_k = int(np.clip(k + delta, 1, t))
            if next_k == k:
                break
            k = next_k
        return k

    # ------------------------------------------------------------------
    # Convergence & propagation
    # ------------------------------------------------------------------
    def _finish_tuning(self, tree: LSMTree) -> None:
        policies = self.propagator.propagate(self._learned, tree.n_levels)
        for level_no, policy in enumerate(policies, start=1):
            if tree.level(level_no).policy != policy:
                tree.set_policy(level_no, policy, self.config.transition)
        self._propagated = policies
        self.converged = True
        self._audit(
            "propagate",
            learned=list(self._learned),
            policies=list(policies),
        )

    def _maintain_converged(self, tree: LSMTree) -> None:
        """Keep newly created levels on the propagated profile."""
        assert self._propagated is not None
        if tree.n_levels > len(self._propagated):
            self._propagated = self.propagator.propagate(
                self._learned, tree.n_levels
            )
        for level_no in range(1, tree.n_levels + 1):
            want = self._propagated[level_no - 1]
            if tree.level(level_no).policy != want:
                tree.set_policy(level_no, want, self.config.transition)

    def _restart(self, reason: str = "detector") -> None:
        """Re-enter tuning after a workload shift (paper Section 3.1)."""
        self._audit(
            "restart",
            reason=reason,
            prior_restarts=self.restarts,
            was_converged=self.converged,
        )
        self.converged = False
        self._stage_idx = 0
        self._stage_missions = 0
        self._learned = []
        self._propagated = None
        self._k_history.clear()
        self._last.clear()
        self._reward_windows.clear()
        self._arm_stats.clear()
        self._burn_in_left = self.config.burn_in_missions
        self._policy_last = None
        self._policy_arm_stats.clear()
        self._policy_history.clear()
        self._policy_stage_missions = 0
        self.policy_converged = False
        self._scale.boost()
        for scale in self._level_scales.values():
            scale.boost()
        self.restarts += 1
        for agent in self._agents.values():
            agent.reset_exploration()
        if self._joint_agent is not None:
            self._joint_agent.reset_exploration()
        if self._policy_agent is not None:
            self._policy_agent.reset_exploration()

    def reset(self) -> None:
        """Full reset (drops all learned networks)."""
        self._agents.clear()
        self._joint_agent = None
        self._policy_agent = None
        self._restart(reason="reset")
        self.restarts = 0
        self.detector.reset()
        self._scale = RunningScale(alpha=self.config.scale_alpha)
        self._level_scales.clear()

    # ------------------------------------------------------------------
    # Snapshot hooks (see repro.persist and DESIGN.md §6)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Full serializable snapshot of the tuner.

        Covers the learned networks (per-level agents and the joint-ablation
        agent), replay buffers, optimizers, exploration state, normalization
        scales, the change detector, the tuning-stage bookkeeping and the
        shared RNG — everything needed to resume tuning bit-exactly.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "detector": self.detector.state_dict(),
            "scale": self._scale.state_dict(),
            "level_scales": {
                level_no: scale.state_dict()
                for level_no, scale in self._level_scales.items()
            },
            "agents": {
                level_no: agent.state_dict()
                for level_no, agent in self._agents.items()
            },
            "joint_agent": (
                None if self._joint_agent is None
                else self._joint_agent.state_dict()
            ),
            "policy_agent": (
                None if self._policy_agent is None
                else self._policy_agent.state_dict()
            ),
            "policy_last": (
                None if self._policy_last is None
                else (self._policy_last[0].copy(), int(self._policy_last[1]))
            ),
            "policy_arm_stats": {
                action: list(v)
                for action, v in self._policy_arm_stats.items()
            },
            "policy_history": list(self._policy_history),
            "policy_stage_missions": self._policy_stage_missions,
            "policy_converged": self.policy_converged,
            "last": {
                level_no: (state.copy(), action.copy())
                for level_no, (state, action) in self._last.items()
            },
            "reward_windows": {
                level_no: list(window)
                for level_no, window in self._reward_windows.items()
            },
            "arm_stats": {
                level_no: {policy: list(v) for policy, v in arms.items()}
                for level_no, arms in self._arm_stats.items()
            },
            "k_history": list(self._k_history),
            "stage_missions": self._stage_missions,
            "stage_idx": self._stage_idx,
            "learned": list(self._learned),
            "burn_in_left": self._burn_in_left,
            "propagated": (
                None if self._propagated is None else list(self._propagated)
            ),
            "converged": self.converged,
            "restarts": self.restarts,
            "total_model_update_s": self.total_model_update_s,
            "missions_observed": self.missions_observed,
            "audit": None if self.audit is None else self.audit.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the tuner in place from :meth:`state_dict` output.

        The tuner must have been constructed with an equivalent
        :class:`LerpConfig` (same agent architecture and mode). Agents are
        instantiated first — their construction-time weight draws are then
        overwritten, and the shared RNG state is restored last so the draw
        sequence continues exactly where the snapshot left it.
        """
        self.detector.load_state_dict(state["detector"])
        self._scale = RunningScale(alpha=self.config.scale_alpha)
        self._scale.load_state_dict(state["scale"])
        self._level_scales = {}
        for level_no, scale_state in state["level_scales"].items():
            scale = RunningScale(alpha=self.config.scale_alpha)
            scale.load_state_dict(scale_state)
            self._level_scales[int(level_no)] = scale
        self._agents = {}
        for level_no, agent_state in state["agents"].items():
            agent = self._make_agent()
            agent.load_state_dict(agent_state)
            self._agents[int(level_no)] = agent
        if state["joint_agent"] is None:
            self._joint_agent = None
        else:
            self._joint_agent = self._make_joint_agent()
            self._joint_agent.load_state_dict(state["joint_agent"])
        # Policy-dimension keys are absent in pre-policy snapshots.
        policy_agent = state.get("policy_agent")
        if policy_agent is None:
            self._policy_agent = None
        else:
            self._policy_agent = DQNAgent(self.config.policy_dqn, self._rng)
            self._policy_agent.load_state_dict(policy_agent)
        policy_last = state.get("policy_last")
        self._policy_last = (
            None
            if policy_last is None
            else (np.array(policy_last[0]), int(policy_last[1]))
        )
        self._policy_arm_stats = {
            int(action): list(v)
            for action, v in state.get("policy_arm_stats", {}).items()
        }
        self._policy_history = deque(
            state.get("policy_history", []), maxlen=self.config.stable_window
        )
        self._policy_stage_missions = int(state.get("policy_stage_missions", 0))
        self.policy_converged = bool(state.get("policy_converged", False))
        self._last = {
            int(level_no): (np.array(s), np.array(a))
            for level_no, (s, a) in state["last"].items()
        }
        self._reward_windows = {
            int(level_no): deque(values, maxlen=self.config.reward_smoothing)
            for level_no, values in state["reward_windows"].items()
        }
        self._arm_stats = {
            int(level_no): {
                int(policy): list(v) for policy, v in arms.items()
            }
            for level_no, arms in state["arm_stats"].items()
        }
        self._k_history = deque(
            state["k_history"], maxlen=self.config.stable_window
        )
        self._stage_missions = int(state["stage_missions"])
        self._stage_idx = int(state["stage_idx"])
        self._learned = [int(k) for k in state["learned"]]
        self._burn_in_left = int(state["burn_in_left"])
        propagated = state["propagated"]
        self._propagated = (
            None if propagated is None else [int(k) for k in propagated]
        )
        self.converged = bool(state["converged"])
        self.restarts = int(state["restarts"])
        self.total_model_update_s = float(state["total_model_update_s"])
        # Audit keys are absent in pre-telemetry snapshots.
        self.missions_observed = int(state.get("missions_observed", 0))
        audit_state = state.get("audit")
        if audit_state is not None:
            from repro.obs.audit import DecisionAuditLog

            self.audit = DecisionAuditLog.from_state_dict(audit_state)
        # Last: continue the exploration / sampling draw sequence exactly.
        self._rng.bit_generator.state = state["rng"]

    def warm_start(self, exploration_scale: float = 0.5) -> None:
        """Re-enter tuning for a *new* workload with pre-trained models.

        Keeps the learned networks, optimizers and replay buffers (the state
        vector encodes the workload mix, so old experience transfers) but
        clears episode-specific bookkeeping, re-opens scale calibration and
        restores exploration at ``exploration_scale`` of the configured
        level — a pre-trained critic needs less random search than a cold
        start. Used by the warm-start transfer experiment
        (:mod:`repro.bench.transfer`).
        """
        if exploration_scale <= 0.0:
            raise RLError(
                f"exploration_scale must be > 0, got {exploration_scale}"
            )
        self._restart(reason="warm_start")
        self.restarts = 0
        self.detector.reset()
        extra = [
            agent
            for agent in (self._joint_agent, self._policy_agent)
            if agent is not None
        ]
        for agent in list(self._agents.values()) + extra:
            if isinstance(agent, DDPGAgent):
                agent.reset_exploration(
                    agent.config.noise_sigma * exploration_scale
                )
            else:
                agent.reset_exploration(
                    max(
                        agent.config.epsilon_min,
                        agent.config.epsilon_start * exploration_scale,
                    )
                )

    # ------------------------------------------------------------------
    # Brute-force ablation: one agent over the joint action space
    # ------------------------------------------------------------------
    def _joint_state(self, tree: LSMTree, mission: MissionStats) -> np.ndarray:
        t = self.system_config.size_ratio
        ops = max(1, mission.n_operations)
        policies = np.zeros(JOINT_MAX_LEVELS)
        fills = np.zeros(JOINT_MAX_LEVELS)
        for level in tree.levels[:JOINT_MAX_LEVELS]:
            policies[level.level_no - 1] = level.policy / t
            fills[level.level_no - 1] = min(level.fill_ratio, 1.0)
        tail = np.asarray(
            [
                mission.lookup_fraction,
                self._scale.normalize(mission.total_time / ops),
            ]
        )
        return np.concatenate([policies, fills, tail])

    def _make_joint_agent(self) -> DDPGAgent:
        cfg = self.config
        joint_cfg = DDPGConfig(
            state_dim=2 * JOINT_MAX_LEVELS + 2,
            action_dim=JOINT_MAX_LEVELS,
            hidden=cfg.ddpg.hidden,
            noise_sigma=cfg.ddpg.noise_sigma,
            noise_decay=cfg.ddpg.noise_decay,
        )
        return DDPGAgent(joint_cfg, self._rng)

    def _observe_joint(self, tree: LSMTree, mission: MissionStats) -> None:
        cfg = self.config
        if self._joint_agent is None:
            self._joint_agent = self._make_joint_agent()
        agent = self._joint_agent
        state = self._joint_state(tree, mission)
        reward = -self._scale.normalize(
            mission.total_time / max(1, mission.n_operations)
        )
        previous = self._last.get(-1)
        if previous is not None:
            agent.observe(previous[0], previous[1], reward, state)
            for _ in range(cfg.updates_per_mission):
                agent.update()
        raw = agent.act(state, explore=True)
        for level in tree.levels[:JOINT_MAX_LEVELS]:
            delta = discretize_action(float(raw[level.level_no - 1]))
            new_policy = int(
                np.clip(level.policy + delta, 1, self.system_config.size_ratio)
            )
            if new_policy != level.policy:
                tree.set_policy(level.level_no, new_policy, cfg.transition)
        self._last[-1] = (state, raw)
        agent.decay_noise()
