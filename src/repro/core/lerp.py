"""Lerp: the Level-based Reinforcement-learning tuner with policy
Propagation (paper Section 5), built from parts (DESIGN.md "Tuner anatomy").

* :class:`~repro.core.state.LevelAgent` — everything learned and remembered
  about one level: a DDPG agent whose continuous action in ``[-1, 1]`` is
  discretized to ``ΔK ∈ {-1, 0, +1}`` (the paper's "continuous change"
  restriction, shrinking the action space from ``O(T^L)`` to ``O(L)``) and
  rewarded ``-(α·t_level + (1-α)·t_e2e)``.
* :class:`EpisodeTuner` — what every learned tuner does around its step:
  scale, change detector, restart, burn-in, host timer, audit, one RNG.
* :class:`Lerp` — the paper's tuner: stages over level agents (Level 1
  under the uniform Bloom scheme; Level 1 then Level 2 under Monkey), then
  *propagation* of the learned policies to all deeper levels (copying under
  uniform, Eq. 4 under Monkey) and a converged phase. A detected workload
  shift restarts tuning with fresh exploration; networks and replay are
  kept — the state vector encodes the workload mix, so old experience
  remains valid.

The tuners Lerp is compared against are other compositions of the same
parts: :class:`AllLevelsLerp` and :mod:`repro.core.joint` (Section 7's
brute-force approaches), and :mod:`repro.core.named_policy`.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.config import SystemConfig, TransitionKind
from repro.core.detector import WorkloadChangeDetector
from repro.core.propagation import PolicyPropagator
from repro.core.state import POLICY_STATE_DIM, STATE_DIM, LevelAgent, RunningScale
from repro.core.tuners import Tuner
from repro.errors import RLError
from repro.lsm.policy import POLICY_NAMES
from repro.lsm.stats import MissionStats
from repro.lsm.tree import LSMTree
from repro.obs.trace import Span
from repro.rl.ddpg import DDPGConfig
from repro.rl.dqn import DQNConfig


@dataclass
class LerpConfig:
    """Hyperparameters shared by the learned tuners.

    ``alpha`` weighs level latency against end-to-end latency in the reward
    (the paper sets 1/2). ``stable_window`` missions of an unchanged policy
    (with noise below ``convergence_sigma``) finish a tuning stage;
    ``max_stage_missions`` bounds a stage even without stability. ``ddpg``
    configures the level agents (and lends its hidden sizes and noise
    schedule to :class:`~repro.core.joint.JointLerp`); ``policy_dqn``
    configures :class:`~repro.core.named_policy.NamedPolicyLerp`'s agent,
    which checks it. Which tuner runs is the class the caller builds.
    """

    alpha: float = 0.5
    transition: TransitionKind = TransitionKind.FLEXIBLE
    ddpg: DDPGConfig = field(
        default_factory=lambda: DDPGConfig(state_dim=STATE_DIM, action_dim=1)
    )
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
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise RLError(f"alpha must be in [0, 1], got {self.alpha}")
        minimums = dict(
            stable_window=2, updates_per_mission=1, stability_tolerance=0,
            reward_smoothing=1, burn_in_missions=0,
        )
        for name, minimum in minimums.items():
            if getattr(self, name) < minimum:
                raise RLError(f"{name} must be >= {minimum}")
        if self.max_stage_missions < self.stable_window:
            raise RLError("max_stage_missions must be >= stable_window")
        if (self.ddpg.state_dim, self.ddpg.action_dim) != (STATE_DIM, 1):
            raise RLError(
                f"level agents need ddpg (state_dim, action_dim) == ({STATE_DIM}, 1),"
                f" got ({self.ddpg.state_dim}, {self.ddpg.action_dim})"
            )


def per_shard_tuners(tuner_class, system_config, config: LerpConfig, n: int) -> list:
    """``n`` independent tuners, shard ``i``'s seeded ``config.seed + i`` (as
    ``ShardedStore`` offsets shard tree seeds): with one seed they would draw
    identical exploration noise over near-identical shard stats and tune in
    lockstep."""
    return [
        tuner_class(system_config, dataclasses.replace(config, seed=config.seed + i))
        for i in range(n)
    ]


class EpisodeTuner(Tuner):
    """The episode every learned tuner shares; a tuner is this plus a step.

    A subclass defines :meth:`_step` and extends — calling ``super()`` —
    ``_restart`` (its episode bookkeeping, its agents' exploration) and
    ``reset`` (its agents). Agents are built lazily from :attr:`_rng` at
    first use, so *when* a part is built is part of the draw sequence; a
    pickled tuner carries its parts and the RNG as they are.
    """

    def __init__(self, system_config: SystemConfig, config: Optional[LerpConfig] = None):
        self.system_config = system_config
        self.config = config if config is not None else LerpConfig()
        self.config.validate()
        self._rng = np.random.default_rng(self.config.seed)
        self.detector = WorkloadChangeDetector(self.config.detector_threshold)
        self._scale = RunningScale()
        self._burn_in_left = self.config.burn_in_missions
        self.converged = False
        self.restarts = 0
        self.total_model_update_s = 0.0
        #: Optional :class:`~repro.obs.audit.DecisionAuditLog`. Events are
        #: recorded inside the ``observe_mission`` wall timer: their cost is
        #: host time and no simulated observable moves (DESIGN.md §12).
        self.audit = None
        #: The audit events' mission index, aligned with ``policy_history``.
        self.missions_observed = 0

    def attach_audit(self, audit) -> None:
        """Attach a :class:`repro.obs.audit.DecisionAuditLog` (``None``
        detaches): every later decision, commit, propagation and restart is
        recorded with its context (ε/σ, reward, window stats)."""
        self.audit = audit

    def _audit(self, kind: str, **data: object) -> None:
        """Record one decision event; a no-op without an attached log."""
        if self.audit is not None:
            mission = self.missions_observed - 1
            self.audit.record(kind, mission if mission >= 0 else None, **data)

    def observe_mission(self, tree: LSMTree, mission: MissionStats) -> None:
        # total_model_update_s is host wall time (paper Fig. 13: tuner
        # overhead), lapped on a span held for this call, so the clock is
        # read in obs/; it never enters SimClock or the decision state.
        watch = Span("tuner.observe_mission")
        try:
            self._observe(tree, mission)
        finally:
            watch.lap("model_update")
            self.total_model_update_s += watch.stages["model_update"][0]

    def _observe(self, tree: LSMTree, mission: MissionStats) -> None:
        self.missions_observed += 1
        self._scale.update(mission.total_time / max(1, mission.n_operations))
        if self.detector.observe(mission.lookup_fraction):
            self._restart(reason="detector")
        if tree.n_levels == 0:
            return
        burning_in = self._burn_in_left > 0
        if burning_in:
            self._burn_in_left -= 1
        self._step(tree, mission, burning_in)

    def _step(self, tree: LSMTree, mission: MissionStats, burning_in: bool) -> None:
        """The tuner's move for one mission on a non-empty tree.
        ``burning_in`` is the flag from *before* this mission's tick;
        ``self._burn_in_left > 0`` is the one from after it."""
        raise NotImplementedError

    def _restart(self, reason: str = "detector", exploration_scale: float = 1.0) -> None:
        """Re-enter tuning after a workload shift (paper Section 3.1). A
        subclass also clears its episode and re-opens its agents' exploration
        at ``exploration_scale`` of their configured level."""
        self._audit(
            "restart",
            reason=reason,
            prior_restarts=self.restarts,
            was_converged=self.converged,
        )
        self.converged = False
        self._burn_in_left = self.config.burn_in_missions
        self._scale.boost()
        self.restarts += 1

    def warm_start(self, exploration_scale: float = 0.5) -> None:
        """Re-enter tuning for a *new* workload with pre-trained models: keep
        networks, optimizers and replay (old experience transfers), clear the
        episode, re-open scale calibration, and explore at
        ``exploration_scale`` of the configured level — a pre-trained critic
        needs less random search (:mod:`repro.bench.transfer`)."""
        if exploration_scale <= 0.0:
            raise RLError(f"exploration_scale must be > 0, got {exploration_scale}")
        self._restart("warm_start", exploration_scale)
        self.restarts = 0
        self.detector.reset()

    def reset(self) -> None:
        """Full reset (a subclass drops its learned networks first)."""
        self._restart(reason="reset")
        self.restarts = 0
        self.detector.reset()
        self._scale = RunningScale()


class AllLevelsLerp(EpisodeTuner):
    """Section 7's "all levels, no propagation": a level agent for *every*
    level, each tuned every mission; no stages, and nothing converges — the
    under-sampled deep levels never reach their optimum. Also the home of
    what :class:`Lerp` shares with it: the level agents, built lazily, and
    their restart / warm start / reset / snapshot."""

    def __init__(self, system_config: SystemConfig, config: Optional[LerpConfig] = None):
        super().__init__(system_config, config)
        self._levels: Dict[int, LevelAgent] = {}

    def _level(self, level_no: int) -> LevelAgent:
        if level_no not in self._levels:
            self._levels[level_no] = LevelAgent(
                level_no, self.config, self.system_config.size_ratio, self._rng
            )
        return self._levels[level_no]

    def _step(self, tree: LSMTree, mission: MissionStats, burning_in: bool) -> None:
        for level in tree.levels:
            self._level(level.level_no).step(
                tree, mission, self._scale, self._burn_in_left > 0, self._audit
            )

    def _restart(self, reason: str = "detector", exploration_scale: float = 1.0) -> None:
        super()._restart(reason, exploration_scale)
        for part in self._levels.values():
            part.restart(exploration_scale)

    def reset(self) -> None:
        self._levels.clear()
        super().reset()


class Lerp(AllLevelsLerp):
    """The RusKey tuning model: the level agents tuned in stages, one level
    at a time, then propagation."""

    name = "ruskey"

    # perfbench's tracer patches ``vars(Lerp)["observe_mission"]``.
    observe_mission = EpisodeTuner.observe_mission

    def __init__(self, system_config: SystemConfig, config: Optional[LerpConfig] = None):
        super().__init__(system_config, config)
        self.propagator = PolicyPropagator(
            system_config.bloom_scheme, system_config.size_ratio
        )
        self._k_history: Deque[int] = deque(maxlen=self.config.stable_window)
        self._stage_missions = 0
        self._stage_idx = 0
        self._learned: List[int] = []
        self._propagated: Optional[List[int]] = None

    def _step(self, tree: LSMTree, mission: MissionStats, burning_in: bool) -> None:
        if self.converged:
            self._maintain_converged(tree)
            return
        stage_level = self._stage_idx + 1
        if tree.n_levels < stage_level:
            return
        part = self._level(stage_level)
        new_policy = part.step(
            tree, mission, self._scale, self._burn_in_left > 0, self._audit
        )
        if new_policy is not None:
            self._k_history.append(new_policy)
            self._stage_missions += 1
        if self._stage_complete(part):
            learned = self._stage_policy(tree, part)
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
            if self._stage_idx >= self.propagator.levels_to_learn:
                self._finish_tuning(tree)

    def _stage_complete(self, part: LevelAgent) -> bool:
        cfg = self.config
        if self._stage_missions >= cfg.max_stage_missions:
            return True
        if len(self._k_history) < cfg.stable_window:
            return False
        spread = max(self._k_history) - min(self._k_history)
        annealed = part.agent.noise.sigma <= cfg.convergence_sigma
        return spread <= cfg.stability_tolerance and annealed

    def _stage_policy(self, tree: LSMTree, part: LevelAgent) -> int:
        """The policy a finished stage settles on. The exploration trajectory
        is a biased estimator of the learned optimum (OU noise can pin K
        against a boundary long enough to look "stable"), so the answer is
        read off what was *measured* (:meth:`LevelAgent.measured_best`); only
        when no policy has enough samples is it extracted from the *actor*,
        walking from the trajectory's rounded mean
        (:meth:`LevelAgent.follow_actor`)."""
        best = part.measured_best()
        if best is not None:
            return best
        if self._k_history:
            t = self.system_config.size_ratio
            k = int(np.clip(round(np.mean(self._k_history)), 1, t))
        else:
            k = tree.level(part.level_no).policy
        return part.follow_actor(k)

    def _finish_tuning(self, tree: LSMTree) -> None:
        policies = self.propagator.propagate(self._learned, tree.n_levels)
        for level_no, policy in enumerate(policies, start=1):
            if tree.level(level_no).policy != policy:
                tree.set_policy(level_no, policy, self.config.transition)
        self._propagated = policies
        self.converged = True
        self._audit("propagate", learned=list(self._learned), policies=list(policies))

    def _maintain_converged(self, tree: LSMTree) -> None:
        """Keep newly created levels on the propagated profile."""
        assert self._propagated is not None
        if tree.n_levels > len(self._propagated):
            self._propagated = self.propagator.propagate(self._learned, tree.n_levels)
        for level_no in range(1, tree.n_levels + 1):
            want = self._propagated[level_no - 1]
            if tree.level(level_no).policy != want:
                tree.set_policy(level_no, want, self.config.transition)

    def _restart(self, reason: str = "detector", exploration_scale: float = 1.0) -> None:
        super()._restart(reason, exploration_scale)
        self._stage_idx = 0
        self._stage_missions = 0
        self._learned = []
        self._propagated = None
        self._k_history.clear()
