"""What Lerp knows about one level: features, reward, scale, agent.

"The state captures the parameters related to the FLSM-tree and the workload
within a mission. Our model state consists of internal statistics of the
LSM-tree, such as the number of read and write I/Os, the level capacities,
and the current compaction policies at each level. It also includes workload
statistics such as the read/write ratio in the previous mission."
(paper Section 5.1.1.)

:func:`level_state` builds the per-level feature vector from exactly those
quantities, normalized so every feature is roughly in [0, 1] regardless of
mission size or device speed; :func:`mission_reward` is the two-term reward;
:class:`LevelAgent` owns both, plus the DDPG agent they feed, for one level.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.config import TransitionKind
from repro.errors import RLError
from repro.lsm.stats import MissionStats
from repro.lsm.tree import LSMTree
from repro.rl.ddpg import DDPGAgent

if TYPE_CHECKING:
    from repro.core.lerp import LerpConfig

#: Dimensionality of the per-level state vector.
STATE_DIM = 8

#: Dimensionality of the named-policy (tree-global) state vector
#: (:func:`repro.core.named_policy.policy_state`).
POLICY_STATE_DIM = 8

#: Continuous actions below/above these thresholds map to ΔK = -1 / +1.
ACTION_THRESHOLD = 1.0 / 3.0

#: The reward's weight of level latency against end-to-end latency
#: (paper Section 5.1.3 sets α = 1/2).
ALPHA = 0.5

#: A level agent learns from the mean reward of its last this-many missions.
REWARD_WINDOW = 3


def discretize_action(action: float) -> int:
    """Map a continuous action in [-1, 1] to ΔK ∈ {-1, 0, +1}."""
    if action < -ACTION_THRESHOLD:
        return -1
    if action > ACTION_THRESHOLD:
        return 1
    return 0


class RunningScale:
    """Calibrate-then-freeze normalization anchor for latencies.

    The scale averages its first ``calibration_samples`` inputs (a plain
    running mean) and then *freezes*. An adaptive scale would track whatever
    latency the current policy produces, so any policy held long enough
    drifts toward the same normalized reward (≈ 1) and the agent compares
    early samples against late ones instead of policy against policy. A
    frozen anchor keeps the reward an affine function of latency within one
    workload era; :meth:`boost` re-opens calibration when the workload
    shifts and latency magnitudes genuinely change.
    """

    def __init__(self, calibration_samples: int = 8) -> None:
        if calibration_samples < 1:
            raise RLError(f"calibration_samples must be >= 1, got {calibration_samples}")
        self.calibration_samples = calibration_samples
        self.value = 0.0
        self._count = 0

    def update(self, sample: float) -> float:
        """Fold ``sample`` into the anchor and return the current scale."""
        if sample < 0:
            raise RLError(f"scale samples must be >= 0, got {sample}")
        self._count += 1
        if self._count == 1 or self.value == 0.0:
            self.value = sample
        elif self._count <= self.calibration_samples:
            self.value += (sample - self.value) / self._count
        return self.value

    def boost(self) -> None:
        """Re-open calibration (workload shift): the next
        ``calibration_samples`` inputs re-anchor the scale."""
        self._count = 0

    def normalize(self, sample: float) -> float:
        """``sample / scale`` clipped to [0, 10]; 0 before initialization."""
        if self.value <= 0.0:
            return 0.0
        return float(min(sample / self.value, 10.0))


def level_state(
    tree: LSMTree,
    mission: MissionStats,
    level_no: int,
    level_scale: RunningScale,
    e2e_scale: RunningScale,
) -> np.ndarray:
    """Feature vector for ``level_no`` after ``mission``.

    Features (all ~[0, 1]):

    0. current policy ``K / T``
    1. level fill ratio ``D/C``
    2. mission lookup fraction γ
    3. level read latency per op (normalized by the level's running scale)
    4. level write latency per op (same normalization)
    5. end-to-end latency per op (normalized by the e2e running scale)
    6. number of runs in the level / ``2T`` (transition debt indicator)
    7. random read I/Os per lookup (read-amplification proxy, /4)
    """
    level = tree.level(level_no)
    t = tree.config.size_ratio
    ops = max(1, mission.n_operations)
    level_read = mission.level_read_time.get(level_no, 0.0) / ops
    level_write = mission.level_write_time.get(level_no, 0.0) / ops
    e2e = mission.total_time / ops
    reads_per_lookup = mission.io.random_reads / mission.n_lookups if mission.n_lookups else 0.0
    return np.asarray(
        [
            level.policy / t,
            min(level.fill_ratio, 1.0),
            mission.lookup_fraction,
            level_scale.normalize(level_read),
            level_scale.normalize(level_write),
            e2e_scale.normalize(e2e),
            min(level.n_runs / (2.0 * t), 1.0),
            min(reads_per_lookup / 4.0, 1.0),
        ],
        dtype=np.float64,
    )


def mission_reward(
    mission: MissionStats,
    level_no: int,
    alpha: float,
    level_scale: RunningScale,
    e2e_scale: RunningScale,
) -> float:
    """Lerp's reward for ``level_no``: ``-(α·t_i + (1-α)·t')``.

    ``t_i`` is the level's latency and ``t'`` the end-to-end latency, both
    per operation (paper Section 5.1.3; Lerp passes :data:`ALPHA`). Lower latency
    ⇒ higher (less negative) reward.

    Each term is normalized by its *own* slowly-moving scale. A level's
    latency is a small share of the end-to-end latency, so normalizing both
    by one scale would bury the local signal (exactly the signal the
    level-based model exists to exploit) under end-to-end compaction noise.
    Pure: folding the mission into the scales is the caller's move.
    """
    if not 0.0 <= alpha <= 1.0:
        raise RLError(f"alpha must be in [0, 1], got {alpha}")
    ops = max(1, mission.n_operations)
    t_level = mission.level_time(level_no) / ops
    t_e2e = mission.total_time / ops
    return -(alpha * level_scale.normalize(t_level) + (1.0 - alpha) * e2e_scale.normalize(t_e2e))


class LevelAgent:
    """Everything Lerp learns and remembers about one level.

    Constructing one draws its networks' initial weights from ``rng`` (the
    owning tuner's one generator), so *when* a tuner first asks for a level
    is part of its draw sequence.
    """

    def __init__(
        self,
        level_no: int,
        config: "LerpConfig",
        size_ratio: int,
        rng: np.random.Generator,
    ) -> None:
        self.level_no = level_no
        self.config = config
        self.size_ratio = size_ratio
        self._rng = rng
        self.agent = DDPGAgent(config.ddpg, rng)
        self.scale = RunningScale()
        #: The previous step's (state, raw action), awaiting its reward.
        self.last: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.reward_window: Deque[float] = deque(maxlen=REWARD_WINDOW)
        # Per-policy raw (unnormalized) combined latency observed while that
        # policy was active this workload era: what a finished stage reads.
        self.arm_stats: Dict[int, List[float]] = {}

    def step(
        self,
        tree: LSMTree,
        mission: MissionStats,
        e2e_scale: RunningScale,
        burning_in: bool,
        audit: Callable[..., None],
    ) -> Optional[int]:
        """One tuning move for this level: learn from the previous action's
        reward, pick ΔK, apply it. Returns the level's new ``K``, or
        ``None`` while ``burning_in`` (the mission is still recorded)."""
        cfg = self.config
        level = tree.level(self.level_no)
        ops = max(1, mission.n_operations)
        combined_latency = (
            ALPHA * mission.level_time(self.level_no) / ops
            + (1.0 - ALPHA) * mission.total_time / ops
        )
        self.arm_stats.setdefault(level.policy, []).append(combined_latency)
        state = level_state(tree, mission, self.level_no, self.scale, e2e_scale)
        # The state sees the scale as it was; the reward sees it updated.
        self.scale.update(mission.level_time(self.level_no) / ops)
        self.reward_window.append(
            mission_reward(mission, self.level_no, ALPHA, self.scale, e2e_scale)
        )
        reward = float(np.mean(self.reward_window))
        if burning_in:
            # Scales are still calibrating; acting or learning now would
            # absorb the warm-up trend into the critic.
            return None
        if self.last is not None:
            self.agent.observe(*self.last, reward, state)
            self.agent.update(cfg.updates_per_mission)
        raw, delta = self._select_action(state)
        new_policy = int(np.clip(level.policy + delta, 1, self.size_ratio))
        if new_policy != level.policy:
            tree.set_policy(self.level_no, new_policy, TransitionKind.FLEXIBLE)
        audit(
            "level_action",
            level=self.level_no,
            delta=int(delta),
            k=new_policy,
            sigma=float(self.agent.noise.sigma),
            reward=float(reward),
        )
        self.last = (state, raw)
        self.agent.decay_noise()
        return new_policy

    def _select_action(self, state: np.ndarray) -> Tuple[np.ndarray, int]:
        """Returns (raw action for the replay buffer, ΔK).

        Besides the agent's own exploration noise, a small ε share of
        actions is drawn uniformly from {-1, 0, +1} (ε decays with the
        noise): a saturated tanh actor would otherwise stop producing
        counterfactual actions long before the critic has seen all policies,
        trapping short stages at whatever K the first random walk reached.
        """
        agent = self.agent
        epsilon = 0.3 * min(1.0, agent.noise.sigma / max(agent.config.noise_sigma, 1e-9))
        if self._rng.random() < epsilon:
            delta = int(self._rng.integers(-1, 2))
            # Store a representative continuous action for the critic.
            return np.asarray([0.8 * delta], dtype=float), delta
        raw = agent.act(state, explore=True)
        return raw, discretize_action(float(raw[0]))

    def measured_best(self) -> Optional[int]:
        """Among the policies held for at least three missions this era, the
        one with the lowest neighbor-smoothed mean combined latency;
        ``None`` when no policy has three samples."""
        arms = {
            policy: (float(np.mean(latencies)), len(latencies))
            for policy, latencies in self.arm_stats.items()
            if len(latencies) >= 3
        }
        if not arms:
            return None

        # The cost surface is smooth in K, so averaging each arm with its
        # neighbors damps lucky small-sample arms without biasing the argmin.
        def smoothed(policy: int) -> float:
            total = total_weight = 0.0
            for neighbor, weight in ((policy - 1, 0.5), (policy, 1.0), (policy + 1, 0.5)):
                if neighbor in arms:
                    mean, count = arms[neighbor]
                    effective = weight * min(count, 20)
                    total += effective * mean
                    total_weight += effective
            return total / total_weight

        return min(arms, key=smoothed)

    def follow_actor(self, k: int) -> int:
        """From ``k``, greedily follow the actor's deterministic ΔK
        recommendations (substituting the policy-dependent features of the
        last observed state at each step) until a fixed point."""
        if self.last is None:
            return k
        t = self.size_ratio
        state = self.last[0].copy()
        for _ in range(t):
            state[0] = k / t
            state[6] = min(k * state[1] / (2.0 * t), 1.0)
            action = float(self.agent.actor.forward(state[None, :])[0, 0])
            next_k = int(np.clip(k + discretize_action(action), 1, t))
            if next_k == k:
                break
            k = next_k
        return k

    def restart(self, exploration_scale: float = 1.0) -> None:
        """New workload era: keep networks, replay and optimizers; forget
        the episode, re-open scale calibration, and explore again at
        ``exploration_scale`` of the configured noise."""
        self.last = None
        self.reward_window.clear()
        self.arm_stats.clear()
        self.scale.boost()
        self.agent.reset_exploration(self.agent.config.noise_sigma * exploration_scale)
