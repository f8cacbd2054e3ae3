"""Tuner interface and the paper's non-RL baselines.

A *tuner* observes each finished mission and may adjust the tree's
compaction policies before the next one. Implementations:

* :class:`StaticTuner` — fixed policy ``K`` on every level; instantiates the
  paper's Aggressive (K=1), Moderate (K=5) and Lazy (K=10) baselines.
* :class:`LazyLevelingTuner` — Dostoevsky's Lazy-Leveling: the largest level
  uses ``K=1``, every other level ``K=T``.
* :class:`GreedyThresholdTuner` — the heuristic family of the paper's
  Figure 12: when the observed lookup share drops below ``h_bottom`` the
  policy is incremented (lazier); above ``h_top`` it is decremented
  (more aggressive).
* :class:`repro.core.lerp.Lerp` — the RL tuner (DESIGN.md "Tuner anatomy").
"""

from __future__ import annotations

from repro.config import TransitionKind
from repro.errors import ConfigError
from repro.lsm.policy import LazyLevelingPolicy, PolicyLike, resolve_policy
from repro.lsm.stats import MissionStats
from repro.lsm.tree import LSMTree


class Tuner:
    """Observes missions and adjusts compaction policies."""

    def observe_mission(self, tree: LSMTree, mission: MissionStats) -> None:
        """Called once after each mission; may change ``tree`` policies."""
        raise NotImplementedError

    def attach_audit(self, audit) -> None:
        """Attach a :class:`repro.obs.audit.DecisionAuditLog`. A no-op here
        (the baselines make no decisions worth auditing); the learned tuners
        (:mod:`repro.core.lerp`) record every decision."""
        return None


class StaticTuner(Tuner):
    """Pins every level (including newly created ones) to one policy."""

    def __init__(self, policy: int, transition: TransitionKind = TransitionKind.FLEXIBLE) -> None:
        if policy < 1:
            raise ConfigError(f"policy must be >= 1, got {policy}")
        self.policy = policy
        self.transition = transition

    def observe_mission(self, tree: LSMTree, mission: MissionStats) -> None:
        for level in tree.levels:
            if level.policy != self.policy:
                tree.set_policy(level.level_no, self.policy, self.transition)


class NamedPolicyTuner(Tuner):
    """Pins the tree to one named compaction policy (leveling / tiering /
    lazy-leveling, see :mod:`repro.lsm.policy`).

    The pin itself keeps the tree on the discipline as it grows (under
    lazy-leveling the bottom level moves); this tuner only re-establishes
    the pin if something else dropped it. The static arms of the policy
    matrix benchmark are instances of this tuner.
    """

    def __init__(
        self, policy: PolicyLike, transition: TransitionKind = TransitionKind.FLEXIBLE
    ) -> None:
        self.policy = resolve_policy(policy)
        self.transition = transition

    def observe_mission(self, tree: LSMTree, mission: MissionStats) -> None:
        if tree.compaction_policy != self.policy:
            tree.set_named_policy(self.policy, self.transition)


class LazyLevelingTuner(Tuner):
    """Dostoevsky's Lazy-Leveling: tiering everywhere, leveling at the
    bottom. Reapplied as the tree grows so the largest level stays K=1."""

    def __init__(self, transition: TransitionKind = TransitionKind.FLEXIBLE) -> None:
        self.transition = transition

    def desired_policies(self, tree: LSMTree) -> "list[int]":
        return LazyLevelingPolicy().assignments(tree.n_levels, tree.config.size_ratio)

    def observe_mission(self, tree: LSMTree, mission: MissionStats) -> None:
        for level, want in zip(tree.levels, self.desired_policies(tree)):
            if level.policy != want:
                tree.set_policy(level.level_no, want, self.transition)


class GreedyThresholdTuner(Tuner):
    """Per-level threshold heuristic (paper Figure 12).

    "If the percentage of lookups in the level is less than ``h_bottom``,
    the greedy algorithm identifies the workload as write-heavy and
    increases the compaction policy of the level by one. Conversely, if the
    percentage of lookups in the level exceeds ``h_top``, the greedy
    algorithm recognizes the workload as read-heavy and decreases the
    compaction policy by one."

    The per-level lookup share is estimated from the level's read/write
    latency split for the mission, falling back to the global mission mix
    for levels the mission did not touch.
    """

    def __init__(
        self,
        h_bottom: float,
        h_top: float,
        transition: TransitionKind = TransitionKind.FLEXIBLE,
    ) -> None:
        if not 0.0 <= h_bottom <= h_top <= 1.0:
            raise ConfigError(
                f"need 0 <= h_bottom <= h_top <= 1, got {h_bottom}, {h_top}"
            )
        self.h_bottom = h_bottom
        self.h_top = h_top
        self.transition = transition

    def _level_lookup_share(self, mission: MissionStats, level_no: int) -> float:
        read = mission.level_read_time.get(level_no, 0.0)
        write = mission.level_write_time.get(level_no, 0.0)
        if read + write <= 0.0:
            return mission.lookup_fraction
        return read / (read + write)

    def observe_mission(self, tree: LSMTree, mission: MissionStats) -> None:
        t = tree.config.size_ratio
        for level in tree.levels:
            share = self._level_lookup_share(mission, level.level_no)
            if share < self.h_bottom and level.policy < t:
                tree.set_policy(level.level_no, level.policy + 1, self.transition)
            elif share > self.h_top and level.policy > 1:
                tree.set_policy(level.level_no, level.policy - 1, self.transition)


#: The Figure 12 ``(h_bottom, h_top)`` settings: four symmetric, two biased.
PAPER_GREEDY_THRESHOLDS = (
    (0.50, 0.50), (0.33, 0.67), (0.25, 0.75), (0.10, 0.90),
    (0.25, 0.50), (0.50, 0.75),
)
