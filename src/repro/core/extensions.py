"""Extensions beyond the paper's core system.

The paper's Limitations section (Section 7) names further tuning dimensions
as future work: "we could learn to adjust the memory allocation for Bloom
filters ... or adapt size ratios based on a given workload. The challenge
here is to maintain a practical action space and a reasonable LSM-tree
transition cost."

:class:`BloomBudgetExtension` implements the first of these with exactly
that constraint in mind: it wraps any base tuner (Lerp, a static baseline,
a heuristic) and additionally hill-climbs the store's bits-per-key budget.
Changing the budget is transition-friendly by construction — like the
flexible policy transition, it only affects filters built for *future*
runs, so the action is free and immediate, and the action space stays tiny
(±1 bit per adjustment window).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.tuners import Tuner
from repro.errors import ConfigError
from repro.lsm.stats import MissionStats
from repro.lsm.tree import LSMTree


class BloomBudgetExtension(Tuner):
    """Wraps a tuner and hill-climbs the Bloom bits-per-key budget.

    Every ``window`` missions the extension compares the mean mission
    latency of the current window against the previous one. If the last
    budget move improved latency, it keeps moving in the same direction;
    otherwise it reverses. Budgets are clamped to ``[min_bits, max_bits]``.

    The search is deliberately conservative (±``step`` bits per window)
    because budget changes only reach the data as runs are rewritten by
    compaction — evaluating a move needs a full window of missions.
    """

    def __init__(
        self,
        base_tuner: Tuner,
        window: int = 40,
        step: float = 1.0,
        min_bits: float = 2.0,
        max_bits: float = 16.0,
    ) -> None:
        if window < 2:
            raise ConfigError(f"window must be >= 2, got {window}")
        if step <= 0:
            raise ConfigError(f"step must be > 0, got {step}")
        if not 0 < min_bits <= max_bits:
            raise ConfigError(
                f"need 0 < min_bits <= max_bits, got {min_bits}, {max_bits}"
            )
        self.base_tuner = base_tuner
        self.name = f"{base_tuner.name}+bloom-budget"
        self.window = window
        self.step = step
        self.min_bits = min_bits
        self.max_bits = max_bits
        self._latencies: List[float] = []
        self._previous_window: Optional[float] = None
        self._direction = 1.0
        self.budget_history: List[float] = []

    def observe_mission(self, tree: LSMTree, mission: MissionStats) -> None:
        self.base_tuner.observe_mission(tree, mission)
        self._latencies.append(mission.latency_per_op)
        if len(self._latencies) < self.window:
            return
        current = sum(self._latencies) / len(self._latencies)
        self._latencies.clear()
        if self._previous_window is not None and current > self._previous_window:
            self._direction = -self._direction  # last move hurt: reverse
        self._previous_window = current
        new_budget = min(
            self.max_bits,
            max(self.min_bits, tree.bits_per_key + self._direction * self.step),
        )
        if new_budget != tree.bits_per_key:
            tree.set_bits_per_key(new_budget)
        self.budget_history.append(tree.bits_per_key)

    def reset(self) -> None:
        self.base_tuner.reset()
        self._latencies.clear()
        self._previous_window = None
        self._direction = 1.0
        self.budget_history.clear()
