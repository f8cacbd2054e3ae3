"""Transition cost analysis (paper Section 4.3, Table 2).

For a level of capacity ``C`` bytes moving from policy ``K`` to ``K'`` when
it is ``x`` full, with page size ``B``, entry size ``E``, Bloom FPR ``f``,
lookup fraction ``γ`` and update arrival rate ``N_u`` (updates/second), the
paper derives:

=============  ============== ==============  ====================================
Method         Transition      Delay           Additional cost (I/Os)
               cost (I/Os)     (seconds)
=============  ============== ==============  ====================================
Greedy         ``C/2B``        0               ``T·C·(1-x) / (2·B·K)``
Lazy           0               ``C/(2·N_u·E)`` ``K<K'``: ``T·C·(1-x)·(K'-K)/(2BKK')``
                                               ``K>K'``: ``f·C·(1-x²)·(K-K')·γ/(2E(1-γ))``
Flexible       0               0               ``K<K'``: 0
                                               ``K>K'``: ``f·C·(x-x²)·(K-K')·γ/(E(1-γ))``
=============  ============== ==============  ====================================

The module reproduces every formula plus the paper's worked case study
(T=10, B=4096, E=1024, C=1024000, f=0.01, K=5→4, x=γ=1/2 gives
125 / 3.75 / 2.5 I/Os), which the Table 2 benchmark regenerates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class TransitionScenario:
    """Inputs of the Table 2 analysis. ``x`` and ``γ`` default to 1/2, as
    in the paper's case study."""

    size_ratio: int  # T
    level_capacity_bytes: float  # C
    page_bytes: int  # B
    entry_bytes: int  # E
    fpr: float  # f
    old_policy: int  # K
    new_policy: int  # K'
    fill_ratio: float = 0.5  # x
    lookup_fraction: float = 0.5  # γ
    updates_per_second: float = 1000.0  # N_u

    def __post_init__(self) -> None:
        if self.size_ratio < 2:
            raise ConfigError(f"size_ratio must be >= 2, got {self.size_ratio}")
        if self.level_capacity_bytes <= 0:
            raise ConfigError("level_capacity_bytes must be > 0")
        if self.page_bytes <= 0 or self.entry_bytes <= 0:
            raise ConfigError("page_bytes and entry_bytes must be > 0")
        if not 0.0 <= self.fpr <= 1.0:
            raise ConfigError(f"fpr must be in [0, 1], got {self.fpr}")
        if self.old_policy < 1 or self.new_policy < 1:
            raise ConfigError("policies must be >= 1")
        if not 0.0 <= self.fill_ratio <= 1.0:
            raise ConfigError(f"fill_ratio must be in [0, 1], got {self.fill_ratio}")
        if not 0.0 <= self.lookup_fraction < 1.0:
            raise ConfigError(
                "lookup_fraction must be in [0, 1); the additional-cost "
                "formulas divide by (1 - gamma)"
            )
        if self.updates_per_second <= 0:
            raise ConfigError("updates_per_second must be > 0")


@dataclass(frozen=True)
class TransitionCosts:
    """Outputs of the analysis for one transition method."""

    immediate_ios: float
    delay_seconds: float
    additional_ios: float


def greedy_costs(s: TransitionScenario) -> TransitionCosts:
    """Costs of the greedy transition (merge the level away immediately)."""
    immediate = s.fill_ratio * s.level_capacity_bytes / s.page_bytes
    additional = (
        s.size_ratio
        * s.level_capacity_bytes
        * (1.0 - s.fill_ratio)
        / (2.0 * s.page_bytes * s.old_policy)
    )
    return TransitionCosts(
        immediate_ios=immediate, delay_seconds=0.0, additional_ios=additional
    )


def lazy_costs(s: TransitionScenario) -> TransitionCosts:
    """Costs of the lazy transition (defer until the level empties)."""
    delay = (
        (1.0 - s.fill_ratio)
        * s.level_capacity_bytes
        / (s.updates_per_second * s.entry_bytes)
    )
    k, k_new = s.old_policy, s.new_policy
    if k_new > k:
        additional = (
            s.size_ratio
            * s.level_capacity_bytes
            * (1.0 - s.fill_ratio)
            * (k_new - k)
            / (2.0 * s.page_bytes * k * k_new)
        )
    elif k_new < k:
        additional = (
            s.fpr
            * s.level_capacity_bytes
            * (1.0 - s.fill_ratio**2)
            * (k - k_new)
            * s.lookup_fraction
            / (2.0 * s.entry_bytes * (1.0 - s.lookup_fraction))
        )
    else:
        additional = 0.0
    return TransitionCosts(
        immediate_ios=0.0, delay_seconds=delay, additional_ios=additional
    )


def flexible_costs(s: TransitionScenario) -> TransitionCosts:
    """Costs of the FLSM-tree's flexible transition."""
    k, k_new = s.old_policy, s.new_policy
    if k_new < k:
        additional = (
            s.fpr
            * s.level_capacity_bytes
            * (s.fill_ratio - s.fill_ratio**2)
            * (k - k_new)
            * s.lookup_fraction
            / (s.entry_bytes * (1.0 - s.lookup_fraction))
        )
    else:
        additional = 0.0
    return TransitionCosts(
        immediate_ios=0.0, delay_seconds=0.0, additional_ios=additional
    )


def paper_case_study() -> "dict[str, TransitionCosts]":
    """The worked example at the end of paper Section 4.3.

    Returns additional-cost figures for all three methods under
    T=10, B=4096, E=1024, C=1024000, f=0.01, K=5 → K'=4, x=γ=1/2:
    greedy 125 I/Os, lazy 3.75 I/Os, flexible 2.5 I/Os.
    """
    scenario = TransitionScenario(
        size_ratio=10,
        level_capacity_bytes=1_024_000,
        page_bytes=4096,
        entry_bytes=1024,
        fpr=0.01,
        old_policy=5,
        new_policy=4,
        fill_ratio=0.5,
        lookup_fraction=0.5,
    )
    return {
        "greedy": greedy_costs(scenario),
        "lazy": lazy_costs(scenario),
        "flexible": flexible_costs(scenario),
    }
