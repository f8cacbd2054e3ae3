"""White-box cost models: Eq. 5 operation costs and Table 2 transition
costs."""

from repro.cost.model import (
    clamp_policy,
    lemma_next_policy,
    level_operation_cost,
    optimal_policies_whitebox,
    propagate_policies,
)
from repro.cost.transition import (
    TransitionCosts,
    TransitionScenario,
    flexible_costs,
    greedy_costs,
    lazy_costs,
    paper_case_study,
)

__all__ = [
    "level_operation_cost",
    "clamp_policy",
    "lemma_next_policy",
    "propagate_policies",
    "optimal_policies_whitebox",
    "TransitionScenario",
    "TransitionCosts",
    "greedy_costs",
    "lazy_costs",
    "flexible_costs",
    "paper_case_study",
]
