"""Tests for repro.cost: Table 2 transition formulas, Eq. 5 operation
costs and Eq. 4 propagation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BloomScheme, CostModelParams, SystemConfig
from repro.cost import (
    TransitionScenario,
    clamp_policy,
    flexible_costs,
    greedy_costs,
    lazy_costs,
    lemma_next_policy,
    level_operation_cost,
    optimal_policies_whitebox,
    paper_case_study,
    propagate_policies,
)
from repro.errors import ConfigError


def paper_scenario(**overrides):
    params = dict(
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
    params.update(overrides)
    return TransitionScenario(**params)


class TestTable2CaseStudy:
    """The paper's worked example: greedy 125, lazy 3.75, flexible 2.5."""

    def test_greedy_additional_cost(self):
        assert greedy_costs(paper_scenario()).additional_ios == pytest.approx(125.0)

    def test_lazy_additional_cost(self):
        assert lazy_costs(paper_scenario()).additional_ios == pytest.approx(3.75)

    def test_flexible_additional_cost(self):
        assert flexible_costs(paper_scenario()).additional_ios == pytest.approx(2.5)

    def test_paper_case_study_helper(self):
        results = paper_case_study()
        assert results["greedy"].additional_ios == pytest.approx(125.0)
        assert results["lazy"].additional_ios == pytest.approx(3.75)
        assert results["flexible"].additional_ios == pytest.approx(2.5)

    def test_zero_cost_and_delay_structure(self):
        scenario = paper_scenario()
        assert greedy_costs(scenario).delay_seconds == 0.0
        assert lazy_costs(scenario).immediate_ios == 0.0
        flexible = flexible_costs(scenario)
        assert flexible.immediate_ios == 0.0
        assert flexible.delay_seconds == 0.0


class TestTransitionCostOrdering:
    @given(
        k=st.integers(2, 10),
        k_new=st.integers(1, 10),
        x=st.floats(0.05, 0.95),
        gamma=st.floats(0.05, 0.9),
    )
    @settings(max_examples=80, deadline=None)
    def test_flexible_never_worse_than_lazy(self, k, k_new, x, gamma):
        scenario = paper_scenario(
            old_policy=k, new_policy=k_new, fill_ratio=x, lookup_fraction=gamma
        )
        assert (
            flexible_costs(scenario).additional_ios
            <= lazy_costs(scenario).additional_ios + 1e-12
        )

    @given(k_new=st.integers(6, 10), x=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_flexible_free_when_relaxing(self, k_new, x):
        scenario = paper_scenario(old_policy=5, new_policy=k_new, fill_ratio=x)
        assert flexible_costs(scenario).additional_ios == 0.0

    def test_lazy_aggressive_change_pays_reads(self):
        scenario = paper_scenario(old_policy=8, new_policy=2)
        assert lazy_costs(scenario).additional_ios > 0

    def test_lazy_relaxing_change_pays_writes(self):
        scenario = paper_scenario(old_policy=2, new_policy=8)
        assert lazy_costs(scenario).additional_ios > 0

    def test_same_policy_costs_nothing_extra(self):
        scenario = paper_scenario(old_policy=5, new_policy=5)
        assert lazy_costs(scenario).additional_ios == 0.0
        assert flexible_costs(scenario).additional_ios == 0.0

    def test_scenario_validation(self):
        with pytest.raises(ConfigError):
            paper_scenario(lookup_fraction=1.0)  # divides by (1 - gamma)
        with pytest.raises(ConfigError):
            paper_scenario(fill_ratio=1.5)
        with pytest.raises(ConfigError):
            paper_scenario(old_policy=0)


class TestOperationCost:
    costs = CostModelParams()

    def _cost(self, policy, gamma, fpr=0.02):
        return level_operation_cost(
            policy, fpr, gamma, self.costs, size_ratio=10,
            entry_bytes=1024, page_bytes=4096,
        )

    def test_read_cost_grows_with_policy(self):
        assert self._cost(10, 1.0) > self._cost(1, 1.0)

    def test_write_cost_shrinks_with_policy(self):
        assert self._cost(10, 0.0) < self._cost(1, 0.0)

    def test_pure_read_has_no_update_term(self):
        pure_read = self._cost(5, 1.0)
        expected = 0.02 * self.costs.random_read_s * 5 + self.costs.run_probe_cpu_s * 5
        assert pure_read == pytest.approx(expected)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ConfigError):
            self._cost(0, 0.5)
        with pytest.raises(ConfigError):
            level_operation_cost(
                1, 0.02, 1.5, self.costs, 10, 1024, 4096
            )


class TestOptimalPolicy:
    def test_read_heavy_wants_aggressive(self):
        config = SystemConfig()
        assert optimal_policies_whitebox(0.9, 3, config) == [1, 1, 1]

    def test_write_heavy_wants_lazy(self):
        config = SystemConfig()
        assert optimal_policies_whitebox(0.1, 3, config) == [10, 10, 10]

    def test_balanced_is_intermediate(self):
        config = SystemConfig()
        policies = optimal_policies_whitebox(0.5, 3, config)
        assert all(1 < k < 10 for k in policies)

    def test_optimum_decreases_with_lookup_fraction(self):
        config = SystemConfig()
        previous = config.size_ratio
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
            k = optimal_policies_whitebox(gamma, 1, config)[0]
            assert k <= previous
            previous = k

    def test_monkey_deeper_levels_more_aggressive(self):
        config = SystemConfig(bloom_scheme=BloomScheme.MONKEY, bits_per_key=4.0)
        policies = optimal_policies_whitebox(0.5, 4, config)
        assert policies == sorted(policies, reverse=True)

    def test_clamp_policy(self):
        assert clamp_policy(0.4, 10) == 1
        assert clamp_policy(4.4, 10) == 4
        assert clamp_policy(40.0, 10) == 10
        assert clamp_policy(math.inf, 10) == 10


class TestPropagation:
    def test_paper_example(self):
        """Section 5.2.2: K1=9, K2=7 propagates to K3≈3, K4≈1 at T=10."""
        assert propagate_policies(9, 7, 4, 10) == [9, 7, 3, 1]

    def test_equal_policies_propagate_unchanged(self):
        assert propagate_policies(5, 5, 5, 10) == [5, 5, 5, 5, 5]

    def test_single_level(self):
        assert propagate_policies(5, 3, 1, 10) == [5]

    def test_non_monkey_profile_saturates_at_t(self):
        # K2 > K1 gives a non-physical Eq. 4 RHS; we saturate to T.
        assert lemma_next_policy(3, 9, 10) == 10.0

    def test_lemma_monotone(self):
        # A steeper drop from K1 to K2 forces a more aggressive K3.
        k3_steep = lemma_next_policy(9, 5, 10)
        k3_shallow = lemma_next_policy(9, 8, 10)
        assert k3_steep < k3_shallow

    @given(
        k1=st.integers(2, 10),
        k2=st.integers(1, 10),
        n=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_propagation_always_valid(self, k1, k2, n):
        policies = propagate_policies(k1, k2, n, 10)
        assert len(policies) == n
        assert all(1 <= k <= 10 for k in policies)

    @given(k1=st.integers(2, 10), k2=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_propagation_monotone_when_decreasing(self, k1, k2):
        if k2 <= k1:
            policies = propagate_policies(k1, k2, 6, 10)
            assert policies == sorted(policies, reverse=True)

    def test_lemma_rejects_invalid(self):
        with pytest.raises(ConfigError):
            lemma_next_policy(0, 5, 10)
