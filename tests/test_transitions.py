"""Tests for the three transition kinds (paper Section 4) as applied by
``tree.set_policy(level, K, kind)``, and the FLSM-tree's defining property."""

import pytest

from repro.config import TransitionKind
from repro.lsm import FLSMTree
from repro.lsm.tree import LSMTree


@pytest.fixture
def loaded_tree(tiny_config):
    tree = LSMTree(tiny_config)
    for i in range(900):
        tree.put(i, i)
    return tree


class TestFlexibleTransition:
    def test_zero_immediate_cost(self, loaded_tree):
        io_before = loaded_tree.disk.counters.total
        clock_before = loaded_tree.clock.now
        for level in loaded_tree.levels:
            loaded_tree.set_policy(level.level_no, 3, TransitionKind.FLEXIBLE)
        assert loaded_tree.disk.counters.total == io_before
        assert loaded_tree.clock.now == clock_before

    def test_zero_delay_policy_effective_immediately(self, loaded_tree):
        loaded_tree.set_policy(1, 4, TransitionKind.FLEXIBLE)
        assert loaded_tree.level(1).policy == 4
        assert loaded_tree.level(1).pending_policy is None

    def test_sealed_runs_untouched(self, loaded_tree):
        level = next(l for l in loaded_tree.levels if not l.is_empty)
        sizes_before = [run.n_entries for run in level.runs]
        loaded_tree.set_policy(level.level_no, 4, TransitionKind.FLEXIBLE)
        assert [run.n_entries for run in level.runs] == sizes_before

    def test_data_still_readable_after_transition(self, loaded_tree):
        for level in loaded_tree.levels:
            loaded_tree.set_policy(level.level_no, 4, TransitionKind.FLEXIBLE)
        for key in (0, 450, 899):
            assert loaded_tree.get(key) == key


class TestLazyTransition:
    def test_no_immediate_cost_or_effect(self, loaded_tree):
        io_before = loaded_tree.disk.counters.total
        level = next(l for l in loaded_tree.levels if not l.is_empty)
        old_policy = level.policy
        loaded_tree.set_policy(level.level_no, 4, TransitionKind.LAZY)
        assert loaded_tree.disk.counters.total == io_before
        assert level.policy == old_policy
        assert level.pending_policy == 4

    def test_applies_when_level_empties(self, tiny_config):
        tree = LSMTree(tiny_config)
        for i in range(100):
            tree.put(i, i)
        tree.set_policy(1, 4, TransitionKind.LAZY)
        # Keep writing until level 1 has emptied through a full-level merge.
        i = 100
        while tree.level(1).pending_policy is not None and i < 5000:
            tree.put(i, i)
            i += 1
        assert tree.level(1).policy == 4


class TestGreedyTransition:
    def test_immediately_flushes_level(self, loaded_tree):
        level = next(l for l in loaded_tree.levels if not l.is_empty)
        deeper_nonempty = any(
            not l.is_empty for l in loaded_tree.levels[level.level_no:]
        )
        io_before = loaded_tree.disk.counters.total
        loaded_tree.set_policy(level.level_no, 4, TransitionKind.GREEDY)
        if deeper_nonempty:
            assert level.is_empty  # merged down
        else:
            assert level.n_runs == 1  # bottom level: rebuilt in place
        assert level.policy == 4
        assert loaded_tree.disk.counters.total > io_before

    def test_bottom_level_rebuilds_in_place(self, loaded_tree):
        bottom = max(
            (l for l in loaded_tree.levels if not l.is_empty),
            key=lambda l: l.level_no,
        )
        entries_before = bottom.data_entries
        depth_before = loaded_tree.n_levels
        loaded_tree.set_policy(bottom.level_no, 4, TransitionKind.GREEDY)
        assert bottom.data_entries <= entries_before  # tombstones may drop
        assert bottom.data_entries > 0
        assert bottom.n_runs == 1
        assert loaded_tree.n_levels == depth_before  # tree did not grow

    def test_no_merge_when_policy_unchanged(self, loaded_tree):
        level = next(l for l in loaded_tree.levels if not l.is_empty)
        io_before = loaded_tree.disk.counters.total
        loaded_tree.set_policy(level.level_no, level.policy, TransitionKind.GREEDY)
        assert loaded_tree.disk.counters.total == io_before

    def test_data_preserved(self, loaded_tree):
        for level in list(loaded_tree.levels):
            loaded_tree.set_policy(level.level_no, 2, TransitionKind.GREEDY)
        for key in (0, 450, 899):
            assert loaded_tree.get(key) == key

    def test_costs_more_than_flexible(self, tiny_config):
        def run_with(kind):
            tree = LSMTree(tiny_config)
            for i in range(900):
                tree.put(i, i)
            before = tree.clock.now
            for level in list(tree.levels):
                tree.set_policy(level.level_no, 4, kind)
            return tree.clock.now - before

        assert run_with(TransitionKind.GREEDY) > run_with(TransitionKind.FLEXIBLE)


class TestFLSMTree:
    def test_set_policies_applies_every_level(self, loaded_tree):
        loaded_tree.set_policies(
            [2] * loaded_tree.n_levels, TransitionKind.FLEXIBLE
        )
        assert loaded_tree.policies() == [2] * loaded_tree.n_levels

    def test_flsm_allows_mixed_run_sizes(self, tiny_config):
        """The defining FLSM property: runs of different sizes coexist."""
        tree = FLSMTree(tiny_config)
        for i in range(400):
            tree.put(i, i)
        # Shrink the active run capacity, then grow it again while writing.
        tree.set_policy(1, tiny_config.size_ratio, TransitionKind.FLEXIBLE)
        for i in range(400, 500):
            tree.put(i, i)
        tree.set_policy(1, 1, TransitionKind.FLEXIBLE)
        for i in range(500, 560):
            tree.put(i, i)
        sizes = {
            run.n_entries
            for level in tree.levels
            for run in level.runs
            if run.n_entries
        }
        assert len(sizes) >= 2
        tree.check_invariants()
