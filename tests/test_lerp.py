"""Tests for the Lerp tuner mechanics (repro.core.lerp).

Full-scale convergence behaviour is exercised by the integration tests and
the benchmark suite; these tests pin down the mechanics: action
discretization, staging, propagation, restarts and the ablation modes.
"""

import pytest

from repro.config import BloomScheme
from repro.core.lerp import (
    ACTION_THRESHOLD,
    JOINT_MAX_LEVELS,
    Lerp,
    LerpConfig,
    discretize_action,
)
from repro.core.ruskey import RusKey
from repro.errors import RLError
from repro.lsm.stats import MissionStats
from repro.rl.ddpg import DDPGAgent
from repro.workload.uniform import UniformWorkload


def fast_lerp_config(**overrides):
    params = dict(
        stable_window=4,
        max_stage_missions=12,
        updates_per_mission=1,
        seed=0,
    )
    params.update(overrides)
    return LerpConfig(**params)


def run_store(config, lerp_config, n_missions=30, mission_size=300, gamma=0.5,
              seed=3):
    store = RusKey(config, tuner=Lerp(config, lerp_config), chunk_size=32)
    workload = UniformWorkload(2000, lookup_fraction=gamma, seed=seed)
    keys, values = workload.load_records()
    store.bulk_load(keys, values, distribute=True)
    store.run_missions(workload.missions(n_missions, mission_size))
    return store


class TestDiscretization:
    def test_thresholds(self):
        assert discretize_action(-1.0) == -1
        assert discretize_action(-ACTION_THRESHOLD - 1e-9) == -1
        assert discretize_action(0.0) == 0
        assert discretize_action(ACTION_THRESHOLD + 1e-9) == 1
        assert discretize_action(1.0) == 1

    def test_boundary_values_are_noop(self):
        assert discretize_action(ACTION_THRESHOLD) == 0
        assert discretize_action(-ACTION_THRESHOLD) == 0


class TestLerpConfig:
    def test_defaults_valid(self):
        LerpConfig().validate()

    def test_rejects_bad_alpha(self):
        with pytest.raises(RLError):
            LerpConfig(alpha=2.0).validate()

    def test_rejects_unknown_agent(self):
        with pytest.raises(RLError):
            LerpConfig(agent_kind="ppo").validate()

    def test_rejects_unknown_mode(self):
        with pytest.raises(RLError):
            LerpConfig(mode="chaos").validate()

    def test_rejects_inconsistent_windows(self):
        with pytest.raises(RLError):
            LerpConfig(stable_window=50, max_stage_missions=10).validate()


class TestLerpStaging:
    def test_uniform_scheme_learns_one_level(self, small_config):
        lerp = Lerp(small_config, fast_lerp_config())
        assert lerp.propagator.levels_to_learn == 1

    def test_monkey_scheme_learns_two_levels(self, small_config):
        config = small_config.with_updates(bloom_scheme=BloomScheme.MONKEY)
        lerp = Lerp(config, fast_lerp_config())
        assert lerp.propagator.levels_to_learn == 2

    def test_converges_and_propagates_uniform(self, small_config):
        store = run_store(small_config, fast_lerp_config(), n_missions=30)
        lerp = store.tuner
        assert lerp.converged
        # After propagation every level shares the learned policy.
        assert len(set(store.policies())) == 1

    def test_converges_two_stages_monkey(self, small_config):
        config = small_config.with_updates(
            bloom_scheme=BloomScheme.MONKEY, bits_per_key=4.0
        )
        store = run_store(config, fast_lerp_config(), n_missions=45)
        lerp = store.tuner
        assert lerp.converged
        assert len(lerp._learned) == 2
        # Monkey propagation never relaxes policies with depth.
        policies = store.policies()
        assert policies == sorted(policies, reverse=True)

    def test_only_stage_level_changes_during_tuning(self, small_config):
        config = small_config
        lerp = Lerp(config, fast_lerp_config(max_stage_missions=1000,
                                             stable_window=900))
        store = RusKey(config, tuner=lerp, chunk_size=32)
        workload = UniformWorkload(2000, lookup_fraction=0.5, seed=3)
        keys, values = workload.load_records()
        store.bulk_load(keys, values, distribute=True)
        store.run_missions(workload.missions(15, 300))
        assert not lerp.converged
        # Levels 2+ stay at the initial policy while stage 1 runs (the tree
        # may grow new levels, which also start at the initial policy).
        for policies in store.policy_history:
            assert all(k == small_config.initial_policy for k in policies[1:])

    def test_total_model_update_s_recorded(self, small_config):
        store = run_store(small_config, fast_lerp_config(), n_missions=5)
        assert store.tuner.total_model_update_s > 0

    def test_new_levels_adopt_propagated_policy(self, small_config):
        store = run_store(
            small_config, fast_lerp_config(), n_missions=40, gamma=0.1
        )
        lerp = store.tuner
        assert lerp.converged
        assert len(set(store.policies())) == 1


class TestLerpRestart:
    def test_detected_shift_restarts_tuning(self, small_config):
        lerp = Lerp(small_config, fast_lerp_config())
        store = RusKey(small_config, tuner=lerp, chunk_size=32)
        read_heavy = UniformWorkload(2000, lookup_fraction=0.9, seed=3)
        write_heavy = UniformWorkload(2000, lookup_fraction=0.1, seed=4)
        keys, values = read_heavy.load_records()
        store.bulk_load(keys, values, distribute=True)
        store.run_missions(read_heavy.missions(25, 300))
        assert lerp.converged
        store.run_missions(write_heavy.missions(25, 300))
        assert lerp.restarts >= 1

    def test_restart_resets_exploration(self, small_config):
        lerp = Lerp(small_config, fast_lerp_config())
        agent = lerp._agent(1)
        assert isinstance(agent, DDPGAgent)
        agent.noise.sigma = 0.0
        lerp._restart()
        assert agent.noise.sigma == pytest.approx(
            lerp.config.ddpg.noise_sigma
        )
        assert not lerp.converged

    def test_full_reset_drops_agents(self, small_config):
        lerp = Lerp(small_config, fast_lerp_config())
        lerp._agent(1)
        lerp.reset()
        assert not lerp._agents
        assert lerp.restarts == 0


class TestLerpAblations:
    def test_dqn_agent_kind(self, small_config):
        store = run_store(
            small_config, fast_lerp_config(agent_kind="dqn"), n_missions=20
        )
        assert store.tuner.converged

    def test_joint_mode_changes_policies(self, small_config):
        config = small_config
        lerp = Lerp(config, fast_lerp_config(mode="joint"))
        store = RusKey(config, tuner=lerp, chunk_size=32)
        workload = UniformWorkload(2000, lookup_fraction=0.5, seed=3)
        keys, values = workload.load_records()
        store.bulk_load(keys, values, distribute=True)
        store.run_missions(workload.missions(20, 300))
        assert lerp._joint_agent is not None
        assert lerp._joint_agent.config.action_dim == JOINT_MAX_LEVELS
        assert not lerp.converged  # joint mode never converges/propagates

    def test_all_levels_mode_tunes_each_level(self, small_config):
        lerp = Lerp(small_config, fast_lerp_config(mode="all-levels"))
        store = RusKey(small_config, tuner=lerp, chunk_size=32)
        workload = UniformWorkload(2000, lookup_fraction=0.5, seed=3)
        keys, values = workload.load_records()
        store.bulk_load(keys, values, distribute=True)
        store.run_missions(workload.missions(20, 300))
        assert len(lerp._agents) >= 2  # one agent per observed level


class TestLerpEdgeCases:
    def test_empty_tree_mission_is_ignored(self, small_config):
        lerp = Lerp(small_config, fast_lerp_config())
        tree_store = RusKey(small_config, tuner=lerp)
        mission = MissionStats(index=0, n_lookups=1, read_time=1e-6)
        lerp.observe_mission(tree_store.engine, mission)  # no levels yet

    def test_policy_stays_within_bounds(self, small_config):
        store = run_store(small_config, fast_lerp_config(), n_missions=25,
                          gamma=0.0)
        t = small_config.size_ratio
        for policies in store.policy_history:
            assert all(1 <= k <= t for k in policies)
