"""Tests for the learned tuners' mechanics (repro.core.lerp, .joint).

Full-scale convergence behaviour is exercised by the integration tests and
the benchmark suite; these tests pin down the mechanics: action
discretization, staging, propagation, restarts, the ablation tuners, and —
against a stream recorded before the tuners were split — that no decision,
latency or RNG draw moves.
"""

import json
import os

import pytest

from repro.config import BloomScheme, SystemConfig
from repro.core.joint import JOINT_MAX_LEVELS, JointLerp
from repro.core.lerp import AllLevelsLerp, Lerp, LerpConfig
from repro.core.named_policy import NamedPolicyLerp
from repro.core.ruskey import RusKey
from repro.core.state import ACTION_THRESHOLD, discretize_action
from repro.errors import RLError
from repro.lsm.stats import MissionStats
from repro.obs.audit import DecisionAuditLog
from repro.rl.ddpg import DDPGAgent, DDPGConfig
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

    def test_rejects_inconsistent_windows(self):
        with pytest.raises(RLError):
            LerpConfig(stable_window=50, max_stage_missions=10).validate()

    @pytest.mark.parametrize("tuner_class", [Lerp, AllLevelsLerp])
    @pytest.mark.parametrize(
        "ddpg",
        [
            # Used to validate, then fail missions later inside the network.
            DDPGConfig(state_dim=4, action_dim=1),
            # Used to validate and run, silently ignoring the second output.
            DDPGConfig(state_dim=8, action_dim=2),
        ],
        ids=["state_dim", "action_dim"],
    )
    def test_level_tuners_reject_wrong_ddpg_dimensions(
        self, small_config, tuner_class, ddpg
    ):
        with pytest.raises(RLError):
            tuner_class(small_config, LerpConfig(ddpg=ddpg))

    def test_boundary_values_build_a_system_that_runs(self, small_config):
        """``seed=0`` sits on its domain's edge and is accepted: the system
        it builds runs a mission."""
        config = small_config.with_updates(seed=0)
        store = run_store(config, fast_lerp_config(seed=0), n_missions=1)
        assert store.tuner.missions_observed == len(store.policy_history) == 1

    @pytest.mark.parametrize("tuner_class", [Lerp, AllLevelsLerp, JointLerp])
    def test_tuners_refuse_a_bad_ddpg_config_when_built(self, small_config, tuner_class):
        """Agents are built lazily, at the first learned mission; a bad
        rate used to surface there (under a server, ending tuning)."""
        with pytest.raises(RLError, match="actor_lr"):
            tuner_class(small_config, LerpConfig(ddpg=DDPGConfig(actor_lr=-1.0)))


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
        agent = lerp._level(1).agent
        assert isinstance(agent, DDPGAgent)
        agent.noise.sigma = 0.0
        lerp._restart()
        assert agent.noise.sigma == pytest.approx(
            lerp.config.ddpg.noise_sigma
        )
        assert not lerp.converged


class TestLerpAblations:
    def test_joint_mode_changes_policies(self, small_config):
        config = small_config
        lerp = JointLerp(config, fast_lerp_config())
        store = RusKey(config, tuner=lerp, chunk_size=32)
        workload = UniformWorkload(2000, lookup_fraction=0.5, seed=3)
        keys, values = workload.load_records()
        store.bulk_load(keys, values, distribute=True)
        store.run_missions(workload.missions(20, 300))
        assert lerp._joint_agent is not None
        assert lerp._joint_agent.config.action_dim == JOINT_MAX_LEVELS
        assert not lerp.converged  # joint mode never converges/propagates

    def test_all_levels_mode_tunes_each_level(self, small_config):
        lerp = AllLevelsLerp(small_config, fast_lerp_config())
        store = RusKey(small_config, tuner=lerp, chunk_size=32)
        workload = UniformWorkload(2000, lookup_fraction=0.5, seed=3)
        keys, values = workload.load_records()
        store.bulk_load(keys, values, distribute=True)
        store.run_missions(workload.missions(20, 300))
        assert len(lerp._levels) >= 2  # one agent per observed level


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


# ----------------------------------------------------------------------
# Golden decision stream: nothing simulated may move
# ----------------------------------------------------------------------
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "lerp_golden.json")

#: ``conftest.small_config``'s values (a constant so ``__main__`` below can
#: re-record without a fixture).
GOLDEN_CONFIG = SystemConfig(
    size_ratio=10,
    entry_bytes=1024,
    page_bytes=4096,
    write_buffer_bytes=32 * 1024,
    bits_per_key=8.0,
    seed=7,
)
MONKEY = dict(bloom_scheme=BloomScheme.MONKEY, bits_per_key=4.0)

#: flow -> (SystemConfig updates, tuner builder): the staged tuner under one
#: and two stages, and each of the other three.
def golden_lerp_config(**overrides):
    """Short burn-in and stages, so both 22-mission eras below run every
    stage through to its commit (two stages plus propagation under Monkey)."""
    return fast_lerp_config(burn_in_missions=2, max_stage_missions=8, **overrides)


GOLDEN_FLOWS = {
    "staged-uniform": ({}, lambda c: Lerp(c, golden_lerp_config())),
    "staged-monkey": (MONKEY, lambda c: Lerp(c, golden_lerp_config())),
    "all-levels": ({}, lambda c: AllLevelsLerp(c, golden_lerp_config())),
    "joint": ({}, lambda c: JointLerp(c, golden_lerp_config())),
    "named-policy": ({}, lambda c: NamedPolicyLerp(c, golden_lerp_config())),
}


def golden_stream(flow):
    """44 missions (read-heavy, then a write-heavy shift the detector
    catches) under ``flow``'s tuner with an audit log attached: every
    decision, latency and the final RNG state, as JSON-able data."""
    updates, build = GOLDEN_FLOWS[flow]
    config = GOLDEN_CONFIG.with_updates(**updates)
    tuner = build(config)
    store = RusKey(config, tuner=tuner, chunk_size=32)
    audit = DecisionAuditLog()
    store.attach_audit(audit)
    read_heavy = UniformWorkload(2000, lookup_fraction=0.9, seed=3)
    write_heavy = UniformWorkload(2000, lookup_fraction=0.1, seed=4)
    store.bulk_load(*read_heavy.load_records(), distribute=True)
    store.run_missions(read_heavy.missions(22, 300))
    store.run_missions(write_heavy.missions(22, 300))
    return {
        "policy_history": store.policy_history,
        "latencies": store.latency_series().tolist(),
        "events": [[e.kind, e.mission, e.data] for e in audit.events],
        "rng": tuner._rng.bit_generator.state,
    }


def assert_matches_golden(got, want, where):
    """Exact on structure, ints, bools and strings; rel 1e-9 on floats
    (BLAS rounding differs across hosts — BENCH_BASELINE.json's tolerance)."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), where
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("flow", sorted(GOLDEN_FLOWS))
def test_golden_decision_stream(flow):
    """Recorded at commit 3b2c84c (the one-class Lerp); a refactor of the
    tuners passes this unchanged or it changed the simulation."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        want = json.load(handle)[flow]
    # Through JSON so both sides hold the same container and number types.
    got = json.loads(json.dumps(golden_stream(flow)))
    assert_matches_golden(got, want, flow)


if __name__ == "__main__":  # re-record: PYTHONPATH=src python tests/test_lerp.py
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({f: golden_stream(f) for f in sorted(GOLDEN_FLOWS)}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
