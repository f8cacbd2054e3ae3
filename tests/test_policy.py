"""The named compaction-policy subsystem.

Covers the policy abstraction itself, the tree threading (pinning, growth
maintenance, switch transitions), the equivalence guarantee that pinning
``leveling`` reproduces the raw K=1 tree bit-exactly (on the direct tree
API and on the fig6/fig7 harness paths), a hypothesis property that policy
switches preserve contents and tombstone semantics, the RL policy action
dimension, and persistence round-trips.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig, TransitionKind
from repro.core import NamedPolicyLerp, NamedPolicyTuner, RusKey, StaticTuner
from repro.core.lerp import LerpConfig
from repro.engine.base import KVEngine
from repro.engine.sharded import ShardedStore
from repro.errors import PolicyError
from repro.lsm import (
    POLICY_NAMES,
    FLSMTree,
    LSMTree,
    classify_policies,
    live_items,
    named_policies,
    policy_from_index,
    policy_index,
    resolve_policy,
)
from repro.lsm.policy import (
    LazyLevelingPolicy,
    LevelingPolicy,
    TieringPolicy,
)
from repro.workload.uniform import UniformWorkload


# ----------------------------------------------------------------------
# The abstraction
# ----------------------------------------------------------------------
class TestPolicyAbstraction:
    def test_assignments(self):
        assert LevelingPolicy().assignments(3, 10) == [1, 1, 1]
        assert TieringPolicy().assignments(3, 10) == [10, 10, 10]
        assert LazyLevelingPolicy().assignments(3, 10) == [10, 10, 1]
        assert LazyLevelingPolicy().assignments(1, 10) == [1]
        assert LevelingPolicy().assignments(0, 10) == []

    def test_registry_roundtrip(self):
        for index, name in enumerate(POLICY_NAMES):
            policy = resolve_policy(name)
            assert policy.name == name
            assert policy_index(policy) == index
            assert policy_from_index(index) == policy
        assert resolve_policy(TieringPolicy()) == TieringPolicy()

    def test_unknown_policy_raises(self):
        with pytest.raises(PolicyError):
            resolve_policy("compacting-vigorously")
        with pytest.raises(PolicyError):
            policy_from_index(len(POLICY_NAMES))

    def test_classify(self):
        assert classify_policies([1, 1, 1], 10) == "leveling"
        assert classify_policies([10, 10, 10], 10) == "tiering"
        assert classify_policies([10, 10, 1], 10) == "lazy-leveling"
        assert classify_policies([5, 5, 5], 10) is None
        assert classify_policies([], 10) is None
        # Depth 1: leveling wins the [1] tie (encoding order).
        assert classify_policies([1], 10) == "leveling"


# ----------------------------------------------------------------------
# Tree threading: pinning, growth, switches
# ----------------------------------------------------------------------
def _fill(tree: LSMTree, n: int, seed: int = 0, key_space: int = 500_000):
    gen = np.random.default_rng(seed)
    keys = gen.integers(0, key_space, n)
    values = gen.integers(0, 1_000_000, n)
    tree.put_batch(keys, values)
    return keys, values


def _switch_cost(tree, policy, kind) -> float:
    """Immediate simulated cost of switching ``tree`` to a named policy."""
    before = tree.clock.now
    tree.set_named_policy(policy, kind)
    return tree.clock.now - before


class TestTreePinning:
    def test_pin_applies_and_tracks(self, small_config):
        tree = FLSMTree(small_config)
        _fill(tree, 3_000)
        assert tree.named_policy() is None
        assert _switch_cost(tree, "tiering", TransitionKind.FLEXIBLE) == 0.0
        assert tree.named_policy() == "tiering"
        assert tree.policies() == [10] * tree.n_levels

    def test_growth_keeps_discipline(self, small_config):
        tree = FLSMTree(small_config)
        _fill(tree, 500)
        tree.set_named_policy("lazy-leveling")
        depth = tree.n_levels
        _fill(tree, 80_000, seed=1, key_space=50_000_000)
        assert tree.n_levels > depth
        assert tree.policies() == [10] * (tree.n_levels - 1) + [1]
        tree.check_invariants()

    def test_explicit_set_policy_drops_pin(self, small_config):
        tree = FLSMTree(small_config)
        _fill(tree, 3_000)
        tree.set_named_policy("tiering")
        tree.set_policy(1, 5, TransitionKind.FLEXIBLE)
        assert tree.named_policy() is None

    def test_switch_costs_by_transition(self, small_config):
        # Flexible and lazy switches are free; a greedy switch that must
        # move data charges the bounded-migration cost.
        for kind, free in [
            (TransitionKind.FLEXIBLE, True),
            (TransitionKind.LAZY, True),
            (TransitionKind.GREEDY, False),
        ]:
            tree = FLSMTree(small_config.with_updates(initial_policy=10))
            _fill(tree, 3_000)
            cost = _switch_cost(tree, "leveling", kind)
            if free:
                assert cost == 0.0
            else:
                assert cost > 0.0
            tree.check_invariants()

    def test_every_transition_kind_pins(self, small_config):
        for kind in TransitionKind:
            tree = FLSMTree(small_config)
            _fill(tree, 3_000)
            tree.set_named_policy("tiering", kind)
            assert tree.named_policy() == "tiering"
            tree.check_invariants()

    def test_lazy_switch_defers_then_applies(self, tiny_config):
        tree = FLSMTree(tiny_config.with_updates(initial_policy=4))
        _fill(tree, 60, key_space=400)
        assert _switch_cost(tree, "leveling", TransitionKind.LAZY) == 0.0
        # Pinned immediately, but per-level Ks change only as levels empty.
        assert tree.named_policy() == "leveling"
        occupied = [l for l in tree.levels if not l.is_empty]
        assert any(l.policy != 1 for l in occupied)
        _fill(tree, 2_000, seed=3, key_space=400)
        assert tree.level(1).policy == 1  # level 1 emptied many times
        tree.check_invariants()

    def test_sharded_named_policy(self, tiny_config):
        store = ShardedStore(tiny_config, 4)
        gen = np.random.default_rng(5)
        store.put_batch(
            gen.integers(0, 10_000, 500), gen.integers(0, 100, 500)
        )
        store.set_named_policy("tiering", TransitionKind.FLEXIBLE)
        assert store.named_policy() == "tiering"
        for shard in store.shards:
            assert shard.named_policy() == "tiering"
        assert isinstance(store, KVEngine)

    def test_engine_protocol_includes_policy_surface(self, tiny_config):
        assert isinstance(FLSMTree(tiny_config), KVEngine)


# ----------------------------------------------------------------------
# Leveling equivalence: the refactor guard
# ----------------------------------------------------------------------
class TestLevelingEquivalence:
    def test_pinned_leveling_is_bit_exact_vs_plain_tree(self, small_config):
        """A tree pinned to `leveling` must behave identically to today's
        raw K=1 tree: same clock, same I/O counters, same structure."""
        plain = FLSMTree(small_config)
        pinned = FLSMTree(small_config)
        pinned.set_named_policy("leveling")
        gen = np.random.default_rng(11)
        for _ in range(6):
            keys = gen.integers(0, 100_000, 2_000)
            values = gen.integers(0, 1_000_000, 2_000)
            lookups = gen.integers(0, 100_000, 500)
            for tree in (plain, pinned):
                tree.begin_mission()
                tree.put_batch(keys, values)
                tree.get_batch(lookups)
                tree.range_lookup(1000, 1400)
                tree.end_mission()
        assert plain.clock.now == pinned.clock.now
        assert plain.io_counters == pinned.io_counters
        pinned.compaction_policy = None  # the pin is the one intended difference
        assert pickle.dumps(plain) == pickle.dumps(pinned)

    def test_harness_path_equivalence(self, small_config):
        """On the fig6/fig7 harness path (RusKey + MissionRunner), the
        NamedPolicyTuner('leveling') system must reproduce the K=1
        StaticTuner system bit-exactly, mission by mission."""
        workload = UniformWorkload(
            n_records=4_000, lookup_fraction=0.5, seed=3, name="eq"
        )
        results = {}
        for name, tuner in [
            ("static", StaticTuner(1)),
            ("named", NamedPolicyTuner("leveling")),
        ]:
            store = RusKey(small_config, tuner=tuner)
            stats = store.run_workload(workload, n_missions=12, mission_size=400)
            results[name] = (
                [m.latency_per_op for m in stats],
                [m.io for m in stats],
                store.policies(),
            )
        assert results["static"][0] == results["named"][0]
        assert results["static"][1] == results["named"][1]
        assert results["static"][2] == results["named"][2]


# ----------------------------------------------------------------------
# Hypothesis: policy switches preserve contents and tombstones
# ----------------------------------------------------------------------
OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete"]),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=300,
)


@settings(max_examples=30, deadline=None)
@given(
    ops_before=OPS,
    ops_after=OPS,
    kind=st.sampled_from(
        [TransitionKind.FLEXIBLE, TransitionKind.LAZY, TransitionKind.GREEDY]
    ),
    target=st.sampled_from(["leveling", "lazy-leveling"]),
)
def test_policy_switch_preserves_contents(ops_before, ops_after, kind, target):
    """Random op sequences on a tiering tree, a mid-stream switch to
    leveling (or lazy-leveling) under every transition kind: the live
    contents must match a dict model exactly, and deleted keys must stay
    deleted (tombstone semantics survive the run-stack reshuffle)."""
    config = SystemConfig(
        size_ratio=4,
        entry_bytes=1024,
        page_bytes=4096,
        write_buffer_bytes=8 * 1024,
        initial_policy=4,
        seed=13,
    )
    tree = FLSMTree(config)
    tree.set_named_policy("tiering")
    model = {}

    def apply(ops):
        for op, key, value in ops:
            if op == "put":
                tree.put(key, value)
                model[key] = value
            else:
                tree.delete(key)
                model.pop(key, None)

    apply(ops_before)
    tree.set_named_policy(target, kind)
    tree.check_invariants()
    apply(ops_after)
    tree.check_invariants()

    keys, values = live_items(tree)
    assert dict(zip(keys.tolist(), values.tolist())) == model
    for key in range(121):
        assert tree.get(key) == model.get(key)


def test_bottom_level_tombstone_not_dropped_across_run_stack():
    """Regression: deleting a key held in a *sealed* run of the bottom
    level must not resurrect it. The flush-merge into the bottom level's
    active run may only drop tombstones when no sealed run of that level
    sits outside the merge (under tiering the bottom stacks sealed runs)."""
    config = SystemConfig(
        size_ratio=4,
        entry_bytes=1024,
        page_bytes=4096,
        write_buffer_bytes=8 * 1024,
        initial_policy=4,
        seed=13,
    )
    tree = FLSMTree(config)
    tree.set_named_policy("tiering")
    # Fill until the (bottom) level holds at least one sealed run.
    key = 0
    while not any(level.sealed_runs for level in tree.levels):
        tree.put(key, 1)
        key += 1
    victim = 0  # lives in the sealed run
    assert tree.get(victim) == 1
    tree.delete(victim)
    # Force the tombstone through the memtable into the level.
    for filler in range(key, key + 2 * config.buffer_capacity_entries):
        tree.put(filler, 1)
    assert tree.get(victim) is None
    keys, _ = live_items(tree)
    assert victim not in set(keys.tolist())


# ----------------------------------------------------------------------
# RL policy action dimension
# ----------------------------------------------------------------------
def _policy_lerp_config(**overrides) -> LerpConfig:
    defaults = dict(
        stable_window=6,
        max_stage_missions=40,
        burn_in_missions=2,
        seed=0,
    )
    defaults.update(overrides)
    return LerpConfig(**defaults)


def _policy_store(config, **overrides) -> RusKey:
    tuner = NamedPolicyLerp(config, _policy_lerp_config(**overrides))
    return RusKey(config, tuner=tuner)


class TestPolicyActionDimension:
    def test_converges_and_pins(self, small_config):
        store = _policy_store(small_config)
        workload = UniformWorkload(
            n_records=5_000, lookup_fraction=0.1, seed=7, name="wh"
        )
        store.run_workload(workload, n_missions=60, mission_size=400)
        tuner = store.tuner
        assert tuner.converged
        assert store.named_policy() in POLICY_NAMES
        # Write-heavy: the committed discipline is not pure leveling.
        assert store.named_policy() != "leveling"

    def test_restart_reopens_exploration(self, small_config):
        store = _policy_store(small_config, detector_threshold=0.05)
        write_heavy = UniformWorkload(
            n_records=4_000, lookup_fraction=0.1, seed=7, name="wh"
        )
        store.run_workload(write_heavy, n_missions=50, mission_size=300)
        assert store.tuner.converged
        read_heavy = UniformWorkload(
            n_records=4_000, lookup_fraction=0.9, seed=8, name="rh"
        )
        store.run_missions(read_heavy.missions(5, 300))
        assert store.tuner.restarts >= 1
        assert not store.tuner.converged

    def test_validation(self):
        from repro.errors import RLError
        from repro.rl.dqn import DQNConfig

        with pytest.raises(RLError):
            NamedPolicyLerp(
                SystemConfig(),
                LerpConfig(policy_dqn=DQNConfig(state_dim=8, n_actions=5)),
            )

    def test_snapshot_roundtrip_mid_tuning(self, small_config):
        """Checkpoint mid-exploration, restore into a fresh store, finish:
        identical to never having snapshotted (the bit-exact contract)."""
        workload = UniformWorkload(
            n_records=4_000, lookup_fraction=0.3, seed=9, name="mix"
        )
        straight = _policy_store(small_config)
        straight.run_workload(workload, n_missions=30, mission_size=300)

        resumed = _policy_store(small_config)
        resumed.run_workload(workload, n_missions=15, mission_size=300)
        fresh = pickle.loads(pickle.dumps(resumed))
        fresh.run_missions(
            list(workload.missions(30, 300))[15:]
        )
        assert (
            straight.latency_series().tolist()
            == fresh.latency_series().tolist()
        )
        assert straight.policies() == fresh.policies()
        assert straight.named_policy() == fresh.named_policy()


# ----------------------------------------------------------------------
# Structural behaviour of the disciplines
# ----------------------------------------------------------------------
class TestDisciplineStructure:
    def test_tiering_stacks_runs(self, small_config):
        tree = FLSMTree(small_config)
        tree.set_named_policy("tiering")
        _fill(tree, 4_000, key_space=2_000_000)
        # Some non-bottom level holds a stack of sealed runs.
        assert any(
            level.n_runs > 1 for level in tree.levels
        ), [level.n_runs for level in tree.levels]
        tree.check_invariants()

    def test_policies_of_all_named(self, small_config):
        for policy in named_policies():
            tree = FLSMTree(small_config)
            _fill(tree, 3_000, seed=policy_index(policy))
            tree.set_named_policy(policy)
            want = policy.assignments(tree.n_levels, 10)
            assert tree.policies() == want
