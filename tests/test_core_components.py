"""Tests for repro.core: detector, state/reward, tuners, propagation,
mission runner."""

import numpy as np
import pytest

from repro.config import BloomScheme, TransitionKind
from repro.core import (
    GreedyThresholdTuner,
    LazyLevelingTuner,
    MissionRunner,
    PolicyPropagator,
    RunningScale,
    STATE_DIM,
    StaticTuner,
    WorkloadChangeDetector,
    level_state,
    mission_reward,
)
from repro.core.tuners import Tuner
from repro.engine.sharded import ShardedStore
from repro.errors import ConfigError, PolicyError, RLError, WorkloadError
from repro.lsm.entry import TOMBSTONE
from repro.lsm.stats import MissionStats
from repro.lsm.tree import LSMTree
from repro.workload.spec import OP_LOOKUP, OP_RANGE, OP_UPDATE, Mission
from repro.workload.uniform import UniformWorkload
from reference_mission import reference_run_chunks
from test_oracle import observables


class TestWorkloadChangeDetector:
    def test_first_observation_never_fires(self):
        detector = WorkloadChangeDetector()
        assert not detector.observe(0.9)

    def test_stable_composition_never_fires(self):
        detector = WorkloadChangeDetector(threshold=0.1)
        rng = np.random.default_rng(0)
        fired = any(
            detector.observe(float(np.clip(0.5 + rng.normal(0, 0.02), 0, 1)))
            for _ in range(200)
        )
        assert not fired

    def test_shift_fires_after_consecutive_deviations(self):
        detector = WorkloadChangeDetector(threshold=0.1, consecutive=2)
        for _ in range(10):
            detector.observe(0.9)
        assert not detector.observe(0.1)  # first deviation: streak only
        assert detector.observe(0.1)  # second: fire
        assert detector.changes_detected == 1

    def test_baseline_snaps_after_detection(self):
        detector = WorkloadChangeDetector(threshold=0.1, consecutive=1)
        detector.observe(0.9)
        detector.observe(0.9)
        assert detector.observe(0.1)
        assert detector.baseline == pytest.approx(0.1)
        assert not detector.observe(0.1)

    def test_one_shift_one_signal(self):
        detector = WorkloadChangeDetector(threshold=0.1, consecutive=2)
        signals = 0
        for fraction in [0.9] * 20 + [0.1] * 20:
            signals += detector.observe(fraction)
        assert signals == 1

    def test_blip_does_not_fire(self):
        detector = WorkloadChangeDetector(threshold=0.1, consecutive=3)
        for _ in range(10):
            detector.observe(0.5)
        detector.observe(0.9)  # single outlier mission
        fired = any(detector.observe(0.5) for _ in range(10))
        assert not fired

    def test_reset(self):
        detector = WorkloadChangeDetector()
        detector.observe(0.5)
        detector.reset()
        assert detector.baseline is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkloadChangeDetector(threshold=0.0)
        with pytest.raises(ConfigError):
            WorkloadChangeDetector(consecutive=0)
        detector = WorkloadChangeDetector()
        with pytest.raises(ConfigError):
            detector.observe(1.5)


class TestRunningScale:
    def test_first_sample_initializes(self):
        scale = RunningScale()
        scale.update(10.0)
        assert scale.value == pytest.approx(10.0)

    def test_calibration_is_running_mean(self):
        scale = RunningScale(calibration_samples=8)
        scale.update(10.0)
        scale.update(20.0)
        assert scale.value == pytest.approx(15.0)
        scale.update(30.0)
        assert scale.value == pytest.approx(20.0)

    def test_freezes_after_calibration(self):
        scale = RunningScale(calibration_samples=2)
        scale.update(10.0)
        scale.update(20.0)
        frozen = scale.value
        for _ in range(10):
            scale.update(1000.0)
        assert scale.value == pytest.approx(frozen)

    def test_boost_reopens_calibration(self):
        scale = RunningScale(calibration_samples=1)
        scale.update(10.0)
        scale.update(99.0)  # frozen, ignored
        assert scale.value == pytest.approx(10.0)
        scale.boost()
        scale.update(50.0)
        assert scale.value == pytest.approx(50.0)

    def test_normalize_clips(self):
        scale = RunningScale()
        scale.update(1.0)
        assert scale.normalize(100.0) == 10.0
        assert scale.normalize(0.5) == pytest.approx(0.5)

    def test_normalize_before_init_is_zero(self):
        assert RunningScale().normalize(5.0) == 0.0

    def test_validation(self):
        with pytest.raises(RLError):
            RunningScale(calibration_samples=0)
        with pytest.raises(RLError):
            RunningScale().update(-1.0)


def make_mission(level_no=1, read=1.0, write=1.0, lookups=50, updates=50):
    mission = MissionStats(
        index=0, n_lookups=lookups, n_updates=updates,
        read_time=read, write_time=write,
    )
    mission.level_read_time[level_no] = read / 2
    mission.level_write_time[level_no] = write / 2
    return mission


class TestStateAndReward:
    def _tree(self, config):
        tree = LSMTree(config)
        for i in range(300):
            tree.put(i, i)
        return tree

    def test_state_dimension_and_range(self, tiny_config):
        tree = self._tree(tiny_config)
        level_scale, e2e_scale = RunningScale(), RunningScale()
        e2e_scale.update(1e-5)
        level_scale.update(1e-6)
        state = level_state(tree, make_mission(), 1, level_scale, e2e_scale)
        assert state.shape == (STATE_DIM,)
        assert np.isfinite(state).all()
        assert (state >= 0).all()

    def test_state_encodes_policy(self, tiny_config):
        tree = self._tree(tiny_config)
        scales = RunningScale(), RunningScale()
        before = level_state(tree, make_mission(), 1, *scales)
        tree.set_policy(1, tiny_config.size_ratio, TransitionKind.FLEXIBLE)
        after = level_state(tree, make_mission(), 1, *scales)
        assert after[0] == pytest.approx(1.0)
        assert after[0] > before[0]

    def test_reward_prefers_lower_latency(self):
        level_scale, e2e_scale = RunningScale(), RunningScale()
        level_scale.update(0.01)
        e2e_scale.update(0.02)
        slow = mission_reward(
            make_mission(read=2.0, write=2.0), 1, 0.5, level_scale, e2e_scale
        )
        fast = mission_reward(
            make_mission(read=0.5, write=0.5), 1, 0.5, level_scale, e2e_scale
        )
        assert fast > slow

    def test_reward_is_negative(self):
        level_scale, e2e_scale = RunningScale(), RunningScale()
        e2e_scale.update(0.02)
        reward = mission_reward(make_mission(), 1, 0.5, level_scale, e2e_scale)
        assert reward <= 0.0

    def test_reward_is_pure(self):
        level_scale, e2e_scale = RunningScale(), RunningScale()
        level_scale.update(0.01)
        e2e_scale.update(0.02)
        before = vars(level_scale).copy(), vars(e2e_scale).copy()
        mission_reward(make_mission(), 1, 0.5, level_scale, e2e_scale)
        assert (vars(level_scale), vars(e2e_scale)) == before

    def test_reward_alpha_validation(self):
        with pytest.raises(RLError):
            mission_reward(make_mission(), 1, 1.5, RunningScale(), RunningScale())


class TestStaticTuner:
    def test_pins_all_levels(self, tiny_config):
        tree = LSMTree(tiny_config)
        for i in range(800):
            tree.put(i, i)
        tuner = StaticTuner(3)
        tuner.observe_mission(tree, make_mission())
        assert all(policy == 3 for policy in tree.policies())

    def test_name(self):
        assert StaticTuner(5).name == "K=5"
        assert StaticTuner(5, name="custom").name == "custom"

    def test_validation(self):
        with pytest.raises(ConfigError):
            StaticTuner(0)

    def test_base_tuner_is_abstract(self, tiny_config):
        with pytest.raises(NotImplementedError):
            Tuner().observe_mission(LSMTree(tiny_config), make_mission())


class TestLazyLevelingTuner:
    def test_profile_shape(self, tiny_config):
        tree = LSMTree(tiny_config)
        for i in range(900):
            tree.put(i, i)
        tuner = LazyLevelingTuner()
        tuner.observe_mission(tree, make_mission())
        policies = tree.policies()
        assert policies[-1] == 1
        assert all(k == tiny_config.size_ratio for k in policies[:-1])

    def test_reapplies_as_tree_grows(self, tiny_config):
        tree = LSMTree(tiny_config)
        tuner = LazyLevelingTuner()
        for i in range(200):
            tree.put(i, i)
        tuner.observe_mission(tree, make_mission())
        first_depth = tree.n_levels
        for i in range(200, 1500):
            tree.put(i, i)
        tuner.observe_mission(tree, make_mission())
        assert tree.n_levels > first_depth
        assert tree.policies()[-1] == 1

    def test_empty_tree_is_fine(self, tiny_config):
        LazyLevelingTuner().observe_mission(LSMTree(tiny_config), make_mission())


class TestGreedyThresholdTuner:
    def _tree(self, config, policy=5):
        tree = LSMTree(config.with_updates(initial_policy=policy))
        for i in range(800):
            tree.put(i, i)
        return tree

    def test_write_heavy_increases_policy(self, small_config):
        tree = self._tree(small_config)
        tuner = GreedyThresholdTuner(0.33, 0.67)
        mission = make_mission(read=0.01, write=0.99, lookups=5, updates=95)
        for level in tree.levels:
            mission.level_read_time[level.level_no] = 0.001
            mission.level_write_time[level.level_no] = 0.1
        before = tree.policies()
        tuner.observe_mission(tree, mission)
        assert all(a >= b for a, b in zip(tree.policies(), before))
        assert tree.policies() != before

    def test_read_heavy_decreases_policy(self, small_config):
        tree = self._tree(small_config)
        tuner = GreedyThresholdTuner(0.33, 0.67)
        mission = make_mission(read=0.99, write=0.01, lookups=95, updates=5)
        for level in tree.levels:
            mission.level_read_time[level.level_no] = 0.1
            mission.level_write_time[level.level_no] = 0.001
        before = tree.policies()
        tuner.observe_mission(tree, mission)
        assert all(a <= b for a, b in zip(tree.policies(), before))
        assert tree.policies() != before

    def test_policy_bounds_respected(self, small_config):
        tree = self._tree(small_config, policy=1)
        tuner = GreedyThresholdTuner(0.33, 0.67)
        mission = make_mission(read=0.99, write=0.01)
        for level in tree.levels:
            mission.level_read_time[level.level_no] = 1.0
            mission.level_write_time[level.level_no] = 0.0
        tuner.observe_mission(tree, mission)  # cannot go below 1
        assert all(k == 1 for k in tree.policies())

    def test_untouched_level_uses_global_mix(self, small_config):
        tree = self._tree(small_config)
        tuner = GreedyThresholdTuner(0.33, 0.67)
        mission = make_mission(read=1.0, write=0.0, lookups=100, updates=0)
        mission.level_read_time.clear()
        mission.level_write_time.clear()
        tuner.observe_mission(tree, mission)
        assert all(k == 4 for k in tree.policies())  # decreased from 5

    def test_validation(self):
        with pytest.raises(ConfigError):
            GreedyThresholdTuner(0.7, 0.3)


class TestPolicyPropagator:
    def test_uniform_copies_level_one(self):
        propagator = PolicyPropagator(BloomScheme.UNIFORM, 10)
        assert propagator.levels_to_learn == 1
        assert propagator.propagate([7], 4) == [7, 7, 7, 7]

    def test_monkey_uses_lemma(self):
        propagator = PolicyPropagator(BloomScheme.MONKEY, 10)
        assert propagator.levels_to_learn == 2
        assert propagator.propagate([9, 7], 4) == [9, 7, 3, 1]

    def test_extra_learned_values_ignored(self):
        propagator = PolicyPropagator(BloomScheme.UNIFORM, 10)
        assert propagator.propagate([7, 3], 2) == [7, 7]

    def test_insufficient_learned_rejected(self):
        propagator = PolicyPropagator(BloomScheme.MONKEY, 10)
        with pytest.raises(PolicyError):
            propagator.propagate([9], 4)

    def test_invalid_learned_policy_rejected(self):
        propagator = PolicyPropagator(BloomScheme.UNIFORM, 10)
        with pytest.raises(PolicyError):
            propagator.propagate([11], 3)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            PolicyPropagator(BloomScheme.UNIFORM, 1)
        propagator = PolicyPropagator(BloomScheme.UNIFORM, 10)
        with pytest.raises(ConfigError):
            propagator.propagate([5], 0)


class TestMissionRunner:
    def _run(self, config, chunk_size, n_ops=600, seed=5):
        tree = LSMTree(config)
        runner = MissionRunner(tree, chunk_size=chunk_size)
        workload = UniformWorkload(n_records=500, lookup_fraction=0.5, seed=seed)
        missions = list(workload.missions(3, n_ops))
        stats = [runner.run(mission) for mission in missions]
        return tree, stats

    def test_counts_match_mission(self, tiny_config):
        tree, stats = self._run(tiny_config, chunk_size=64)
        for mission_stats in stats:
            assert mission_stats.n_operations == 600

    def test_chunked_matches_serial_costs(self, tiny_config):
        tree_serial, stats_serial = self._run(tiny_config, chunk_size=1)
        tree_chunked, stats_chunked = self._run(tiny_config, chunk_size=128)
        # Same workload, same tree evolution: identical write path, and
        # statistically identical read path (bloom draws differ in order).
        total_serial = sum(s.total_time for s in stats_serial)
        total_chunked = sum(s.total_time for s in stats_chunked)
        assert total_chunked == pytest.approx(total_serial, rel=0.05)
        assert (
            tree_serial.disk.counters.seq_writes
            == tree_chunked.disk.counters.seq_writes
        )

    def test_runs_range_operations(self, tiny_config):
        tree = LSMTree(tiny_config)
        runner = MissionRunner(tree, chunk_size=16)
        from repro.workload.ycsb import YCSBWorkload

        workload = YCSBWorkload.paper_range_mix(300, seed=1)
        mission = next(iter(workload.missions(1, 200)))
        stats = runner.run(mission)
        assert stats.n_ranges > 0

    def _run_workload(self, config, chunk_size, make_workload, n_missions=3, n_ops=500):
        tree = LSMTree(config)
        runner = MissionRunner(tree, chunk_size=chunk_size)
        keys, values = make_workload().load_records()
        tree.bulk_load(keys, values)
        missions = list(make_workload().missions(n_missions, n_ops))
        stats = [runner.run(mission) for mission in missions]
        return tree, stats

    def _assert_chunking_invariant(self, config, make_workload, rel=0.05):
        tree_serial, stats_serial = self._run_workload(config, 1, make_workload)
        tree_chunked, stats_chunked = self._run_workload(config, 128, make_workload)
        total_serial = sum(s.total_time for s in stats_serial)
        total_chunked = sum(s.total_time for s in stats_chunked)
        assert total_chunked == pytest.approx(total_serial, rel=rel)
        # Write path: identical update order inside chunks means identical
        # flush boundaries and compaction traffic, bit for bit.
        assert (
            tree_serial.disk.counters.seq_writes
            == tree_chunked.disk.counters.seq_writes
        )
        assert [s.n_operations for s in stats_serial] == [
            s.n_operations for s in stats_chunked
        ]

    def test_chunked_matches_serial_range_heavy(self, tiny_config):
        """Range scans always execute individually; only the update batches
        around them are chunked, so the costs must track the serial path."""
        from repro.workload.ycsb import YCSBWorkload

        self._assert_chunking_invariant(
            tiny_config,
            lambda: YCSBWorkload.paper_range_mix(600, seed=9, range_span=32),
        )

    def test_chunked_matches_serial_zipfian(self, tiny_config):
        """Zipfian point mixes repeat hot keys inside a chunk; deferring a
        hot lookup past a hot update within one chunk may resolve it from
        the memtable, so totals agree statistically, not bit-exactly."""
        from repro.workload.ycsb import YCSBWorkload

        self._assert_chunking_invariant(
            tiny_config,
            lambda: YCSBWorkload(
                n_records=600, lookup_fraction=0.5, seed=9, name="zipf-balanced"
            ),
            rel=0.1,
        )

    def test_chunked_matches_serial_zipfian_read_heavy(self, tiny_config):
        from repro.workload.ycsb import YCSBWorkload

        self._assert_chunking_invariant(
            tiny_config,
            lambda: YCSBWorkload(
                n_records=600, lookup_fraction=0.9, seed=4, name="zipf-read"
            ),
            rel=0.1,
        )

    def test_chunk_size_validation(self, tiny_config):
        with pytest.raises(WorkloadError):
            MissionRunner(LSMTree(tiny_config), chunk_size=0)

    @pytest.mark.parametrize(
        "make_engine",
        [LSMTree, lambda config: ShardedStore(config, 4)],
        ids=["tree", "sharded-4"],
    )
    def test_failed_mission_closes_its_window(self, tiny_config, make_engine):
        """A mission whose second chunk writes the reserved TOMBSTONE value
        is refused whole, before its window opens: the error reaches the
        caller, nothing is applied or counted, and the next mission runs
        normally."""
        engine = make_engine(tiny_config)
        runner = MissionRunner(engine, chunk_size=16)
        good, bad = UniformWorkload(
            n_records=500, lookup_fraction=0.5, seed=5
        ).missions(2, 64)
        at = np.flatnonzero(bad.kinds == OP_UPDATE)
        bad.values[at[at >= 16][0]] = TOMBSTONE
        def in_mission():
            return any(tree.stats.in_mission for tree in engine.tuning_targets())

        before = observables(engine)
        with pytest.raises(ValueError, match="tombstone sentinel"):
            runner.run(bad)
        assert not in_mission()
        assert observables(engine) == before
        assert engine.view().total_updates == 0
        stats = runner.run(good)
        assert stats.n_operations == 64
        assert not in_mission()
        engine.check_invariants()

    @pytest.mark.parametrize(
        "make_engine",
        [LSMTree, lambda config: ShardedStore(config, 4)],
        ids=["tree", "sharded-4"],
    )
    @pytest.mark.parametrize("case", ["unknown-kind", "range-end"])
    def test_malformed_mission_refused_whole(self, tiny_config, make_engine, case):
        """An unknown op kind was silently dropped (a 3-op mission counted 2
        ops); a range whose end passes INT64_MAX wrapped around and raised
        only after the earlier chunks were applied. Both are refused before
        the window opens, by the int64 rule requests_from_mission enforces."""
        engine = make_engine(tiny_config)
        if case == "unknown-kind":
            message = "unknown op kind: 7"
            mission = Mission(np.array([OP_LOOKUP, 7, OP_UPDATE]), np.arange(3), np.arange(3), np.zeros(3, np.int64))
        else:
            message = "range end is outside int64"
            kinds = np.array([OP_UPDATE] * 5 + [OP_RANGE])
            keys = np.array([1, 2, 3, 4, 5, 2**63 - 2])
            mission = Mission(kinds, keys, np.arange(6), np.array([0] * 5 + [10]))
        before = observables(engine)
        with pytest.raises(WorkloadError, match=message):
            MissionRunner(engine, chunk_size=2).run(mission)
        assert observables(engine) == before
        assert engine.view().windows_closed == 0

    @pytest.mark.parametrize("n_shards", [None, 4], ids=["tree", "sharded-4"])
    def test_failed_mission_leaves_what_the_chunk_loop_leaves(self, tiny_config, n_shards):
        """A put that raises part-way (a durable write failing, say) leaves
        the same simulated state as chunk-at-a-time batch calls: every
        earlier chunk's reads charged, the failing chunk's earlier shards
        written, nothing after."""
        def build():
            engine = LSMTree(tiny_config) if n_shards is None else ShardedStore(tiny_config, n_shards)
            keys = np.arange(0, 3000, 3)
            engine.bulk_load(keys, keys)
            target = engine if n_shards is None else engine.shards[2]
            original, calls = target.put_batch, iter(range(9))

            def put_batch(keys, values):
                if next(calls, None) is None:
                    raise OSError("device gone")
                original(keys, values)

            target.put_batch = put_batch
            return engine

        rng = np.random.default_rng(2)
        mission = Mission(
            rng.integers(0, 3, 600), rng.integers(0, 3000, 600),
            rng.integers(0, 100, 600), rng.integers(0, 40, 600),
        )
        engine, twin = build(), build()
        with pytest.raises(OSError):
            MissionRunner(engine, chunk_size=16).run(mission)
        twin.begin_mission()
        with pytest.raises(OSError):
            try:
                reference_run_chunks(twin, mission, 16)
            finally:
                twin.end_mission()
        assert observables(engine) == observables(twin)
        view = engine.view()
        assert view.total_lookups and view.total_ranges and view.total_updates < 200
