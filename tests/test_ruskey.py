"""Tests for the RusKey facade (repro.core.ruskey)."""

import numpy as np
import pytest

from repro.core.lerp import Lerp, LerpConfig
from repro.core.ruskey import RusKey
from repro.core.tuners import StaticTuner
from repro.errors import ConfigError, WorkloadError
from repro.workload.uniform import UniformWorkload


@pytest.fixture
def store(small_config):
    return RusKey(small_config, tuner=StaticTuner(1))


class TestDataPath:
    def test_put_get_delete(self, store):
        store.put(1, 10)
        assert store.get(1) == 10
        store.delete(1)
        assert store.get(1) is None

    def test_range_lookup(self, store):
        for i in range(10):
            store.put(i, i * 2)
        assert store.range_lookup(2, 4) == [(2, 4), (3, 6), (4, 8)]

    def test_bulk_load(self, store, rng):
        keys = rng.choice(10**5, size=300, replace=False).astype(np.int64)
        store.bulk_load(keys, keys)
        assert store.get(int(keys[0])) == int(keys[0])

    def test_default_tuner_is_lerp(self, small_config):
        assert isinstance(RusKey(small_config).tuner, Lerp)

    def test_default_config(self):
        store = RusKey()
        assert store.config.size_ratio == 10


class TestMissionLoop:
    def test_run_mission_logs_stats_and_policies(self, store):
        workload = UniformWorkload(500, lookup_fraction=0.5, seed=1)
        mission = next(iter(workload.missions(1, 200)))
        stats = store.run_mission(mission)
        assert stats.n_operations == 200
        assert store.mission_log == [stats]
        assert len(store.policy_history) == 1

    def test_run_workload_loads_and_runs(self, small_config):
        store = RusKey(small_config, tuner=StaticTuner(1))
        workload = UniformWorkload(500, lookup_fraction=0.5, seed=1)
        stats = store.run_workload(workload, n_missions=4, mission_size=100)
        assert len(stats) == 4
        assert store.total_entries >= 500

    def test_run_workload_rejects_double_load(self, small_config):
        store = RusKey(small_config, tuner=StaticTuner(1))
        workload = UniformWorkload(500, lookup_fraction=0.5, seed=1)
        store.run_workload(workload, n_missions=1, mission_size=50)
        with pytest.raises(WorkloadError):
            store.run_workload(workload, n_missions=1, mission_size=50)

    def test_run_workload_load_false_continues(self, small_config):
        store = RusKey(small_config, tuner=StaticTuner(1))
        workload = UniformWorkload(500, lookup_fraction=0.5, seed=1)
        store.run_workload(workload, n_missions=1, mission_size=50)
        store.run_workload(
            workload, n_missions=1, mission_size=50, load=False
        )
        assert len(store.mission_log) == 2

    def test_run_workload_validates_shape(self, store):
        workload = UniformWorkload(500, lookup_fraction=0.5, seed=1)
        with pytest.raises(WorkloadError):
            store.run_workload(workload, n_missions=0, mission_size=50)

    def test_latency_series_and_mean(self, small_config):
        store = RusKey(small_config, tuner=StaticTuner(1))
        workload = UniformWorkload(500, lookup_fraction=0.5, seed=1)
        store.run_workload(workload, n_missions=5, mission_size=100)
        series = store.latency_series()
        assert series.shape == (5,)
        assert (series > 0).all()
        assert store.mean_latency() == pytest.approx(float(series.mean()))
        assert store.mean_latency(last_n=2) == pytest.approx(
            float(series[-2:].mean())
        )

    def test_mean_latency_empty(self, store):
        assert store.mean_latency() == 0.0

    def test_mean_latency_refuses_nonpositive_last_n(self, store):
        workload = UniformWorkload(500, lookup_fraction=0.5, seed=1)
        store.run_workload(workload, n_missions=3, mission_size=50)
        for last_n in (0, -1):
            with pytest.raises(ConfigError):
                store.mean_latency(last_n=last_n)


class TestEndToEndTuning:
    def test_ruskey_beats_worst_baseline_on_read_heavy(self, small_config):
        """After tuning, RusKey should clearly beat the read-hostile K=10
        baseline on a read-heavy workload (paper Figure 6a shape)."""
        lerp_config = LerpConfig(
            stable_window=8, max_stage_missions=40, seed=1,
        )
        workload = UniformWorkload(4000, lookup_fraction=0.9, seed=7)

        def run(tuner, policy):
            config = small_config.with_updates(initial_policy=policy)
            store = RusKey(config, tuner=tuner, chunk_size=64)
            keys, values = workload.load_records()
            store.bulk_load(keys, values, distribute=True)
            store.run_missions(workload.missions(80, 400))
            return store

        ruskey = run(None if False else Lerp(
            small_config, lerp_config), 1)
        lazy = run(StaticTuner(10), 10)
        assert ruskey.mean_latency(last_n=20) < lazy.mean_latency(last_n=20)

    def test_policies_move_toward_aggressive_on_reads(self, small_config):
        # Note: γ must stay below 1.0 — with zero updates flexible
        # transitions never take effect (the degenerate case the paper's
        # Section 7 "Limitations" discusses), so the reward would be flat.
        lerp_config = LerpConfig(stable_window=8, max_stage_missions=60, seed=1)
        config = small_config.with_updates(initial_policy=5)
        store = RusKey(config, tuner=Lerp(config, lerp_config), chunk_size=64)
        workload = UniformWorkload(4000, lookup_fraction=0.9, seed=7)
        keys, values = workload.load_records()
        store.bulk_load(keys, values, distribute=True)
        store.run_missions(workload.missions(100, 400))
        assert store.policies()[0] <= 5
