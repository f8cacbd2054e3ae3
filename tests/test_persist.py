"""Tests for the checkpoint/restore subsystem (repro.persist and the
state_dict hooks threaded through every layer).

The central property is **bit-exact resume** (DESIGN.md §6): running N
missions straight vs. checkpointing at N/2, restoring into a fresh object
graph (forced through real serialization) and finishing must yield
identical mission statistics (every field — ``MissionStats`` carries no
host-clock measurement), simulated clock and tree structure. For a bare
engine the differential oracle's restore rule pins it; this module pins it
for tuned stores, snapshot formats and tuners.
"""

import os
import pickle

import numpy as np
import pytest

from repro.bench.harness import (
    Experiment,
    SystemSpec,
    checkpoint_path,
    run_system,
)
from repro.config import SystemConfig
from repro.core.joint import JointLerp
from repro.core.lerp import AllLevelsLerp, Lerp, LerpConfig, per_shard_tuners
from repro.core.named_policy import NamedPolicyLerp
from repro.core.ruskey import RusKey
from repro.core.tuners import StaticTuner
from repro.durable.log import frame
from repro.engine.sharded import ShardedStore
from repro.errors import SnapshotError
from repro.lsm import FLSMTree
from repro.lsm.memtable import MemTable
from repro.lsm.tree import LSMTree
from repro.persist import (
    FORMAT_VERSION,
    load_engine,
    load_snapshot,
    load_store,
    load_tuner,
    save_engine,
    save_snapshot,
    save_store,
    save_tuner,
)
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.workload.uniform import UniformWorkload


def roundtrip(state):
    """Force a state dict through real serialization."""
    return pickle.loads(pickle.dumps(state, protocol=4))


def drive_engine(engine, n_missions, n_keys=3000, ops=400):
    """Run deterministic missions against a bare engine."""
    rng = np.random.default_rng(3)
    missions = []
    for _ in range(n_missions):
        keys = rng.integers(0, n_keys, size=ops)
        values = rng.integers(0, 10**6, size=ops)
        probes = rng.integers(0, n_keys, size=ops)
        engine.begin_mission()
        engine.put_batch(keys, values)
        engine.get_batch(probes)
        engine.range_lookup(10, 200)
        missions.append(engine.end_mission())
    return missions


class TestEngineBitExactResume:
    """That a restored engine — tree, sharded, durable — is sim-identical to
    the straight one is the differential oracle's restore rule
    (``tests/test_oracle.py``); these are the refusals."""

    def test_mid_mission_snapshot_rejected(self, tiny_config):
        tree = LSMTree(tiny_config)
        tree.begin_mission()
        with pytest.raises(SnapshotError):
            tree.state_dict()
        tree.end_mission()
        tree.state_dict()  # fine between missions

    def test_shard_count_mismatch_rejected(self):
        config = SystemConfig(size_ratio=4, write_buffer_bytes=16 * 1024)
        store = ShardedStore(config, 2)
        state = store.state_dict()
        other = ShardedStore(config, 3)
        with pytest.raises(Exception):
            other.load_state_dict(state)

    def test_memtable_capacity_mismatch_rejected(self):
        table = MemTable(8)
        table.put_batch(np.array([1]), np.array([1]))
        state = table.state_dict()
        with pytest.raises(Exception):
            MemTable(16).load_state_dict(state)


class TestAgentStateDict:
    def test_ddpg_roundtrip_continues_identically(self):
        config = DDPGConfig(state_dim=4, action_dim=1, hidden=(8,), warmup=4)

        def train(agent, rng, steps):
            out = []
            for _ in range(steps):
                s = rng.random(4)
                a = agent.act(s)
                agent.observe(s, a, -float(s.sum()), rng.random(4))
                agent.update()
                out.append(a)
            return out

        rng_a = np.random.default_rng(0)
        a = DDPGAgent(config, rng_a)
        train(a, np.random.default_rng(9), 12)

        rng_b = np.random.default_rng(0)
        b = DDPGAgent(config, rng_b)
        train(b, np.random.default_rng(9), 6)
        state = roundtrip(b.state_dict())
        rng_state = rng_b.bit_generator.state

        rng_c = np.random.default_rng(123)  # different construction draws
        c = DDPGAgent(config, rng_c)
        c.load_state_dict(state)
        rng_c.bit_generator.state = rng_state

        # Finish both; with identical restored state + RNG the trajectories
        # must coincide. (Sessions a and b diverged at step 6: a's driver
        # rng had advanced differently, so compare b/c only.)
        tail_b = train(b, np.random.default_rng(5), 6)
        tail_c = train(c, np.random.default_rng(5), 6)
        for x, y in zip(tail_b, tail_c):
            np.testing.assert_array_equal(x, y)

    def test_dqn_roundtrip_continues_identically(self):
        config = DQNConfig(state_dim=4, n_actions=3, hidden=(8,), warmup=4)
        rng_b = np.random.default_rng(0)
        b = DQNAgent(config, rng_b)
        driver = np.random.default_rng(9)
        for _ in range(8):
            s = driver.random(4)
            action = b.act(s)
            b.observe(s, action, -1.0, driver.random(4))
            b.update()
        state = roundtrip(b.state_dict())
        rng_state = rng_b.bit_generator.state

        c = DQNAgent(config, np.random.default_rng(77))
        c.load_state_dict(state)
        c._rng.bit_generator.state = rng_state
        # Same b — continue both with identical drivers.
        d1 = np.random.default_rng(5)
        d2 = np.random.default_rng(5)
        for _ in range(6):
            s = d1.random(4)
            assert b.act(s) == c.act(d2.random(4))

    def test_network_shape_mismatch_rejected(self):
        small = DDPGAgent(
            DDPGConfig(state_dim=4, action_dim=1, hidden=(8,)),
            np.random.default_rng(0),
        )
        big = DDPGAgent(
            DDPGConfig(state_dim=4, action_dim=1, hidden=(16,)),
            np.random.default_rng(0),
        )
        with pytest.raises(Exception):
            big.load_state_dict(small.state_dict())


def lerp_test_config(seed=3):
    return LerpConfig(
        burn_in_missions=2, stable_window=4, max_stage_missions=20, seed=seed
    )


TUNER_CLASSES = [Lerp, AllLevelsLerp, JointLerp, NamedPolicyLerp]


def build_store(config, n_shards=1, tuner_class=Lerp):
    return RusKey(
        config,
        tuners=per_shard_tuners(tuner_class, config, lerp_test_config(), n_shards),
        n_shards=n_shards,
        chunk_size=32,
    )


@pytest.fixture
def workload():
    return UniformWorkload(n_records=4000, lookup_fraction=0.5, seed=11)


@pytest.fixture
def store_config():
    return SystemConfig(size_ratio=4, write_buffer_bytes=16 * 1024, seed=7)


class TestStoreBitExactResume:
    N = 24

    def _missions(self, workload):
        return list(workload.missions(self.N, 300))

    @pytest.mark.parametrize("tuner_class", TUNER_CLASSES)
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_lerp_tuned_resume_is_bit_exact(
        self, store_config, workload, tmp_path, n_shards, tuner_class
    ):
        """An uninterrupted N-mission run, and a twin stopped at N/2, saved,
        loaded and finished: the two are indistinguishable."""
        missions = self._missions(workload)
        keys, values = workload.load_records()
        straight = build_store(store_config, n_shards, tuner_class)
        straight.bulk_load(keys, values)
        for mission in missions:
            straight.run_mission(mission)
        half = build_store(store_config, n_shards, tuner_class)
        half.bulk_load(keys, values)
        for mission in missions[: self.N // 2]:
            half.run_mission(mission)
        path = os.fspath(tmp_path / "store.ckpt")
        save_store(half, path)

        resumed = load_store(path)
        assert resumed.missions_run == self.N // 2
        assert all(type(t) is tuner_class for t in resumed.tuners)
        for mission in missions[self.N // 2 :]:
            resumed.run_mission(mission)
        assert len(resumed.mission_log) == self.N
        assert straight.mission_log == resumed.mission_log
        assert straight.view() == resumed.view()
        assert straight.engine.describe() == resumed.engine.describe()
        assert straight.policy_history == resumed.policy_history
        for ours, theirs in zip(straight.tuners, resumed.tuners):
            assert ours.converged == theirs.converged
            assert ours.restarts == theirs.restarts
            assert ours.state_dict()["rng"] == theirs.state_dict()["rng"]

    def test_shared_tuner_restores_as_one_instance(
        self, store_config, workload, tmp_path
    ):
        keys, values = workload.load_records()
        store = RusKey(
            store_config, tuner=StaticTuner(3), n_shards=2, chunk_size=32
        )
        store.bulk_load(keys, values)
        for mission in self._missions(workload)[:4]:
            store.run_mission(mission)
        path = os.fspath(tmp_path / "shared.ckpt")
        save_store(store, path)

        resumed = load_store(path)
        assert resumed.tuners[0] is resumed.tuners[1]

    def test_tuner_topology_mismatch_rejected(self, store_config, workload):
        keys, values = workload.load_records()
        shared = RusKey(
            store_config, tuner=StaticTuner(3), n_shards=2, chunk_size=32
        )
        shared.bulk_load(keys, values)
        for mission in self._missions(workload)[:2]:
            shared.run_mission(mission)
        state = shared.state_dict()
        independent = RusKey(
            store_config,
            tuners=[StaticTuner(3), StaticTuner(3)],
            n_shards=2,
            chunk_size=32,
        )
        with pytest.raises(SnapshotError):
            independent.load_state_dict(state)

    def test_static_tuner_store_roundtrip(self, store_config, workload, tmp_path):
        missions = self._missions(workload)
        keys, values = workload.load_records()
        store = RusKey(store_config, tuner=StaticTuner(3), chunk_size=32)
        store.bulk_load(keys, values)
        for mission in missions[:8]:
            store.run_mission(mission)
        path = os.fspath(tmp_path / "static.ckpt")
        save_store(store, path)
        resumed = load_store(path)
        assert isinstance(resumed.tuner, StaticTuner)
        assert resumed.tuner.policy == 3
        for mission in missions[8:12]:
            store.run_mission(mission)
            resumed.run_mission(mission)
        assert store.mission_log == resumed.mission_log


class TestSnapshotFiles:
    def test_engine_roundtrip(self, store_config, tmp_path):
        tree = FLSMTree(store_config)
        tree.put_batch(np.arange(500), np.arange(500))
        path = os.fspath(tmp_path / "tree.snap")
        save_engine(tree, path)
        restored = load_engine(path)
        assert isinstance(restored, FLSMTree)
        assert restored.describe() == tree.describe()
        assert restored.clock_now == tree.clock_now
        assert restored.config == tree.config

    def test_tuner_roundtrip(self, store_config, workload, tmp_path):
        store = build_store(store_config)
        keys, values = workload.load_records()
        store.bulk_load(keys, values)
        for mission in workload.missions(6, 300):
            store.run_mission(mission)
        path = os.fspath(tmp_path / "lerp.snap")
        save_tuner(store.tuner, store_config, path)
        restored = load_tuner(path)
        assert isinstance(restored, Lerp)
        assert restored.config == store.tuner.config
        assert restored.converged == store.tuner.converged

    def test_kind_validation(self, store_config, tmp_path):
        tree = FLSMTree(store_config)
        path = os.fspath(tmp_path / "tree.snap")
        save_engine(tree, path)
        with pytest.raises(SnapshotError):
            load_snapshot(path, expected_kind="store")
        with pytest.raises(SnapshotError):
            load_store(path)

    def test_not_a_snapshot(self, tmp_path):
        path = os.fspath(tmp_path / "junk")
        with open(path, "wb") as fh:
            fh.write(b"not a snapshot at all")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(os.fspath(tmp_path / "missing"))

    @pytest.mark.parametrize("version", [FORMAT_VERSION - 1, FORMAT_VERSION + 1])
    def test_version_mismatch(self, tmp_path, version):
        path = os.fspath(tmp_path / "other")
        save_snapshot(path, "engine", {})
        payload = load_snapshot(path)
        payload["format_version"] = version
        with open(path, "wb") as fh:
            fh.write(frame(pickle.dumps(payload)))
        with pytest.raises(SnapshotError, match="format version"):
            load_snapshot(path)

    def test_pickle_rejects_foreign_payload(self, tmp_path):
        path = os.fspath(tmp_path / "dictfile")
        with open(path, "wb") as fh:
            fh.write(frame(pickle.dumps({"hello": "world"})))
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            load_snapshot(path)

    def test_damaged_or_unframed_file_is_refused(
        self, store_config, workload, tmp_path
    ):
        """A snapshot is one CRC frame, checked before anything is
        unpickled: every truncation, every single-byte flip and the
        unframed pickle the first format wrote raise ``SnapshotError``."""
        store = build_store(store_config, n_shards=2)
        keys, values = workload.load_records()
        store.bulk_load(keys, values)
        for mission in workload.missions(4, 300):
            store.run_mission(mission)
        path = os.fspath(tmp_path / "store.ckpt")
        save_store(store, path)
        with open(path, "rb") as fh:
            data = fh.read()
        v1 = load_snapshot(path)
        v1["format_version"] = 1

        rng = np.random.default_rng(29)
        damaged = [data[:end] for end in range(0, len(data), len(data) // 150)]
        for at, mask in zip(
            rng.integers(0, len(data), 250), rng.integers(1, 256, 250)
        ):
            flipped = bytearray(data)
            flipped[at] ^= mask
            damaged.append(bytes(flipped))
        damaged.append(pickle.dumps(v1, protocol=4))
        damaged_path = os.fspath(tmp_path / "damaged.ckpt")
        for blob in damaged:
            with open(damaged_path, "wb") as fh:
                fh.write(blob)
            with pytest.raises(SnapshotError):
                load_store(damaged_path)
        load_store(path)  # the undamaged file still loads


class TestLerpWarmStart:
    def test_warm_start_keeps_networks_resets_episode(
        self, store_config, workload
    ):
        store = build_store(store_config)
        keys, values = workload.load_records()
        store.bulk_load(keys, values)
        for mission in workload.missions(16, 300):
            store.run_mission(mission)
        tuner = store.tuner
        assert isinstance(tuner, Lerp)
        state = roundtrip(tuner.state_dict())

        fresh = Lerp(store_config, lerp_test_config())
        fresh.load_state_dict(state)
        agent = fresh._levels[1].agent
        trained_params = [layer.copy() for layer in agent.actor.state_dict()]
        fresh.warm_start(exploration_scale=0.5)
        assert not fresh.converged
        assert fresh.restarts == 0
        assert fresh._stage_idx == 0
        assert len(fresh._k_history) == 0
        # Networks retained...
        assert fresh._levels[1].agent is agent
        for kept, trained in zip(agent.actor.state_dict(), trained_params):
            np.testing.assert_array_equal(kept, trained)
        # ...replay retained, exploration reduced.
        assert len(agent.replay) > 0
        assert agent.noise.sigma == pytest.approx(
            agent.config.noise_sigma * 0.5
        )

    def test_warm_start_validation(self, store_config):
        tuner = Lerp(store_config, lerp_test_config())
        with pytest.raises(Exception):
            tuner.warm_start(exploration_scale=0.0)


class TestHarnessCheckpointResume:
    def test_interrupted_experiment_finishes_bit_exactly(
        self, store_config, workload, tmp_path
    ):
        lerp = lerp_test_config()

        def make_experiment(**overrides):
            return Experiment(
                name="ckpt-test",
                workload=workload,
                n_missions=20,
                mission_size=300,
                base_config=store_config,
                chunk_size=32,
                systems=[
                    SystemSpec("RusKey", lambda c: None, 1, lerp_config=lerp)
                ],
                **overrides,
            )

        straight = run_system(make_experiment(), make_experiment().systems[0])

        interrupted = make_experiment(
            checkpoint_every=5, checkpoint_dir=os.fspath(tmp_path)
        )
        interrupted.n_missions = 10  # "crash" after 10 missions
        run_system(interrupted, interrupted.systems[0])
        assert os.path.exists(
            checkpoint_path(interrupted, interrupted.systems[0])
        )

        finished = make_experiment(
            checkpoint_every=5,
            checkpoint_dir=os.fspath(tmp_path),
            resume=True,
        )
        resumed = run_system(finished, finished.systems[0])
        assert len(resumed.missions) == 20
        assert straight.missions == resumed.missions
        assert straight.policy_history == resumed.policy_history

    def test_checkpoint_validation(self, store_config, workload):
        with pytest.raises(Exception):
            Experiment(
                name="bad",
                workload=workload,
                n_missions=5,
                mission_size=10,
                base_config=store_config,
                checkpoint_every=-1,
            )


class TestCacheStatsSurfaced:
    def test_mission_stats_carry_cache_counters(self):
        config = SystemConfig(
            size_ratio=4,
            write_buffer_bytes=16 * 1024,
            seed=7,
            block_cache_pages=64,
        )
        tree = FLSMTree(config)
        missions = drive_engine(tree, 4)
        totals = (
            sum(m.cache_hits for m in missions),
            sum(m.cache_misses for m in missions),
        )
        assert totals == (tree.cache_hits, tree.cache_misses)
        assert tree.cache_misses > 0
        assert tree.cache_hits > 0  # repeated probes of a hot range

    def test_sharded_cache_counters_aggregate(self):
        config = SystemConfig(
            size_ratio=4,
            write_buffer_bytes=16 * 1024,
            seed=7,
            block_cache_pages=32,
        )
        store = ShardedStore(config, 3)
        missions = drive_engine(store, 4)
        per_shard = sum(s.cache.hits for s in store.shards)
        assert store.cache_hits == per_shard
        assert sum(m.cache_hits for m in missions) == per_shard
