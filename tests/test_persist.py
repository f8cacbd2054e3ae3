"""Tests for the checkpoint/restore subsystem (repro.persist): a snapshot
is the pickled object in a versioned, CRC-framed envelope.

The central property is **bit-exact resume** (DESIGN.md §6): running N
missions straight vs. checkpointing at N/2, restoring into a fresh object
graph (forced through real serialization) and finishing must yield
identical mission statistics (every field — ``MissionStats`` carries no
host-clock measurement), simulated clock and tree structure. For a bare
engine the differential oracle's restore rule pins it; this module pins it
for tuned stores, snapshot formats and tuners, and guards the pickled
layout (``tests/data/snapshot_layout.json``).
"""

import io
import json
import os
import pickle
import tempfile

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
from repro.durable import DurableStore
from repro.durable.log import frame
from repro.engine.sharded import ShardedStore
from repro.errors import SnapshotError
from repro.lsm import FLSMTree
from repro.lsm.tree import LSMTree
from repro.obs.audit import DecisionAuditLog
from repro.persist import (
    FORMAT_VERSION,
    MAGIC,
    load_engine,
    load_snapshot,
    load_store,
    load_tuner,
    save_engine,
    save_store,
    save_tuner,
)
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.workload.uniform import UniformWorkload


def roundtrip(obj):
    """Force an object through real serialization."""
    return pickle.loads(pickle.dumps(obj, protocol=4))


class Tripwire:
    """Counts its unpickling: a refused file must never build one."""

    built = 0

    def __init__(self):
        self.armed = True

    def __setstate__(self, state):
        Tripwire.built += 1


@pytest.fixture(autouse=True)
def disarm_tripwire():
    Tripwire.built = 0


def write_envelope(path, version=FORMAT_VERSION, kind="engine"):
    """A framed envelope around a pickled :class:`Tripwire`."""
    envelope = {
        "magic": MAGIC,
        "format_version": version,
        "kind": kind,
        "repro_version": "0",
        "meta": {},
        "object": pickle.dumps(Tripwire(), protocol=4),
    }
    with open(path, "wb") as fh:
        fh.write(frame(pickle.dumps(envelope, protocol=4)))


def directory_bytes(directory):
    """Every file of ``directory`` with its contents."""
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            contents[name] = fh.read()
    return contents


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

    def test_mid_mission_snapshot_rejected(self, tiny_config, tmp_path):
        tree = LSMTree(tiny_config)
        path = os.fspath(tmp_path / "tree.snap")
        tree.begin_mission()
        with pytest.raises(SnapshotError):
            save_engine(tree, path)
        assert not os.path.exists(path)
        tree.end_mission()
        save_engine(tree, path)  # fine between missions


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

        b = DDPGAgent(config, np.random.default_rng(0))
        train(b, np.random.default_rng(9), 6)
        c = roundtrip(b)

        # Finish both; with identical restored state + RNG the trajectories
        # must coincide.
        tail_b = train(b, np.random.default_rng(5), 6)
        tail_c = train(c, np.random.default_rng(5), 6)
        for x, y in zip(tail_b, tail_c):
            np.testing.assert_array_equal(x, y)

    def test_dqn_roundtrip_continues_identically(self):
        config = DQNConfig(state_dim=4, n_actions=3, hidden=(8,), warmup=4)
        b = DQNAgent(config, np.random.default_rng(0))
        driver = np.random.default_rng(9)
        for _ in range(8):
            s = driver.random(4)
            action = b.act(s)
            b.observe(s, action, -1.0, driver.random(4))
            b.update()
        c = roundtrip(b)
        # Same b — continue both with identical drivers.
        d1 = np.random.default_rng(5)
        d2 = np.random.default_rng(5)
        for _ in range(6):
            s = d1.random(4)
            assert b.act(s) == c.act(d2.random(4))


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
            assert ours._rng.bit_generator.state == theirs._rng.bit_generator.state

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
        save_tuner(store.tuner, path)
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

    @pytest.mark.parametrize("version", [1, FORMAT_VERSION - 1, FORMAT_VERSION + 1])
    def test_version_mismatch(self, tmp_path, version):
        """A file of any other version — 2 is the state-dict layout this one
        replaced — is refused before its object is unpickled."""
        path = os.fspath(tmp_path / "other")
        write_envelope(path, version=version)
        with pytest.raises(SnapshotError, match="format version"):
            load_snapshot(path)
        assert Tripwire.built == 0

    def test_wrong_kind_is_refused_before_unpickling(self, tmp_path):
        path = os.fspath(tmp_path / "engine.snap")
        write_envelope(path, kind="engine")
        with pytest.raises(SnapshotError, match="expected 'store'"):
            load_store(path)
        assert Tripwire.built == 0
        load_engine(path)
        assert Tripwire.built == 1

    def test_durable_snapshot_of_the_wrong_kind_leaves_its_directory(
        self, store_config, tmp_path
    ):
        store = DurableStore(os.fspath(tmp_path / "data"), store_config)
        store.put_batch(np.arange(500), np.arange(500))
        path = os.fspath(tmp_path / "durable.snap")
        save_engine(store, path)
        store.close()
        before = directory_bytes(store.data_dir)
        with pytest.raises(SnapshotError):
            load_store(path)
        assert directory_bytes(store.data_dir) == before
        load_engine(path).close()
        assert directory_bytes(store.data_dir) == before  # reattached, not rewritten

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
        assert isinstance(store.tuner, Lerp)
        fresh = roundtrip(store.tuner)
        agent = fresh._levels[1].agent
        trained_params = agent.actor.flat_params.copy()
        fresh.warm_start(exploration_scale=0.5)
        assert not fresh.converged
        assert fresh.restarts == 0
        assert fresh._stage_idx == 0
        assert len(fresh._k_history) == 0
        # Networks retained...
        assert fresh._levels[1].agent is agent
        np.testing.assert_array_equal(agent.actor.flat_params, trained_params)
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


# ----------------------------------------------------------------------
# The pickled layout is versioned
# ----------------------------------------------------------------------
LAYOUT_PATH = os.path.join(os.path.dirname(__file__), "data", "snapshot_layout.json")


class LayoutRecorder(pickle.Pickler):
    """Pickles like ``save_snapshot`` and records, for every ``repro``
    object, its class and the attribute names its pickle carries."""

    def __init__(self):
        super().__init__(io.BytesIO(), protocol=4)
        self.layout = {}

    def reducer_override(self, obj):
        cls = type(obj)
        if cls.__module__.startswith("repro."):
            reduced = obj.__reduce_ex__(4)
            state = reduced[2] if len(reduced) > 2 else None
            if isinstance(state, tuple):  # (__dict__, slots)
                state = {**(state[0] or {}), **state[1]}
            names = self.layout.setdefault(f"{cls.__module__}.{cls.__qualname__}", set())
            names.update(state or ())
        return NotImplemented


def record_layout(root):
    """The layout every kind of snapshot pickles: each learned tuner and a
    static one on 1 and 3 shards with an audit log attached, a durable
    store and a sharded store of durable shards."""
    config = SystemConfig(size_ratio=4, write_buffer_bytes=16 * 1024, seed=7)
    workload = UniformWorkload(n_records=4000, lookup_fraction=0.5, seed=11)
    keys, values = workload.load_records()
    objects = []
    for n_shards in (1, 3):
        stores = [build_store(config, n_shards, cls) for cls in TUNER_CLASSES]
        stores.append(RusKey(config, tuner=StaticTuner(3), n_shards=n_shards))
        for store in stores:
            store.attach_audit(DecisionAuditLog())
            store.bulk_load(keys, values)
            store.run_missions(workload.missions(6, 300))
        objects += stores
    durable = DurableStore(os.path.join(root, "durable"), config)
    sharded = ShardedStore(
        config,
        3,
        tree_factory=lambda c, i: DurableStore(os.path.join(root, f"shard-{i}"), c),
    )
    for engine in (durable, sharded):
        engine.bulk_load(keys, values)
        engine.put_batch(keys[:500], values[:500] + 1)
        objects.append(engine)
    recorder = LayoutRecorder()
    for obj in objects:
        recorder.dump(obj)
    for engine in (durable, *sharded.shards):
        engine.close()
    return {name: sorted(names) for name, names in sorted(recorder.layout.items())}


def test_snapshot_layout_is_versioned(tmp_path):
    """``tests/data/snapshot_layout.json`` lists every class a snapshot
    pickles, with the attributes it pickles, under the ``FORMAT_VERSION``
    that reads it: a renamed attribute or a moved class that does not bump
    the version fails here, naming the class. Re-record with
    ``PYTHONPATH=src python tests/test_persist.py`` after the bump."""
    with open(LAYOUT_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    layout = record_layout(os.fspath(tmp_path))
    changed = sorted(
        name
        for name in layout.keys() | golden["classes"].keys()
        if layout.get(name) != golden["classes"].get(name)
    )
    assert golden["format_version"] == FORMAT_VERSION, (
        f"the layout golden was recorded at format version "
        f"{golden['format_version']}; re-record it for {FORMAT_VERSION}"
    )
    assert not changed, (
        f"the pickled layout of {changed} changed under format version "
        f"{FORMAT_VERSION}: bump repro.persist.FORMAT_VERSION and re-record"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recorded = record_layout(scratch)
    with open(LAYOUT_PATH, "w", encoding="utf-8") as fh:
        json.dump({"format_version": FORMAT_VERSION, "classes": recorded}, fh, indent=1)
        fh.write("\n")
