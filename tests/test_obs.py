"""Tests for the telemetry subsystem (repro.obs, DESIGN.md §12).

Covers the view (each shard's records, shared tuners and audit logs once,
snapshot view equal to the live one, durable snapshots refused before
anything is unpickled, and the mission windows that say why the tuner
switched), span tracing (nesting, deterministic sampling, stage laps), the
RL decision audit log (recording, timeline rendering, persistence through
tuner and store snapshots), and — the subsystem's hard invariant — the
**zero-sim-impact twin**: a run with every telemetry layer enabled is
bit-identical in all simulated observables to the same run without.
"""

import json
import os

import numpy as np
import pytest
from test_oracle import build

from repro.config import SystemConfig
from repro.core.lerp import Lerp, LerpConfig
from repro.core.ruskey import RusKey
from repro.core.tuners import StaticTuner
from repro.errors import ObsError
from repro.lsm.policy import classify_policies
from repro.lsm.rangepath import RANGE_STAGES
from repro.lsm.readplan import PLAN_STAGES
from repro.lsm.tree import LSMTree
from repro.obs import (
    DecisionAuditLog,
    Tracer,
    format_decision_timeline,
    telemetry_view,
)
from repro.persist import (
    load_store,
    load_tuner,
    save_engine,
    save_snapshot,
    save_store,
    save_tuner,
)
from repro.workload import UniformWorkload


def small_store(
    initial_policy: int = 1,
    cache_pages: int = 0,
    n_shards: int = 2,
    tune: bool = True,
):
    config = SystemConfig().with_updates(
        initial_policy=initial_policy, block_cache_pages=cache_pages
    )
    if tune:
        return RusKey(
            config,
            n_shards=n_shards,
            lerp_config=LerpConfig(burn_in_missions=1),
        )
    return RusKey(config, tuner=StaticTuner(initial_policy), n_shards=n_shards)


def run_small(store, n_missions: int = 4, mission_size: int = 200, seed: int = 3):
    workload = UniformWorkload(
        n_records=1500, lookup_fraction=0.5, seed=seed
    )
    keys, values = workload.load_records()
    store.bulk_load(keys, values)
    for mission in workload.missions(n_missions, mission_size):
        store.run_mission(mission)
    return store


# ======================================================================
# Span tracing
# ======================================================================
class TestTracer:
    def test_nesting_and_timing(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test") as outer, tracer.span("inner"):
            pass
        roots = tracer.spans()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner"]
        assert roots[0].attrs == {"kind": "test"}
        child = roots[0].children[0]
        assert outer.start <= child.start
        assert child.duration <= outer.duration
        assert outer.duration >= 0.0

    def test_deterministic_sampling(self):
        tracer = Tracer(sample_every=3)
        for i in range(9):
            with tracer.span(f"root-{i}"):
                pass
        kept = [r.name for r in tracer.spans()]
        assert kept == ["root-0", "root-3", "root-6"]
        assert tracer.roots_seen == 9
        assert tracer.roots_kept == 3

    def test_laps_and_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("parent") as span:
            span.lap("bloom")
            span.lap("cache")
            span.lap("bloom")
        assert span.stages["bloom"][1] == 2 and span.stages["cache"][1] == 1
        assert sum(s for s, _ in span.stages.values()) <= span.duration
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(str(path)) == 1
        record = json.loads(path.read_text().splitlines()[0])
        assert "children" not in record  # a lap is not a span
        assert record["stages"]["bloom"] == {
            "seconds": span.stages["bloom"][0], "calls": 2,
        }

    def test_tree_spans_lap_their_stages(self):
        config = SystemConfig()
        tree = LSMTree(config)
        keys = np.arange(300, dtype=np.int64)
        tree.bulk_load(keys, keys)
        tracer = Tracer()
        tree.set_tracer(tracer)
        tree.get_batch(keys[:64])
        (root,) = tracer.spans()
        assert root.name == "lsm.get_batch"
        assert {"memtable", "search", "bloom"} <= set(root.stages)

    def test_invalid_config_raises(self):
        with pytest.raises(ObsError):
            Tracer(sample_every=0)
        with pytest.raises(ObsError):
            Tracer(max_spans=0)


# ======================================================================
# Decision audit log
# ======================================================================
class TestAuditLog:
    def test_record_filter_and_order(self):
        log = DecisionAuditLog()
        log.record("policy_action", 0, arm="tiering", epsilon=0.5)
        log.record("restart", None, reason="reset")
        log.record("policy_action", 1, arm="leveling", epsilon=0.4)
        assert len(log) == 3
        assert [e.seq for e in log.events] == [0, 1, 2]
        actions = log.filter("policy_action")
        assert [e.data["arm"] for e in actions] == ["tiering", "leveling"]

    def test_jsonl_export_writes_one_record_per_event(self, tmp_path):
        log = DecisionAuditLog()
        log.record("level_action", 2, level=1, delta=1, k=3, sigma=0.2)
        log.record("restart", None, reason="detector")
        path = tmp_path / "audit.jsonl"
        assert log.export_jsonl(str(path)) == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == [
            {"seq": 0, "kind": "level_action", "mission": 2,
             "data": {"level": 1, "delta": 1, "k": 3, "sigma": 0.2}},
            {"seq": 1, "kind": "restart", "mission": None, "data": {"reason": "detector"}},
        ]

    def test_timeline_renders_decisions(self):
        log = DecisionAuditLog()
        log.record(
            "policy_action",
            0,
            arm="tiering",
            epsilon=0.25,
            reward=-1.5,
            lookup_fraction=0.5,
            switched=True,
        )
        log.record("level_action", 1, level=1, delta=-1, k=2, sigma=0.1,
                   reward=-0.5)
        log.record("policy_commit", 2, arm="leveling",
                   arm_means={"leveling": 1e-5})
        text = format_decision_timeline(
            log, policy_history=["tiering", None, "leveling"]
        )
        assert "ε=0.250" in text and "switch" in text
        assert "ΔK=-1" in text and "σ=0.100" in text
        assert "commit: leveling=1.000e-05" in text
        # The store column cross-checks the engine's applied policy.
        assert "| tiering" in text

    def test_lerp_records_and_snapshots_audit(self, tmp_path):
        store = small_store(n_shards=1)
        audit = DecisionAuditLog()
        store.attach_audit(audit)
        run_small(store, n_missions=4)
        kinds = {e.kind for e in audit.events}
        assert "level_action" in kinds
        assert all(e.mission is not None for e in audit.events)
        # The log rides the tuner snapshot (persist round trip).
        path = str(tmp_path / "lerp.snap")
        save_tuner(store.tuner, path)
        restored = load_tuner(path)
        assert isinstance(restored, Lerp)
        assert restored.audit is not None
        assert len(restored.audit) == len(audit)
        assert restored.missions_observed == store.tuner.missions_observed

    def test_store_snapshot_carries_one_shared_audit(self, tmp_path):
        """A log attached through the store is one log: pickled once,
        restored as one instance on every tuner, and it keeps growing with
        every shard's decisions."""
        store = small_store(n_shards=2)
        audit = DecisionAuditLog()
        store.attach_audit(audit)
        run_small(store, n_missions=4)
        assert len(audit) > 0
        path = str(tmp_path / "store.ckpt")
        save_store(store, path)
        restored = load_store(path)
        assert restored.tuners[0] is not restored.tuners[1]
        assert restored.tuners[0].audit is restored.tuners[1].audit
        assert restored.audit is restored.tuners[0].audit
        assert len(restored.audit) == len(audit)
        workload = UniformWorkload(n_records=1500, lookup_fraction=0.5, seed=3)
        for mission in list(workload.missions(6, 200))[4:]:
            store.run_mission(mission)
            restored.run_mission(mission)
        assert len(restored.audit) == len(audit) > len(store.mission_log)
        # ...and a tuner saved on its own still carries the log.
        save_tuner(store.tuner, path)
        assert len(load_tuner(path).audit) == len(audit)

    def test_restart_reason_recorded(self):
        tuner = Lerp(SystemConfig(), LerpConfig())
        audit = DecisionAuditLog()
        tuner.attach_audit(audit)
        tuner.warm_start()
        (event,) = audit.filter("restart")
        assert event.data["reason"] == "warm_start"
        assert event.mission is None


# ======================================================================
# The view
# ======================================================================
#: The one field of a view read from the host clock.
WALL_FIELD = "total_model_update_s"


def cli_view(path, capsys) -> dict:
    """The JSON ``python -m repro.obs <path>`` prints."""
    from repro.obs.__main__ import main

    assert main([path]) == 0
    return json.loads(capsys.readouterr().out)


def as_json(view: dict) -> dict:
    """A live view as the CLI prints it, without the host-clock field."""
    view = json.loads(json.dumps(view))
    for tuner in view.get("tuners", ()):
        tuner.pop(WALL_FIELD, None)
    return view


def tree_bytes(root) -> dict:
    """Every file under ``root`` with its contents."""
    contents = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                contents[os.path.relpath(path, root)] = fh.read()
    return contents


class TestCollection:
    def test_engine_registry_matches_engine_state(self):
        """Each shard's record is its own ``view()``: the per-shard clocks
        fold, in shard order, to exactly the engine's clock."""
        store = run_small(small_store(tune=False))
        shards = telemetry_view(store.engine)["shards"]
        clock = sum(shard["clock_now"] for shard in shards)
        assert len(shards) == 2 and clock == store.engine.clock_now
        assert sum(s["total_entries"] for s in shards) == store.engine.total_entries

    def test_store_registry_includes_tuner_series(self):
        store = run_small(small_store())
        view = telemetry_view(store)
        assert [set(t) for t in view["tuners"]] == [
            {"restarts", "converged", WALL_FIELD}
        ] * 2
        assert view["missions_run"] == len(view["windows"]) == 4
        assert view["windows"][-1]["policies"] == store.policy_history[-1]
        json.dumps(view)  # plain JSON-able records

    def test_shared_audit_log_is_counted_once(self):
        store = small_store(n_shards=2)
        audit = DecisionAuditLog()
        store.attach_audit(audit)
        run_small(store)
        view = telemetry_view(store)
        assert len(view["audit"]) == len(audit) > 0
        # A tuner shared by both shards is one record too.
        shared = RusKey(n_shards=2, tuner=Lerp(SystemConfig(), LerpConfig()))
        assert len(telemetry_view(shared)["tuners"]) == 1

    def test_snapshot_timeline_prints_a_shared_log_once(self, tmp_path, capsys):
        """Two tuners restored from one store snapshot share one audit log:
        the CLI timeline has one row per event, not one per shard, and its
        store column is the snapshot's policy history."""
        from repro.obs.__main__ import main

        store = small_store(n_shards=2)
        audit = DecisionAuditLog()
        store.attach_audit(audit)
        run_small(store)
        path = str(tmp_path / "store.ckpt")
        save_store(store, path)
        assert main([path, "--timeline"]) == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert len(lines) - 2 == len(audit) > 0  # header and rule, then events
        size_ratio = store.config.size_ratio
        history = [classify_policies(p, size_ratio) for p in store.policy_history]
        assert text == format_decision_timeline(audit, history)

    @pytest.mark.parametrize("kind", ["engine", "store", "tuner"])
    def test_snapshot_view_equals_live_view(self, kind, tmp_path, capsys):
        """The view is never saved: the CLI reads it off the snapshotted
        objects, and it equals the live one (the host-clock field aside)."""
        store = small_store(cache_pages=64, n_shards=2)
        store.attach_audit(DecisionAuditLog())
        run_small(store)
        path = str(tmp_path / f"{kind}.ckpt")
        live = {"engine": store.engine, "store": store, "tuner": store.tuner}[kind]
        {"engine": save_engine, "store": save_store, "tuner": save_tuner}[kind](live, path)
        assert as_json(cli_view(path, capsys)) == as_json(telemetry_view(live))

    def test_snapshot_kind_without_a_view_is_refused(self, tmp_path, capsys):
        """Only engine / store / tuner snapshots have a view; any other kind
        (e.g. a file from when registries were saved as ``obs``) is an
        error, not an empty view."""
        from repro.obs.__main__ import main

        path = str(tmp_path / "old.ckpt")
        save_snapshot(path, "obs", {})
        assert main([path]) == 1
        assert "snapshot kind 'obs' has no view" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["durable", "durable-4", "store"])
    def test_durable_snapshot_is_refused_and_leaves_its_directory(
        self, kind, tiny_config, tmp_path, capsys
    ):
        """Restoring a durable snapshot installs it into its data directory,
        so the viewer refuses it before anything is unpickled: the files
        keep their names and bytes, and the live store's next acknowledged
        write survives a reopen."""
        from repro.obs.__main__ import main

        root = str(tmp_path / "data")
        name = "durable" if kind == "store" else kind
        engine = build(name, tiny_config, root)
        keys = np.arange(2000, dtype=np.int64)
        engine.put_batch(keys, keys * 2)
        path = str(tmp_path / "view.snap")
        if kind == "store":
            save_store(RusKey(tiny_config, engine=engine), path)
        else:
            save_engine(engine, path)
        before = tree_bytes(root)
        assert main([path]) == 1
        assert "reattaches its data directory" in capsys.readouterr().err
        assert tree_bytes(root) == before
        engine.put(1, 5)
        for tree in engine.tuning_targets():
            tree.close()
        reopened = build(name, tiny_config, root)
        assert reopened.get(1) == 5
        for tree in reopened.tuning_targets():
            tree.close()

    def test_switches_are_explained_by_the_audit(self, tmp_path, capsys):
        """North-star 4 from a store snapshot's JSON alone: every mission
        window whose policies differ from the previous window's has an
        audit event at that mission, the decision that made the switch."""
        store = small_store(n_shards=2)
        store.attach_audit(DecisionAuditLog())
        run_small(store, n_missions=30)
        path = str(tmp_path / "store.ckpt")
        save_store(store, path)
        view = cli_view(path, capsys)
        audited = {event["mission"] for event in view["audit"]}
        windows = view["windows"]
        switches = [
            w["index"]
            for prev, w in zip(windows, windows[1:])
            if w["policies"] != prev["policies"]
        ]
        assert switches and set(switches) <= audited

    @pytest.mark.parametrize("missions", ["0", "-3"])
    def test_demo_refuses_fewer_than_one_mission(self, missions, capsys):
        """``--missions`` below 1 is refused, not run as an empty demo."""
        from repro.obs.__main__ import main

        with pytest.raises(SystemExit) as exited:
            main(["--demo", "--missions", missions])
        assert exited.value.code == 2
        assert "--missions must be >= 1" in capsys.readouterr().err


# ======================================================================
# The zero-sim-impact twin (the subsystem's hard invariant)
# ======================================================================
def simulated_fingerprint(store) -> tuple:
    return store.view(), store.mission_log, store.policy_history


def stages_under(spans, name) -> set:
    """Stage names lapped on any span called ``name`` in the given trees."""
    found, pending = set(), list(spans)
    while pending:
        span = pending.pop()
        pending.extend(span.children)
        if span.name == name:
            found |= set(span.stages)
    return found


class TestZeroSimImpact:
    @pytest.mark.parametrize("initial_policy", [1, 10],
                             ids=["leveling", "tiering"])
    @pytest.mark.parametrize("cache_pages", [0, 64],
                             ids=["nocache", "cache"])
    def test_instrumented_twin_is_bit_identical(
        self, initial_policy, cache_pages
    ):
        """Metrics + tracing + audit on vs everything off: every simulated
        observable must match bit for bit (no SimClock charge, no RNG
        draw, no counter touched by any telemetry layer)."""
        def run(store):
            run_small(store)
            # Three consecutive roots: every-3rd sampling keeps one of them.
            for _ in range(3):
                store.range_scan_batch(np.array([10, 700]), np.array([90, 760]))
            return store

        bare = run(small_store(initial_policy, cache_pages))

        inst = small_store(initial_policy, cache_pages)
        # Every 3rd root: a mission is one root (its chunks' puts nest
        # under it), and the three scans after them are one each.
        tracer = Tracer(sample_every=3)
        inst.engine.set_tracer(tracer)
        audit = DecisionAuditLog()
        inst.attach_audit(audit)
        run(inst)
        telemetry_view(inst)  # the view reads, never mutates

        assert simulated_fingerprint(bare) == simulated_fingerprint(inst)
        assert len(audit) > 0
        # The laps were taken: the twin ran the instrumented path.
        spans = tracer.spans()
        assert stages_under(spans, "store.run_chunks") == {"chunks", *PLAN_STAGES}
        assert stages_under(spans, "store.range_scan_batch") == set(RANGE_STAGES)

    def test_detach_restores_bare_path(self):
        store = small_store(tune=False)
        tracer = Tracer()
        store.engine.set_tracer(tracer)
        store.engine.set_tracer(None)
        run_small(store)
        assert tracer.roots_seen == 0


# ======================================================================
# Serving integration
# ======================================================================
class TestServeTracing:
    def test_server_emits_nested_serve_spans(self):
        from repro.serve.server import KVServer
        from repro.serve.loadgen import LoadSpec, run_load

        store = small_store(tune=False, n_shards=2)
        keys = np.arange(2000, dtype=np.int64)
        store.bulk_load(keys, keys)
        tracer = Tracer()
        server = KVServer(store.engine, max_batch=64, tracer=tracer)
        workload = UniformWorkload(n_records=2000, lookup_fraction=0.5, seed=5)
        spec = LoadSpec(
            workload=workload, n_ops=800,
            n_clients=1, closed_loop=True, mission_size=200, seed=5,
        )
        server.start()
        try:
            run_load(server, spec)
        finally:
            server.stop()
        roots = tracer.spans()
        assert roots, "no serve spans were recorded"
        assert {r.name for r in roots} == {"serve.batch"}
        child_names = {c.name for r in roots for c in r.children}
        assert any(
            name.startswith(("lsm.", "store.")) for name in child_names
        ), child_names
        # The view's lane records add up to what the server completed.
        lanes = json.loads(json.dumps(telemetry_view(server)))["lanes"]
        completed = sum(lane["completed"] for lane in lanes)
        assert completed == server.total_completed > 0
        assert sum(lane["latency"]["count"] for lane in lanes) == completed

