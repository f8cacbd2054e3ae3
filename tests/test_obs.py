"""Tests for the telemetry subsystem (repro.obs, DESIGN.md §12).

Covers the metrics registry (registration guards, label cardinality,
Prometheus/JSON exposition, and a byte-for-byte golden of both renders of
a store view), span tracing (nesting, deterministic sampling, stage laps),
the RL decision audit log (recording, timeline rendering, persistence
through tuner and store snapshots), and — the subsystem's hard invariant —
the **zero-sim-impact twin**: a run with every telemetry layer enabled is
bit-identical in all simulated observables to the same run without.
"""

import json
import os

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.lerp import Lerp, LerpConfig
from repro.core.ruskey import RusKey
from repro.core.tuners import StaticTuner
from repro.errors import ObsError
from repro.lsm.rangepath import RANGE_STAGES
from repro.lsm.tree import LSMTree
from repro.obs import (
    DecisionAuditLog,
    MetricsRegistry,
    Tracer,
    collect_engine_metrics,
    collect_server_metrics,
    collect_store_metrics,
    collect_tuner_metrics,
    format_decision_timeline,
)
from repro.obs.metrics import MAX_SERIES
from repro.persist import (
    load_store,
    load_tuner,
    save_engine,
    save_snapshot,
    save_store,
    save_tuner,
)
from repro.serve.latency import LatencyHistogram
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


def family_total(registry, name: str) -> float:
    """Sum of a counter / gauge family's series."""
    return sum(series.value for _, series in registry.get(name).series())


# ======================================================================
# Metrics registry
# ======================================================================
class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "requests served")
        requests.labels().inc()
        requests.labels().inc(2.0)
        depth = registry.gauge("queue_depth")
        depth.labels().set(7.0)
        lat = registry.histogram("latency_seconds")
        lat.labels().record(0.25)
        families = registry.as_dict()["families"]
        assert families["requests_total"]["series"][0]["value"] == 3.0
        assert families["queue_depth"]["series"][0]["value"] == 7.0
        assert families["latency_seconds"]["series"][0]["count"] == 1

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        family = registry.counter("c")
        with pytest.raises(ObsError):
            family.labels().inc(-1.0)

    def test_registration_is_idempotent_and_shape_checked(self):
        registry = MetricsRegistry()
        a = registry.counter("ops", labels=("shard",))
        assert registry.counter("ops", labels=("shard",)) is a
        with pytest.raises(ObsError):
            registry.gauge("ops", labels=("shard",))
        with pytest.raises(ObsError):
            registry.counter("ops", labels=("shard", "tenant"))

    def test_label_names_must_match_exactly(self):
        registry = MetricsRegistry()
        family = registry.counter("ops", labels=("shard", "tenant"))
        family.labels(shard="0", tenant="a").inc()
        with pytest.raises(ObsError):
            family.labels(shard="0")
        with pytest.raises(ObsError):
            family.labels(shard="0", tenant="a", extra="x")

    def test_cardinality_guard(self):
        registry = MetricsRegistry()
        family = registry.counter("ops", labels=("key",))
        for i in range(MAX_SERIES):
            family.labels(key=str(i)).inc()
        with pytest.raises(ObsError, match="series budget"):
            family.labels(key="overflow")
        # Existing series stay reachable after the guard trips.
        family.labels(key="0").inc()

    def test_prometheus_exposition_escapes_and_accumulates(self):
        registry = MetricsRegistry()
        family = registry.gauge("g", "help text", labels=("name",))
        family.labels(name='with"quote\\and\nnewline').set(1.5)
        registry.histogram("h").labels().record_many([0.001, 0.01, 0.01])
        lines = registry.render("prometheus").splitlines()
        assert "# TYPE g gauge" in lines and "# TYPE h histogram" in lines
        assert 'g{name="with\\"quote\\\\and\\nnewline"} 1.5' in lines
        # Cumulative buckets: one per non-empty bucket, then +Inf = count.
        buckets = [line for line in lines if line.startswith("h_bucket")]
        assert [b.rsplit(" ", 1)[1] for b in buckets] == ["1", "3", "3"]
        assert buckets[-1] == 'h_bucket{le="+Inf"} 3'
        assert "h_count 3" in lines

    def test_histogram_series_is_a_latency_histogram(self):
        """A histogram family's series is the serving layer's histogram
        itself: a lane histogram merges in and its quantiles read back."""
        registry = MetricsRegistry()
        series = registry.histogram("h").labels()
        assert type(series) is LatencyHistogram
        lane = LatencyHistogram()
        lane.record_many([1e-3] * 20)
        series.merge(lane)
        assert series.count == 20
        assert series.quantile(0.5) == lane.quantile(0.5)
        (row,) = registry.as_dict()["families"]["h"]["series"]
        assert row["count"] == 20


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
        tuner.reset()
        (event,) = audit.filter("restart")
        assert event.data["reason"] == "reset"
        assert event.mission is None


# ======================================================================
# Collection
# ======================================================================
class TestCollection:
    def test_engine_registry_matches_engine_state(self):
        store = run_small(small_store(tune=False))
        registry = collect_engine_metrics(store.engine)
        clock = family_total(registry, "repro_sim_clock_seconds")
        assert clock == pytest.approx(store.engine.clock_now, rel=0, abs=0)
        entries = family_total(registry, "repro_engine_entries")
        assert int(entries) == store.engine.total_entries

    def test_store_registry_includes_tuner_series(self):
        store = run_small(small_store())
        registry = collect_store_metrics(store)
        text = registry.render("prometheus")
        assert "repro_tuner_model_seconds" in text
        assert "repro_store_missions 4" in text

    def test_shared_audit_log_is_counted_once(self):
        store = small_store(n_shards=2)
        audit = DecisionAuditLog()
        store.attach_audit(audit)
        run_small(store)
        events = family_total(
            collect_store_metrics(store), "repro_tuner_audit_events"
        )
        assert events == len(audit) > 0

    def test_snapshot_timeline_prints_a_shared_log_once(self, tmp_path, capsys):
        """Two tuners restored from one store snapshot share one audit log:
        the CLI timeline has one row per event, not one per shard."""
        from repro.obs.__main__ import main

        store = small_store(n_shards=2)
        audit = DecisionAuditLog()
        store.attach_audit(audit)
        run_small(store)
        path = str(tmp_path / "store.ckpt")
        save_store(store, path)
        assert main([path, "--timeline"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) - 2 == len(audit) > 0  # header and rule, then events

    @pytest.mark.parametrize("kind", ["engine", "store", "tuner"])
    def test_snapshot_view_equals_live_view(self, kind, tmp_path, capsys):
        """The registry is never saved: the CLI rebuilds the snapshotted
        objects and collects them, and that view equals the live one (the
        host-clock family aside)."""
        from repro.obs.__main__ import main

        store = small_store(cache_pages=64, n_shards=2)
        store.attach_audit(DecisionAuditLog())
        run_small(store)
        path = str(tmp_path / f"{kind}.ckpt")
        if kind == "engine":
            save_engine(store.engine, path)
            live = collect_engine_metrics(store.engine)
        elif kind == "store":
            save_store(store, path)
            live = collect_store_metrics(store)
        else:
            save_tuner(store.tuner, path)
            live = collect_tuner_metrics([store.tuner])
        assert main([path, "--format", "json"]) == 0
        restored = json.loads(capsys.readouterr().out)["families"]
        want = live.as_dict()["families"]
        for view in (restored, want):
            view.pop(WALL_FAMILY, None)
        assert restored == want

    def test_snapshot_kind_without_a_view_is_refused(self, tmp_path, capsys):
        """Only engine / store / tuner snapshots have a view; any other kind
        (e.g. a file from when registries were saved as ``obs``) is an
        error, not an empty registry."""
        from repro.obs.__main__ import main

        path = str(tmp_path / "old.ckpt")
        save_snapshot(path, "obs", {})
        assert main([path]) == 1
        assert "snapshot kind 'obs' has no registry view" in capsys.readouterr().err

    def test_server_collection_survives_a_tenant_added_mid_read(self):
        """A lane worker may register a tenant while the collector walks the
        lane's histograms; the collector reads a snapshot of the dict."""
        from types import SimpleNamespace

        class Intruding(LatencyHistogram):
            """A tenant's histogram whose bucket read registers a new tenant
            on the lane, as its worker can between two collector steps."""

            def __init__(self, lane):
                self._lane = None
                super().__init__()
                self.record_many([1e-3, 2e-3, 4e-3])
                self._lane = lane  # from here on, every read intrudes

            @property
            def counts(self):
                if self._lane is not None:
                    self._lane.histograms.setdefault("late", LatencyHistogram())
                return self._counts

            @counts.setter
            def counts(self, value):
                self._counts = value

        lane = SimpleNamespace(completed=3, rejected=0, histograms={})
        lane.histograms["early"] = Intruding(lane)
        server = SimpleNamespace(engine=LSMTree(SystemConfig()), lanes=[lane])
        view = collect_server_metrics(server).as_dict()["families"]
        (early,) = view["repro_serve_latency_seconds"]["series"]
        assert early["labels"] == {"shard": "0", "tenant": "early"}
        assert early["count"] == 3
        assert "late" in lane.histograms


# ======================================================================
# Exposition golden: the rendered view of a fixed run, byte for byte
# ======================================================================
GOLDEN_PATHS = {
    fmt: os.path.join(os.path.dirname(__file__), "data", f"obs_golden.{ext}")
    for fmt, ext in (("prometheus", "prom"), ("json", "json"))
}

#: The one family of a store view read from the host clock.
WALL_FAMILY = "repro_tuner_model_seconds"

#: Fixed histogram inputs: six values (the scalar ``record_many`` body, two
#: of them outside the bucket range) and forty (the vectorized body), all
#: exact binary fractions so every sum is exact.
GOLDEN_HISTOGRAM = {
    "scalar": [1e-9, 2.0**-12, 2.0**-10, 2.0**-10, 0.125, 5e3],
    "vector": [2.0 ** (k - 20) for k in range(40)],
}


def golden_renders() -> dict:
    """Both renders of ``collect_store_metrics`` on a 2-shard Lerp run
    (seed 3, cache on, one shared audit log), plus one registry histogram
    fed fixed values, with the wall-clock family left out."""
    store = small_store(cache_pages=64, n_shards=2)
    store.attach_audit(DecisionAuditLog())
    registry = collect_store_metrics(run_small(store, n_missions=6))
    family = registry.histogram(
        "repro_golden_seconds", "fixed inputs", labels=("path",)
    )
    for path, values in GOLDEN_HISTOGRAM.items():
        family.labels(path=path).record_many(values)
    prom = "".join(
        line
        for line in registry.render("prometheus").splitlines(keepends=True)
        if WALL_FAMILY not in line
    )
    doc = json.loads(registry.render("json"))
    del doc["families"][WALL_FAMILY]
    return {
        "prometheus": prom,
        "json": json.dumps(doc, indent=2, sort_keys=True) + "\n",
    }


@pytest.mark.parametrize("fmt", sorted(GOLDEN_PATHS))
def test_exposition_golden(fmt):
    """Recorded at commit cb21891, before the registry lost its merge,
    persistence and histogram wrapper: a change to the registry's shape
    passes this unchanged or it changed a rendered line."""
    with open(GOLDEN_PATHS[fmt], encoding="utf-8") as handle:
        want = handle.read()
    assert golden_renders()[fmt] == want


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
        # Every 3rd root: a mission's roots alternate put / get, so an
        # even stride would keep only the puts.
        tracer = Tracer(sample_every=3)
        inst.engine.set_tracer(tracer)
        audit = DecisionAuditLog()
        inst.attach_audit(audit)
        run(inst)
        collect_store_metrics(inst)  # collection reads, never mutates

        assert simulated_fingerprint(bare) == simulated_fingerprint(inst)
        assert len(audit) > 0
        # The laps were taken: the twin ran the instrumented path.
        spans = tracer.spans()
        assert stages_under(spans, "lsm.get_batch") == {
            "memtable", "search", "bloom", "cache"
        }
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
        from repro.serve.loadgen import TenantSpec, run_load

        store = small_store(tune=False, n_shards=2)
        keys = np.arange(2000, dtype=np.int64)
        store.bulk_load(keys, keys)
        tracer = Tracer()
        server = KVServer(store.engine, max_batch=64, tracer=tracer)
        workload = UniformWorkload(n_records=2000, lookup_fraction=0.5, seed=5)
        tenant = TenantSpec(
            name="t", workload=workload, n_ops=800,
            n_clients=1, closed_loop=True, mission_size=200, seed=5,
        )
        server.start()
        try:
            run_load(server, [tenant])
        finally:
            server.stop()
        roots = tracer.spans()
        assert roots, "no serve spans were recorded"
        assert {r.name for r in roots} == {"serve.batch"}
        child_names = {c.name for r in roots for c in r.children}
        assert any(
            name.startswith(("lsm.", "store.")) for name in child_names
        ), child_names


if __name__ == "__main__":  # re-record: PYTHONPATH=src python tests/test_obs.py
    for fmt, text in golden_renders().items():
        with open(GOLDEN_PATHS[fmt], "w", encoding="utf-8") as handle:
            handle.write(text)
