"""Tests for the concurrent serving subsystem (repro.serve).

Covers write order within a batch, admission control, the hand-off, lane and
tuner failure, load generation, the live tuning loop, stop / restart and the
CLI. Served results, routing, refusals, checkpoints and simulated costs are
the differential oracle's ``served-4`` system (tests/test_oracle.py).
"""

import dataclasses
import os
import sys
import threading
import time
from unittest.mock import Mock

import numpy as np
import pytest

from repro.bench import bench_scale
from repro.config import SystemConfig
from repro.core.lerp import Lerp, LerpConfig
from repro.core.tuners import StaticTuner, Tuner
from repro.engine.sharded import ShardedStore, shard_of_key
from repro.errors import ConfigError, ServeError
from repro.lsm import TOMBSTONE, FLSMTree
from repro.serve import (
    REQ_DELETE,
    REQ_GET,
    REQ_PUT,
    REQ_RANGE,
    ClosedLoopClient,
    KVServer,
    Request,
    TenantSpec,
    request_stream,
    requests_from_mission,
    run_load,
)
from repro.serve.loadgen import _reseeded
from repro.serve.server import _Mailbox
from repro.workload.dynamic import paper_dynamic_workload
from repro.workload.spec import OP_LOOKUP, OP_RANGE, OP_UPDATE, Mission
from repro.workload.uniform import UniformWorkload


def serve_config(seed=7, buffer_kib=32):
    return SystemConfig(
        size_ratio=10,
        entry_bytes=1024,
        page_bytes=4096,
        write_buffer_bytes=buffer_kib * 1024,
        bits_per_key=8.0,
        seed=seed,
    )


def loaded_store(n_shards=2, n_records=4_000, seed=7):
    store = ShardedStore(serve_config(seed), n_shards)
    workload = UniformWorkload(n_records, lookup_fraction=0.5, seed=seed)
    store.bulk_load(*workload.load_records())
    return store, workload


def await_result(server, request, timeout=10.0):
    assert server.submit(request, timeout=timeout)
    assert request.done.wait(timeout=timeout)
    return request.result


class TestRequestRouting:
    @pytest.mark.parametrize(
        "block, calls, expected",
        [
            (
                [(REQ_PUT, 42, 1), (REQ_DELETE, 42, 0), (REQ_PUT, 42, 2), (REQ_DELETE, 7, 0)],
                [("put", 1), ("delete", 1), ("put", 1), ("delete", 1)],
                {42: 2, 7: None},
            ),
            (   # PUT a, PUT b, DEL a, DEL c, PUT a: three runs, three calls
                [(REQ_PUT, 1, 10), (REQ_PUT, 2, 20), (REQ_DELETE, 1, 0),
                 (REQ_DELETE, 3, 0), (REQ_PUT, 1, 11)],
                [("put", 2), ("delete", 2), ("put", 1)],
                {1: 11, 2: 20, 3: None},
            ),
        ],
        ids=["alternating", "runs"],
    )
    def test_delete_then_put_in_one_batch_keeps_put(self, block, calls, expected):
        """Puts and deletes preserve their relative submission order
        within a drained batch — DELETE(k) → PUT(k, v) leaves v live —
        and each run of consecutive same-kind writes is one engine call."""
        store, _ = loaded_store(n_shards=1)
        server = KVServer(store, max_batch=64)
        lane = server.lanes[0]
        made = []
        put_batch, delete_batch = lane.tree.put_batch, lane.tree.delete_batch
        lane.tree.put_batch = lambda k, v: (made.append(("put", len(k))), put_batch(k, v))
        lane.tree.delete_batch = lambda k: (made.append(("delete", len(k))), delete_batch(k))
        lane.queue.open()  # enqueue without workers: one exact batch
        for kind, key, value in block:
            server.submit(Request(kind, key, value=value))
        batch = lane.queue.take(64, timeout=0.0)
        assert len(batch) == len(block)
        server._serve_batch(lane, batch)
        assert made == calls
        assert {key: store.get(key) for key in expected} == expected

    def test_single_tree_engine_gets_one_lane(self):
        tree = FLSMTree(serve_config())
        with KVServer(tree) as server:
            assert server.n_lanes == 1
            await_result(server, Request(REQ_PUT, 5, value=55, wait=True))
            assert await_result(server, Request(REQ_GET, 5, wait=True)) == 55

    def test_submit_requires_running_server(self):
        store, _ = loaded_store()
        server = KVServer(store)
        with pytest.raises(ServeError):
            server.submit(Request(REQ_GET, 1))
        with pytest.raises(ServeError):
            server.try_submit(Request(REQ_GET, 1))

    def test_start_twice_rejected(self):
        store, _ = loaded_store()
        with KVServer(store) as server, pytest.raises(ServeError):
            server.start()

    def test_config_validation(self):
        store, _ = loaded_store()
        with pytest.raises(ConfigError):
            KVServer(store, queue_capacity=0)
        with pytest.raises(ConfigError):
            KVServer(store, max_batch=0)
        with pytest.raises(ConfigError):
            KVServer(store, window_ops=-1)
        with pytest.raises(ConfigError):
            KVServer(store, tuners=[StaticTuner(1)])  # 1 tuner, 2 lanes


class TestAdmissionControl:
    def test_try_submit_drops_when_queue_full(self):
        store, _ = loaded_store(n_shards=1)
        server = KVServer(store, queue_capacity=4, max_batch=4)
        # Not started: fill the lane queue directly to model a stalled lane.
        lane = server.lanes[0]
        lane.queue.open()
        accepted = rejected = 0
        for key in range(50):
            if server.try_submit(Request(REQ_GET, key)):
                accepted += 1
            else:
                rejected += 1
        assert accepted == 4  # bounded queue
        assert rejected == 46
        assert server.total_rejected == 46
        assert len(lane.queue.items) == 4

    def test_submit_blocks_until_capacity_or_timeout(self):
        store, _ = loaded_store(n_shards=1)
        server = KVServer(store, queue_capacity=2)
        server.lanes[0].queue.open()  # no workers: queue never drains
        assert server.submit(Request(REQ_PUT, 1, value=1))
        assert server.submit(Request(REQ_PUT, 2, value=2))
        started = time.perf_counter()
        assert not server.submit(Request(REQ_PUT, 3, value=3), timeout=0.05)
        assert time.perf_counter() - started >= 0.05
        assert server.total_rejected == 1

    def test_queue_depth_metrics(self):
        store, workload = loaded_store(n_shards=2)
        with KVServer(store, max_batch=16) as server:
            for request in request_stream(workload, 500, tenant="t"):
                server.submit(request, timeout=5.0)
            deadline = time.time() + 10.0
            while server.total_completed < 500 and time.time() < deadline:
                time.sleep(0.005)
        assert server.total_completed == 500
        assert server.max_queue_depth() >= 0
        assert server.mean_queue_depth() >= 0.0
        assert [len(lane.queue.items) for lane in server.lanes] == [0, 0]


class TestHandOff:
    def test_concurrent_producers_bounded_fifo_exactly_once(self):
        """Four producers race one worker through an 8-slot mailbox: the
        bound holds at every probe, every request is served exactly once,
        and each producer's requests are served in its submission order."""
        store, _ = loaded_store(n_shards=1)
        server = KVServer(store, queue_capacity=8, max_batch=4)
        lane = server.lanes[0]
        served, depths = [], []
        real_get_batch = lane.tree.get_batch

        def probing_get_batch(keys):
            depths.append(len(lane.queue.items))
            served.extend(keys.tolist())
            return real_get_batch(keys)

        lane.tree.get_batch = probing_get_batch
        n_producers, per_producer = 4, 5_000

        def produce(producer):
            for i in range(per_producer):
                key = producer * per_producer + i
                assert server.submit(Request(REQ_GET, key), timeout=30.0)
                depths.append(len(lane.queue.items))

        threads = [
            threading.Thread(target=produce, args=(p,)) for p in range(n_producers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # provoke interleavings
        try:
            server.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            server.stop()
        finally:
            sys.setswitchinterval(interval)
        assert max(depths) <= 8 and lane.depth_max <= 8
        assert server.total_completed == n_producers * per_producer
        assert sorted(served) == list(range(n_producers * per_producer))
        for producer in range(n_producers):
            own = [k for k in served if k // per_producer == producer]
            assert own == sorted(own)

    def test_take_caps_the_block_and_keeps_order(self):
        box = _Mailbox(capacity=1_024)
        box.open()
        items = [Request(REQ_GET, key) for key in range(700)]
        for item in items:
            assert box.put(item)
        assert box.take(512, timeout=0.0) == items[:512]
        assert len(box.items) == 188
        assert box.take(512, timeout=0.0) == items[512:]
        assert box.take(512, timeout=0.0) == []
        box.close(drain=True)
        assert box.take(512, timeout=0.0) is None

    def test_per_tenant_histograms_account_for_every_request(self):
        store, workload = loaded_store(n_shards=2)
        streams = {
            "a": list(request_stream(workload, 700, tenant="a")),
            "b": list(request_stream(workload, 300, tenant="b")),
        }
        mixed = [
            request
            for pair in zip(streams["a"], streams["b"] + [None] * 400)
            for request in pair
            if request is not None
        ]
        with KVServer(store, max_batch=64) as server:
            for request in mixed:
                assert server.submit(request, timeout=10.0)
        assert server.total_completed == 1_000
        for tenant, stream in streams.items():
            assert server.histogram(tenant).count == len(stream)
        assert server.histogram().sum == pytest.approx(
            sum(r.t_done - r.t_submit for r in mixed), abs=1e-9
        )


class TestLaneFailure:
    def test_failed_batch_releases_waiters_and_surfaces_the_error(self):
        """A batch that raises must not hang anyone: its waiter, the
        requests queued behind it and a producer blocked on the full
        mailbox are all released with the error; the lane refuses further
        requests; the other lane keeps serving; stop() returns and
        reports."""
        store, _ = loaded_store(n_shards=2)
        server = KVServer(store, queue_capacity=2).start()
        bad, good = server.lanes
        keys = [k for k in range(100) if shard_of_key(k, 2) == bad.index]
        boom = RuntimeError("engine fault")
        entered, release = threading.Event(), threading.Event()

        def failing_get_batch(_keys):
            entered.set()
            assert release.wait(10.0)
            raise boom

        bad.tree.get_batch = failing_get_batch
        first = Request(REQ_GET, keys[0], wait=True)
        assert server.submit(first, timeout=5.0)
        assert entered.wait(5.0)  # the worker holds `first`, mailbox empty
        queued = [Request(REQ_GET, k, wait=True) for k in keys[1:3]]
        for request in queued:
            assert server.submit(request, timeout=5.0)  # mailbox now full
        blocked = []

        def blocked_producer():
            try:
                server.submit(Request(REQ_GET, keys[3]))  # no timeout
            except ServeError as exc:
                blocked.append(exc)

        producer = threading.Thread(target=blocked_producer)
        producer.start()
        time.sleep(0.05)  # let it block (it must raise either way)
        release.set()

        for request in [first] + queued:
            assert request.done.wait(5.0), "waiter left hanging"
            assert request.error is boom
        producer.join(timeout=5.0)
        assert not producer.is_alive()
        assert len(blocked) == 1 and blocked[0].__cause__ is boom
        for admit in (server.submit, server.try_submit):
            with pytest.raises(ServeError) as raised:
                admit(Request(REQ_GET, keys[4]))
            assert raised.value.__cause__ is boom
        other = next(k for k in range(100) if shard_of_key(k, 2) == good.index)
        assert await_result(server, Request(REQ_GET, other, wait=True)) == (
            store.get(other)
        )

        stopped = []

        def stop():
            try:
                server.stop()
            except ServeError as exc:
                stopped.append(exc)

        stopper = threading.Thread(target=stop)
        stopper.start()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive(), "stop() hung on the failed lane"
        assert len(stopped) == 1 and stopped[0].__cause__ is boom
        assert bad.completed == 0  # failed requests are not completions

    def test_raising_tuner_ends_tuning_not_serving(self, tmp_path):
        """A tuner that raises inside a window cut is recorded, not lost:
        its lane's window reopens and every lane serves on under its
        current policies, tuning stops, ``checkpoint`` refuses and
        ``stop`` closes the final window, then raises the cause."""
        boom = RuntimeError("tuner fault")

        class FailsOnSecondCall(Tuner):
            calls = 0

            def observe_mission(self, tree, mission):
                self.calls += 1
                if self.calls == 2:
                    raise boom

        store, _ = loaded_store(n_shards=2)
        tuners = [FailsOnSecondCall(), FailsOnSecondCall()]
        server = KVServer(store, tuners=tuners, window_ops=50).start()

        def serve(n):
            for key in range(n):
                await_result(server, Request(REQ_PUT, key, value=key, wait=True), 5.0)

        def wait_for(condition):
            deadline = time.perf_counter() + 5.0
            while not condition():
                assert time.perf_counter() < deadline, "tuning loop stalled"
                time.sleep(0.005)

        serve(60)
        wait_for(lambda: len(server.windows) == 1)  # both tuners: call 1
        serve(60)  # window 2: lane 0's tuner raises, lane 1's is not asked
        server._tuning_thread.join(timeout=5.0)
        assert not server._tuning_thread.is_alive()
        assert [t.calls for t in tuners] == [2, 1]
        # The failing cut was still made on every lane and recorded, and
        # every lane's next window is open.
        assert len(server.windows) == 2
        assert all(lane.tree.stats.in_mission for lane in server.lanes)

        serve(60)  # untuned, but served
        assert server.total_completed == 180 and len(server.windows) == 2
        with pytest.raises(ServeError) as refused:
            server.checkpoint(str(tmp_path / "live.snap"))
        assert refused.value.__cause__ is boom
        with pytest.raises(ServeError) as stopped:
            server.stop()
        assert stopped.value.__cause__ is boom
        # stop() closed the final window before raising: nothing is left
        # open and every served op is in exactly one window.
        assert not any(lane.tree.stats.in_mission for lane in server.lanes)
        assert sum(w.stats.n_operations for w in server.windows) == 180

    def test_failed_window_cut_ends_tuning_and_is_raised(self, tmp_path):
        """What a window cut raises outside the tuner — here lane 0's
        ``end_mission``, once — is recorded like a tuner's failure, not
        lost with the thread: tuning stops, the lanes serve on,
        ``checkpoint`` refuses and ``stop`` closes the window, then raises
        the cause."""
        boom = RuntimeError("end_mission fault")
        store, _ = loaded_store(n_shards=2)
        server = KVServer(store, tuners=[StaticTuner(1), StaticTuner(1)], window_ops=50)
        tree = server.lanes[0].tree
        real_end_mission, calls = tree.end_mission, []

        def end_mission():
            calls.append(1)
            if len(calls) == 1:
                raise boom
            return real_end_mission()

        tree.end_mission = end_mission
        server.start()

        def serve(n):
            for key in range(n):
                await_result(server, Request(REQ_PUT, key, value=key, wait=True), 5.0)

        serve(60)
        server._tuning_thread.join(timeout=5.0)
        assert not server._tuning_thread.is_alive()
        assert server._tuning_error is boom and server.windows == []
        serve(60)  # untuned, but served
        assert server.total_completed == 120
        with pytest.raises(ServeError) as refused:
            server.checkpoint(str(tmp_path / "live.snap"))
        assert refused.value.__cause__ is boom
        with pytest.raises(ServeError) as stopped:
            server.stop()
        assert stopped.value.__cause__ is boom
        assert not any(lane.tree.stats.in_mission for lane in server.lanes)
        assert sum(w.stats.n_operations for w in server.windows) == 120

    def test_failed_cut_on_a_later_lane_keeps_the_parts_cut_before_it(self):
        """Lane 1 of 2 raising in ``end_mission`` ends that window cut after
        lane 0's part: the part is recorded before the error propagates, so
        every served op is still in exactly one window."""
        boom = RuntimeError("end_mission fault")
        store, _ = loaded_store(n_shards=2)
        server = KVServer(store, tuners=[StaticTuner(1), StaticTuner(1)], window_ops=50)
        tree = server.lanes[1].tree
        real_end_mission, calls = tree.end_mission, []

        def end_mission():
            calls.append(1)
            if len(calls) == 1:
                raise boom
            return real_end_mission()

        tree.end_mission = end_mission
        server.start()
        for key in range(60):
            await_result(server, Request(REQ_PUT, key, value=key, wait=True), 5.0)
        server._tuning_thread.join(timeout=5.0)
        assert server._tuning_error is boom
        assert [len(w.parts) for w in server.windows] == [1]
        for key in range(60, 120):
            await_result(server, Request(REQ_PUT, key, value=key, wait=True), 5.0)
        with pytest.raises(ServeError) as stopped:
            server.stop()
        assert stopped.value.__cause__ is boom
        assert server.total_completed == 120
        assert sum(w.stats.n_operations for w in server.windows) == 120


    def test_run_load_stops_at_a_failed_lane(self, monkeypatch):
        """A lane failing under load stops its open- and closed-loop clients
        (none dies unhandled), and ``run_load`` raises at once, chained to
        the cause, instead of waiting out ``drain_timeout``."""
        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        store, workload = loaded_store(n_shards=2)
        server = KVServer(store).start()
        boom = RuntimeError("engine fault")
        server.lanes[0].tree.get_batch = Mock(side_effect=boom)
        tenants = [
            TenantSpec(name="open", workload=workload, n_ops=2_000, rate=50_000.0, seed=1),
            TenantSpec(name="closed", workload=workload, n_ops=300, n_clients=2, closed_loop=True),
        ]
        started = time.perf_counter()
        with pytest.raises(ServeError) as raised:
            run_load(server, tenants)
        assert time.perf_counter() - started < 2.0
        assert raised.value.__cause__ is boom
        assert unhandled == []
        with pytest.raises(ServeError):
            server.stop()


class TestLoadGeneration:
    def test_open_loop_replays_every_op_when_underloaded(self):
        store, workload = loaded_store(n_shards=2)
        with KVServer(store) as server:
            report = run_load(
                server,
                [
                    TenantSpec(
                        name="uniform",
                        workload=workload,
                        n_ops=2_000,
                        rate=50_000.0,
                        seed=3,
                    )
                ],
            )
        assert report.offered == 2_000
        assert report.dropped == 0
        assert report.completed == 2_000
        assert report.histogram.count == 2_000
        assert report.throughput > 0
        assert 0.0 <= report.drop_fraction <= 1.0

    def test_closed_loop_completes_all(self):
        store, workload = loaded_store(n_shards=2)
        with KVServer(store, max_batch=8) as server:
            report = run_load(
                server,
                [
                    TenantSpec(
                        name="sync",
                        workload=workload,
                        n_ops=300,
                        n_clients=3,
                        closed_loop=True,
                        seed=5,
                    )
                ],
            )
        assert report.dropped == 0
        assert report.completed == report.offered
        # Closed-loop latency excludes no queueing: every request was
        # submitted, served and awaited.
        assert report.histogram.count == report.completed

    def test_closed_loop_counts_a_timed_out_wait_and_moves_on(self):
        """A request still unserved when the client's wait times out is
        counted, and the client goes on to its next request."""
        store, workload = loaded_store(n_shards=1)
        with KVServer(store) as server:
            client = ClosedLoopClient(
                server, request_stream(workload, 2, wait=True), timeout=0.5
            )
            with server.lanes[0].lock:  # the worker cannot serve the first request
                client.start()
                deadline = time.perf_counter() + 10.0
                while client.result.timed_out == 0 and time.perf_counter() < deadline:
                    time.sleep(0.005)
            client.join(timeout=10.0)
        assert not client.is_alive()
        assert client.result.timed_out == 1
        assert client.result.accepted == client.result.offered == 2

    def test_multi_tenant_mix_reports_per_tenant_tails(self):
        store, workload = loaded_store(n_shards=2)
        zipf_like = UniformWorkload(4_000, lookup_fraction=0.1, seed=31)
        with KVServer(store) as server:
            report = run_load(
                server,
                [
                    TenantSpec(
                        name="readers",
                        workload=workload,
                        n_ops=1_000,
                        rate=30_000.0,
                        seed=1,
                    ),
                    TenantSpec(
                        name="writers",
                        workload=zipf_like,
                        n_ops=800,
                        rate=20_000.0,
                        n_clients=2,
                        seed=2,
                    ),
                ],
            )
        assert set(report.tenant_histograms) == {"readers", "writers"}
        assert report.tenant_histograms["readers"].count == 1_000
        assert report.tenant_histograms["writers"].count == 800
        merged = report.histogram
        assert merged.count == 1_800
        # The merged histogram is exactly the tenant histograms combined.
        assert merged.count == sum(
            h.count for h in report.tenant_histograms.values()
        )

    def test_client_split_offers_exact_op_count(self):
        """n_ops splits exactly across clients even when not divisible."""
        store, workload = loaded_store(n_shards=2)
        with KVServer(store) as server:
            report = run_load(
                server,
                [
                    TenantSpec(
                        name="t",
                        workload=workload,
                        n_ops=1_000,
                        rate=50_000.0,
                        n_clients=3,
                        seed=7,
                    )
                ],
            )
        assert report.offered == 1_000
        assert report.completed == 1_000

    def test_request_stream_advances_through_missions(self):
        workload = UniformWorkload(1_000, lookup_fraction=0.5, seed=9)
        stream = list(request_stream(workload, 250, mission_size=100))
        assert len(stream) == 250
        # Mission boundaries must not reset the generator: the stream is
        # what one missions() iterator yields, flattened.
        missions = list(workload.missions(3, 100))
        expected_keys = [int(k) for m in missions for k in m.keys][:250]
        assert [r.key for r in stream] == expected_keys

    @pytest.mark.parametrize(
        "workload",
        [UniformWorkload(1_000, lookup_fraction=0.5, seed=0), paper_dynamic_workload(1_000, 1)],
        ids=["uniform", "dynamic"],
    )
    def test_each_client_replays_its_own_stream(self, workload):
        """``run_load`` reseeds client ``c`` by ``101 * c`` (at tenant seed
        0): client 0 replays the workload's own stream, client 1 another —
        a dynamic schedule is reseeded phase by phase."""

        def stream(spec):
            return [(r.kind, r.key, r.value) for r in request_stream(spec, 300, mission_size=100)]

        first, second = (stream(_reseeded(workload, 101 * c)) for c in range(2))
        assert first == stream(workload)
        assert second != first

    @staticmethod
    def _mission(n=2_000, seed=4, **columns):
        rng = np.random.default_rng(seed)
        base = {
            "kinds": rng.integers(0, 3, n),
            "keys": rng.integers(-(2**40), 2**40, n),
            "values": rng.integers(-(2**40), 2**40, n),
            "spans": rng.integers(0, 64, n),
        }
        return Mission(**{**base, **columns})

    def test_block_builds_what_the_validating_constructor_builds(self, monkeypatch):
        mission = self._mission()
        # The int64 edges are legal: a range ending on the last key, a
        # tombstone-valued row that is not a put.
        mission.kinds[:3] = OP_RANGE, OP_LOOKUP, OP_UPDATE
        mission.keys[:3] = 2**63 - 10, -(2**63), 2**63 - 1
        mission.values[:3] = 0, TOMBSTONE, 2**63 - 1
        mission.spans[:3] = 10, 0, 0
        kind_of = {OP_LOOKUP: REQ_GET, OP_UPDATE: REQ_PUT, OP_RANGE: REQ_RANGE}
        expected = [
            Request(kind_of[op], key, value=value, span=span, tenant="t", wait=True)
            for op, key, value, span in zip(
                mission.kinds.tolist(), mission.keys.tolist(),
                mission.values.tolist(), mission.spans.tolist(),
            )
        ]
        calls = []
        real_init = Request.__init__
        monkeypatch.setattr(
            Request, "__init__", lambda self, *a, **k: calls.append(a) or real_init(self, *a, **k)
        )
        built = list(requests_from_mission(mission, "t", True))
        assert calls == []  # validated per block, not per object
        assert len(built) == len(mission)
        for request, twin in zip(built, expected):
            assert type(request) is Request
            for slot in Request.__slots__:
                got, want = getattr(request, slot), getattr(twin, slot)
                if slot == "done":
                    assert isinstance(got, threading.Event) and not got.is_set()
                else:
                    assert got == want and type(got) is type(want), slot
        assert all(r.done is None for r in requests_from_mission(mission))

    @pytest.mark.parametrize(
        "row, match",
        [
            ({"kinds": 7}, "unknown request kind: 7"),
            ({"kinds": -1}, "unknown request kind: -1"),
            ({"kinds": OP_LOOKUP, "keys": 2**63}, "outside int64"),
            ({"kinds": OP_LOOKUP, "keys": -(2**63) - 1}, "outside int64"),
            ({"kinds": OP_RANGE, "keys": 2**63 - 2, "spans": 10}, "range end"),
            ({"kinds": OP_UPDATE, "values": 2**63}, "outside int64"),
            ({"kinds": OP_UPDATE, "values": TOMBSTONE}, "tombstone"),
        ],
        ids=["op-code", "op-negative", "key-high", "key-low", "range-end", "value", "tombstone-put"],
    )
    def test_block_with_one_bad_row_yields_nothing(self, row, match):
        # The columns arrive as Python ints (what does not fit int64 cannot
        # arrive any other way); the bad row sits last, so a per-row check
        # would have yielded 1,999 requests before raising.
        mission = self._mission()
        columns = {
            name: getattr(mission, name).tolist()
            for name in ("kinds", "keys", "values", "spans")
        }
        for name, value in row.items():
            columns[name][-1] = value
        yielded = []
        with pytest.raises(ServeError, match=match):
            for request in requests_from_mission(Mission(**columns)):
                yielded.append(request)
        assert yielded == []
        wide = {name: np.array(column, dtype=object) for name, column in columns.items()}
        with pytest.raises(ServeError, match=match):
            next(requests_from_mission(Mission(**wide)))

    @pytest.mark.parametrize(
        "columns",
        [
            {"keys": [1.7], "values": [3.9]},  # truncated: a put of 3 to key 1
            {"keys": np.array([True])},  # converted: key 1
            {"values": np.array([2.5], dtype=object)},
            {"spans": np.array([True], dtype=object)},
        ],
        ids=["float-columns", "bool-column", "object-float", "object-bool"],
    )
    def test_block_with_a_non_integer_column_is_refused(self, columns):
        base = {"kinds": [OP_UPDATE], "keys": [1], "values": [3], "spans": [0]}
        with pytest.raises(ServeError, match="column holds a non-integer"):
            next(requests_from_mission(Mission(**{**base, **columns})))


class TestTuningLoop:
    def test_windows_close_while_serving(self):
        store, workload = loaded_store(n_shards=2)
        tuners = [StaticTuner(3), StaticTuner(3)]
        with KVServer(
            store, tuners=tuners, window_ops=400, max_batch=32
        ) as server:
            report = run_load(
                server,
                [
                    TenantSpec(
                        name="t",
                        workload=workload,
                        n_ops=2_000,
                        # Slow enough that the run outlasts several tuning-
                        # loop poll cycles; the loop closes windows on op
                        # count, but only as fast as it wakes.
                        rate=8_000.0,
                        seed=4,
                    )
                ],
            )
        assert report.completed == 2_000
        # Window boundaries closed live (plus the final partial window
        # closed by stop()).
        assert len(server.windows) >= 2
        # The static tuner drove every shard to K=3 at the first boundary.
        assert server.windows[-1].policies == [[3] * len(p) for p in
                                               server.windows[-1].policies]
        total_window_ops = sum(w.stats.n_operations for w in server.windows)
        assert total_window_ops == 2_000

    def test_lerp_tunes_live(self):
        """A Lerp tuner attached to the serving loop performs model updates
        against live traffic."""
        store, workload = loaded_store(n_shards=1, n_records=2_000)
        lerp = Lerp(store.config, LerpConfig(seed=11))
        with KVServer(
            store, tuners=[lerp], window_ops=300, max_batch=64
        ) as server:
            run_load(
                server,
                [
                    TenantSpec(
                        name="t",
                        workload=workload,
                        n_ops=1_500,
                        rate=50_000.0,
                        seed=6,
                    )
                ],
            )
        assert lerp.total_model_update_s > 0.0, (
            "Lerp never updated its model live"
        )

    def test_window_stats_match_engine_missions(self):
        """Per-window MissionStats merge with the ShardedStore aggregation
        rule — counts across windows equal the requests served."""
        store, workload = loaded_store(n_shards=2)
        with KVServer(store, window_ops=250) as server:
            report = run_load(
                server,
                [
                    TenantSpec(
                        name="t",
                        workload=workload,
                        n_ops=1_000,
                        rate=30_000.0,
                        seed=8,
                    )
                ],
            )
        assert report.completed == 1_000
        counts = sum(w.stats.n_operations for w in server.windows)
        assert counts == 1_000
        lookups = sum(w.stats.n_lookups for w in server.windows)
        updates = sum(w.stats.n_updates for w in server.windows)
        assert lookups + updates == 1_000
        # Simulated time was charged by the engine, never by the server.
        sim_total = sum(w.stats.sim_duration for w in server.windows)
        assert sim_total == pytest.approx(store.clock_now)


class TestCheckpointing:
    def test_checkpoint_requires_running_server(self, tmp_path):
        store, _ = loaded_store(n_shards=1)
        server = KVServer(store).start()
        server.stop()
        with pytest.raises(ServeError):
            server.checkpoint(os.path.join(tmp_path, "late.snap"))


class TestStopSemantics:
    def test_stop_drains_queued_requests(self):
        store, workload = loaded_store(n_shards=2)
        server = KVServer(store, queue_capacity=2_000, max_batch=16)
        server.start()
        accepted = 0
        for request in request_stream(workload, 1_000, tenant="t"):
            if server.try_submit(request):
                accepted += 1
        server.stop(drain=True)
        assert server.total_completed == accepted

    def test_stop_twice_is_noop(self):
        store, _ = loaded_store()
        server = KVServer(store).start()
        server.stop()
        server.stop()

    def test_restart_after_undrained_stop_serves_again(self):
        """Stopping is a mailbox state, not an item left in the stream:
        nothing stale meets the worker a restart creates."""
        store, workload = loaded_store(n_shards=1)
        server = KVServer(store).start()
        server.stop(drain=False)
        server.start()
        probe = Request(REQ_GET, 1, wait=True)
        assert server.submit(probe, timeout=5.0)
        assert probe.done.wait(5.0), "restarted lane worker is not serving"
        server.stop()

    def test_second_run_load_reports_only_its_own_traffic(self):
        """LoadReport histograms/counters are per-call deltas, not the
        server's lifetime cumulatives."""
        store, workload = loaded_store(n_shards=2)
        with KVServer(store) as server:
            spec = lambda seed: TenantSpec(  # noqa: E731
                name="t", workload=workload, n_ops=500, rate=40_000.0, seed=seed
            )
            first = run_load(server, [spec(1)])
            second = run_load(server, [spec(2)])
        assert first.completed == 500
        assert second.completed == 500
        assert first.histogram.count == 500
        assert second.histogram.count == 500
        assert second.tenant_histograms["t"].count == 500
        # The server's own view stays cumulative.
        assert server.histogram().count == 1_000

    def test_restart_after_drained_stop_serves_again(self):
        store, _ = loaded_store()
        server = KVServer(store).start()
        server.stop()
        server.start()
        probe = Request(REQ_GET, 1, wait=True)
        assert server.submit(probe, timeout=5.0)
        assert probe.done.wait(5.0)
        server.stop()

    def test_final_window_closed_on_stop(self):
        store, workload = loaded_store(n_shards=2)
        server = KVServer(store).start()
        for request in request_stream(workload, 100, tenant="t"):
            server.submit(request, timeout=5.0)
        server.stop()
        assert len(server.windows) == 1
        assert server.windows[0].stats.n_operations == 100


class TestServingComparison:
    def test_comparison_offers_the_tiers_fixed_stream(self, monkeypatch):
        """With no explicit ``rate`` every configuration of the grid is
        offered the tier's ``n_ops`` requests at the tier's ``rate`` — no
        host calibration probe, no wall-bounded offer window."""
        from repro.serve import experiments

        tiny = experiments.ServingScale(
            n_ops=400,
            rate=20_000.0,
            window_ops=100,
            queue_capacity=512,
            max_batch=64,
            mission_size=100,
        )
        monkeypatch.setattr(experiments, "serving_scale", lambda scale=None: tiny)
        offered = []

        def recording_run_load(server, tenants):
            offered.extend(tenants)
            return run_load(server, tenants)

        monkeypatch.setattr(experiments, "run_load", recording_run_load)
        scale = dataclasses.replace(bench_scale(), n_records=2_000)
        runs = experiments.run_serving_comparison(scale=scale)

        assert len(runs) == 4
        assert [(t.n_ops, t.rate) for t in offered] == [(400, 20_000.0)] * 4
        for run in runs.values():
            assert run.report.offered == 400
            assert run.report.completed == run.report.accepted


class TestServeCLI:
    """``python -m repro.serve`` in-process: the server comes out of the one
    experiment builder (``repro.bench.harness.build_store``) on both
    backends."""

    LOAD = ["--ops", "300", "--rate", "20000", "--window-ops", "100"]

    @pytest.fixture(autouse=True)
    def quick_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")

    def test_memory_backend_two_tuned_shards(self, capsys):
        from repro.serve.__main__ import main

        assert main(["--shards", "2", "--tuned", *self.LOAD]) == 0
        out = capsys.readouterr().out
        assert "2 shard(s), Lerp-tuned" in out
        # The quick tier's 512-slot lanes hold the whole offer: nothing drops.
        assert "offered 300 accepted 300 completed 300 dropped 0" in out

    def test_durable_backend_recovers_instead_of_reloading(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.durable.store import DurableStore
        from repro.serve.__main__ import main

        loads = []
        bulk_load = DurableStore.bulk_load

        def counting_bulk_load(store, *args, **kwargs):
            loads.append(store.data_dir)
            return bulk_load(store, *args, **kwargs)

        monkeypatch.setattr(DurableStore, "bulk_load", counting_bulk_load)
        data_dir = os.fspath(tmp_path / "kv")
        args = ["--backend", "durable", "--data-dir", data_dir, "--tuned", *self.LOAD]
        assert main(args) == 0
        assert loads == [data_dir]
        assert main(args) == 0
        assert loads == [data_dir]  # the second run recovered the directory
        out = capsys.readouterr().out
        assert "completed 300" in out and "timed out 0" in out
        assert " WAL syncs (" in out
        n_records = bench_scale().n_records
        with DurableStore(data_dir) as store:
            found, _ = store.get_batch(np.arange(0, n_records, 97, dtype=np.int64))
        assert found.all()

    def test_durable_checkpoint_reattaches_its_directory(self, tmp_path):
        """``--checkpoint`` is the one in-repo producer of durable snapshots:
        after ``main`` returns, ``load_engine`` reattaches the directory,
        writes nothing, and holds what a reopen of the directory holds."""
        from repro.durable.store import DurableStore
        from repro.persist import load_engine
        from repro.serve.__main__ import main

        data_dir = os.fspath(tmp_path / "kv")
        path = os.fspath(tmp_path / "engine.snap")
        args = ["--backend", "durable", "--data-dir", data_dir, "--tuned", "--checkpoint", path]
        assert main([*args, *self.LOAD]) == 0
        with load_engine(path) as engine:
            assert isinstance(engine, DurableStore)
            assert engine.telemetry["sstables_written"] == engine.telemetry["commits"] == 0
            loaded = engine.range_lookup(0, 2**62)
        with DurableStore(data_dir) as store:
            assert store.range_lookup(0, 2**62) == loaded
        assert len(loaded) >= bench_scale().n_records
