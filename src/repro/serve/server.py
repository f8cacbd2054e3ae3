"""Concurrent request serving over any :class:`~repro.engine.base.KVEngine`.

:class:`KVServer` turns the batch-oriented simulation engines into a live
service: requests are routed to *lanes* — one bounded queue plus one worker
thread per shard (per tuning target) — and served in vectorized batches.
Shards are independent trees, so per-lane locks give real isolation: a
flush or compaction stalls only its own lane while the other lanes keep
draining, and on multi-core hosts the numpy portions of different shards
overlap.

Two clocks coexist by design (DESIGN.md §7):

* **wall clock** — request latency (queueing + service), throughput and
  queue depths are measured with ``time.perf_counter`` in this layer only;
* **SimClock** — the engine keeps charging simulated seconds for every
  page access exactly as in offline runs. The serving layer never touches
  the engine's clock or RNGs, so all simulated results stay bit-exact.

Admission control is a bounded queue per lane: :meth:`KVServer.try_submit`
rejects instead of blocking (open-loop backpressure — the drop counter is
the overload signal), while :meth:`KVServer.submit` blocks the producer
(closed-loop backpressure).

A background :class:`TuningLoop` closes a mission window per lane every
``window_ops`` completed requests, feeds the per-shard stats to the lane's
tuner (e.g. :class:`~repro.core.lerp.Lerp`) and applies the resulting
transition under the lane lock — model updates and structural transitions
happen *while traffic flows* on the other lanes. Between windows the
server can be checkpointed with :meth:`KVServer.checkpoint`.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.sharded import merge_mission_stats, shard_of_key
from repro.errors import ConfigError, ServeError
from repro.lsm.entry import validate_value
from repro.lsm.stats import MissionStats
from repro.lsm.tree import open_span
from repro.serve.latency import LatencyHistogram
from repro.serve.locks import ordered_lane_locks

#: Request kinds.
REQ_GET = 0
REQ_PUT = 1
REQ_DELETE = 2
REQ_RANGE = 3

REQ_NAMES = {REQ_GET: "get", REQ_PUT: "put", REQ_DELETE: "delete", REQ_RANGE: "range"}


class Request:
    """One client request travelling through a lane queue.

    ``t_submit``/``t_done`` are wall-clock stamps (``perf_counter``);
    latency is their difference — queueing plus service. ``done`` is lazily
    a :class:`threading.Event` only for closed-loop clients that wait.

    ``result`` after completion: the value (or ``None``) for a GET;
    a ``(keys, values)`` pair of key-sorted numpy arrays for a RANGE.
    """

    __slots__ = (
        "kind",
        "key",
        "value",
        "span",
        "tenant",
        "t_submit",
        "t_done",
        "done",
        "result",
    )

    def __init__(
        self,
        kind: int,
        key: int,
        value: int = 0,
        span: int = 0,
        tenant: str = "",
        wait: bool = False,
    ) -> None:
        if kind not in REQ_NAMES:
            raise ServeError(f"unknown request kind: {kind}")
        self.kind = kind
        self.key = int(key)
        self.value = int(value)
        if kind == REQ_PUT:
            # Rejected here, where outside input enters: raised later, in
            # the lane worker's put_batch, it would kill the lane thread.
            try:
                validate_value(self.value)
            except ValueError as exc:
                raise ServeError(f"malformed put request: {exc}") from exc
        self.span = int(span)
        self.tenant = tenant
        self.t_submit = 0.0
        self.t_done = 0.0
        self.done: Optional[threading.Event] = (
            threading.Event() if wait else None
        )
        self.result: object = None

    @property
    def latency(self) -> float:
        """Wall seconds from submission to completion."""
        return self.t_done - self.t_submit


class _Lane:
    """One shard's serving lane: queue, worker thread, lock, metrics.

    The lock serializes access to the lane's tree between the worker and
    the tuning loop; the histograms have the worker as their only writer.
    """

    def __init__(
        self,
        index: int,
        tree,
        queue_capacity: int,
        max_batch: int,
        histogram_factory: Callable[[], LatencyHistogram],
    ) -> None:
        self.index = index
        self.tree = tree
        self.queue: "queue.Queue[Optional[Request]]" = queue.Queue(
            maxsize=queue_capacity
        )
        self.max_batch = max_batch
        self.lock = threading.Lock()
        self.worker: Optional[threading.Thread] = None
        self._histogram_factory = histogram_factory
        self.histograms: Dict[str, LatencyHistogram] = {}
        self.completed = 0
        # Guarded by reject_lock: multiple producer threads may reject
        # into the same lane concurrently (a bare += would lose counts).
        self.rejected = 0
        self.reject_lock = threading.Lock()
        # Running queue-depth statistics, sampled at every batch drain.
        self.depth_samples = 0
        self.depth_sum = 0
        self.depth_max = 0

    def histogram(self, tenant: str) -> LatencyHistogram:
        hist = self.histograms.get(tenant)
        if hist is None:
            hist = self.histograms[tenant] = self._histogram_factory()
        return hist

    def sample_depth(self) -> None:
        depth = self.queue.qsize()
        self.depth_samples += 1
        self.depth_sum += depth
        if depth > self.depth_max:
            self.depth_max = depth


@dataclass
class ServerWindow:
    """One closed mission window of the whole server.

    ``stats`` is the per-shard :class:`MissionStats` merged with the same
    aggregation rule as :class:`~repro.engine.sharded.ShardedStore`, so the
    serving layer and the offline harness share one metrics vocabulary
    (simulated quantities only; serving throughput and latency are
    :class:`~repro.serve.loadgen.LoadReport`'s).
    """

    index: int
    stats: MissionStats
    parts: List[MissionStats]
    completed: int
    rejected: int
    policies: List[List[int]]


class KVServer:
    """Serves live request traffic over a :class:`KVEngine`.

    ``engine`` may be a single tree or a :class:`ShardedStore`; one lane is
    created per tuning target. ``tuners`` (optional) is one tuner per lane,
    or a single tuner shared by all lanes; with ``window_ops > 0`` a
    background loop closes a mission window every that-many completed
    requests and lets the tuners adapt the live store.
    """

    def __init__(
        self,
        engine,
        tuners: Optional[Sequence] = None,
        queue_capacity: int = 1024,
        max_batch: int = 512,
        window_ops: int = 0,
        histogram_factory: Callable[[], LatencyHistogram] = LatencyHistogram,
        tracer=None,
    ) -> None:
        if queue_capacity < 1:
            raise ConfigError(f"queue_capacity must be >= 1, got {queue_capacity}")
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if window_ops < 0:
            raise ConfigError(f"window_ops must be >= 0, got {window_ops}")
        self.engine = engine
        #: Optional :class:`repro.obs.trace.Tracer`. When set, every served
        #: batch opens a ``serve.batch`` root span and the engine's own
        #: batch spans (``store.*`` / ``lsm.*``, plus the read-path
        #: profiler's synthetic ``stage.*`` children) nest beneath it via
        #: the tracer's thread-local span stack. Host-wall-clock only —
        #: simulated observables stay bit-identical (DESIGN.md §12).
        self.tracer = tracer
        if tracer is not None:
            engine.set_tracer(tracer)
        targets = list(engine.tuning_targets())
        self.lanes = [
            _Lane(i, tree, queue_capacity, max_batch, histogram_factory)
            for i, tree in enumerate(targets)
        ]
        self.n_lanes = len(self.lanes)
        if tuners is None:
            self.tuners: List[object] = []
        elif not isinstance(tuners, (list, tuple)):
            self.tuners = [tuners] * self.n_lanes
        else:
            if len(tuners) != self.n_lanes:
                raise ConfigError(
                    f"got {len(tuners)} tuners for {self.n_lanes} lanes"
                )
            self.tuners = list(tuners)
        self.window_ops = window_ops
        self.windows: List[ServerWindow] = []
        #: Serializes window closing between the tuning loop and
        #: checkpoint() (both end/begin missions and append to
        #: ``windows``); always acquired *before* any lane lock.
        self._window_mutex = threading.Lock()
        self._running = False
        self._draining = False
        self._tuning_thread: Optional[threading.Thread] = None
        self._window_wake = threading.Event()
        self._started_at = 0.0
        self._stopped_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "KVServer":
        """Open the first mission window and start worker threads."""
        if self._running:
            raise ServeError("server already running")
        self._running = True
        self._draining = False
        self._stopped_at = 0.0  # a restarted server measures afresh
        for lane in self.lanes:
            # Purge stale stop sentinels: a stop(drain=False) worker may
            # exit via the not-running check without consuming its
            # sentinel, which would instantly kill this lane's new worker.
            leftover: List[Request] = []
            while True:
                try:
                    item = lane.queue.get_nowait()
                except queue.Empty:
                    break
                if item is not None:
                    leftover.append(item)
            for item in leftover:
                lane.queue.put_nowait(item)
            lane.tree.begin_mission()
            lane.worker = threading.Thread(
                target=self._worker_loop,
                args=(lane,),
                name=f"kvserver-lane-{lane.index}",
                daemon=True,
            )
            lane.worker.start()
        if self.window_ops > 0:
            self._tuning_thread = threading.Thread(
                target=self._tuning_loop, name="kvserver-tuning", daemon=True
            )
            self._tuning_thread.start()
        self._started_at = time.perf_counter()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` the queues are emptied first. The
        final (partial) mission window is closed and recorded."""
        if not self._running:
            return
        self._draining = drain
        self._running = False
        self._window_wake.set()
        for lane in self.lanes:
            lane.queue.put(None)  # wake the worker; sentinel ends the loop
        for lane in self.lanes:
            if lane.worker is not None:
                lane.worker.join()
                lane.worker = None
        if self._tuning_thread is not None:
            self._tuning_thread.join()
            self._tuning_thread = None
        self._stopped_at = time.perf_counter()
        self._close_window(tune=False)

    def __enter__(self) -> "KVServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _lane_for(self, key: int) -> _Lane:
        if self.n_lanes == 1:
            return self.lanes[0]
        return self.lanes[shard_of_key(key, self.n_lanes)]

    def try_submit(self, request: Request) -> bool:
        """Open-loop admission: enqueue or reject immediately (bounded
        queue full = backpressure). Returns ``False`` on rejection."""
        if not self._running:
            raise ServeError("server is not running")
        lane = self._lane_for(request.key)
        request.t_submit = time.perf_counter()
        try:
            lane.queue.put_nowait(request)
            return True
        except queue.Full:
            with lane.reject_lock:
                lane.rejected += 1
            return False

    def submit(self, request: Request, timeout: Optional[float] = None) -> bool:
        """Closed-loop admission: block the producer until the lane queue
        has room (or ``timeout`` elapses — then reject)."""
        if not self._running:
            raise ServeError("server is not running")
        lane = self._lane_for(request.key)
        request.t_submit = time.perf_counter()
        try:
            lane.queue.put(request, timeout=timeout)
            return True
        except queue.Full:
            with lane.reject_lock:
                lane.rejected += 1
            return False

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _drain(self, lane: _Lane) -> Tuple[List[Request], bool]:
        """Block for the next request, then opportunistically drain up to
        ``max_batch`` queued requests. Returns ``(batch, saw_sentinel)``."""
        batch: List[Request] = []
        try:
            first = lane.queue.get(timeout=0.05)
        except queue.Empty:
            return batch, False
        if first is None:
            return batch, True
        batch.append(first)
        while len(batch) < lane.max_batch:
            try:
                request = lane.queue.get_nowait()
            except queue.Empty:
                break
            if request is None:
                return batch, True
            batch.append(request)
        return batch, False

    @staticmethod
    def _flush_puts(tree, run: List[Request]) -> None:
        """Apply a run of consecutive puts as one vectorized batch."""
        if not run:
            return
        keys = np.fromiter((r.key for r in run), dtype=np.int64, count=len(run))
        values = np.fromiter(
            (r.value for r in run), dtype=np.int64, count=len(run)
        )
        tree.put_batch(keys, values)
        run.clear()

    def _serve_batch(self, lane: _Lane, batch: List[Request]) -> None:
        """Serve one drained batch (under a ``serve.batch`` root span when
        a tracer is attached).

        Point requests run under the lane lock only. Within a batch, puts
        and deletes are applied first (puts as one vectorized
        ``put_batch``) and gets then resolved as one ``get_batch`` — the
        same one-chunk reordering the offline :class:`MissionRunner` does.
        Range requests are *cross-shard* (hash partitioning does not
        preserve key order), so they run against the whole engine with
        every lane lock held — through
        :func:`repro.serve.locks.ordered_lane_locks` (ascending index
        order), never while holding this lane's own lock, so concurrent
        range-serving lanes cannot deadlock. The drained ranges coalesce into one
        ``range_scan_batch`` call; each range request's ``result`` is its
        ``(keys, values)`` array pair, sorted by key.
        """
        with open_span(
            self.tracer, "serve.batch", lane=lane.index, n_requests=len(batch)
        ):
            tree = lane.tree
            writes = [r for r in batch if r.kind in (REQ_PUT, REQ_DELETE)]
            reads = [r for r in batch if r.kind == REQ_GET]
            ranges = [r for r in batch if r.kind == REQ_RANGE]
            with lane.lock:
                # Puts and deletes keep their relative submission order (a
                # DELETE(k) → PUT(k, v) pair in one batch must leave v live):
                # consecutive puts coalesce into one put_batch, deletes flush
                # the run and go through the tombstone path individually.
                run: List[Request] = []
                for request in writes:
                    if request.kind == REQ_PUT:
                        run.append(request)
                        continue
                    self._flush_puts(tree, run)
                    tree.delete(request.key)
                self._flush_puts(tree, run)
                if reads:
                    keys = np.fromiter(
                        (r.key for r in reads), dtype=np.int64, count=len(reads)
                    )
                    found, values = tree.get_batch(keys)
                    for i, request in enumerate(reads):
                        request.result = int(values[i]) if found[i] else None
            if ranges:
                with ordered_lane_locks(self.lanes):
                    # One engine-wide batch per drain: the coalesced call
                    # counts and charges exactly like per-request
                    # range_lookup calls in drain order, but resolves run
                    # segments once per run per batch.
                    los = np.fromiter(
                        (r.key for r in ranges), dtype=np.int64, count=len(ranges)
                    )
                    his = np.fromiter(
                        (r.key + max(0, r.span - 1) for r in ranges),
                        dtype=np.int64,
                        count=len(ranges),
                    )
                    keys, values, offsets = self.engine.range_scan_batch(los, his)
                    bounds = offsets.tolist()
                    for i, request in enumerate(ranges):
                        request.result = (
                            keys[bounds[i] : bounds[i + 1]],
                            values[bounds[i] : bounds[i + 1]],
                        )
            now = time.perf_counter()
            for request in batch:
                request.t_done = now
                lane.histogram(request.tenant).record(now - request.t_submit)
                if request.done is not None:
                    request.done.set()
            lane.completed += len(batch)
            if (
                self.window_ops > 0
                and self.total_completed - self._last_window_ops() >= self.window_ops
            ):
                self._window_wake.set()

    def _worker_loop(self, lane: _Lane) -> None:
        while True:
            lane.sample_depth()
            batch, stop = self._drain(lane)
            if batch:
                self._serve_batch(lane, batch)
            if stop:
                if self._draining:
                    # Serve whatever is still queued, then exit.
                    while True:
                        rest: List[Request] = []
                        while len(rest) < lane.max_batch:
                            try:
                                request = lane.queue.get_nowait()
                            except queue.Empty:
                                break
                            if request is not None:
                                rest.append(request)
                        if not rest:
                            break
                        self._serve_batch(lane, rest)
                return
            if not self._running and not self._draining:
                return

    # ------------------------------------------------------------------
    # Mission windows and tuning
    # ------------------------------------------------------------------
    def _last_window_ops(self) -> int:
        return self.windows[-1].completed if self.windows else 0

    def _close_window(self, tune: bool) -> None:
        """Close the current mission window on every lane (lane by lane,
        under the lane lock — other lanes keep serving), feed the tuners
        and open the next window. The window mutex keeps this and
        :meth:`checkpoint` from interleaving window cuts."""
        with self._window_mutex:
            parts: List[MissionStats] = []
            policies: List[List[int]] = []
            for lane_index, lane in enumerate(self.lanes):
                with lane.lock:
                    part = lane.tree.end_mission()
                    if tune and self.tuners:
                        self.tuners[lane_index].observe_mission(lane.tree, part)
                    if tune:
                        lane.tree.begin_mission()
                    parts.append(part)
                    policies.append(list(lane.tree.policies()))
            self._append_window(parts, policies)

    def _append_window(
        self, parts: List[MissionStats], policies: List[List[int]]
    ) -> None:
        """Record one closed window (caller holds the window mutex)."""
        merged = merge_mission_stats(len(self.windows), parts)
        self.windows.append(
            ServerWindow(
                index=len(self.windows),
                stats=merged,
                parts=parts,
                completed=self.total_completed,
                rejected=self.total_rejected,
                policies=policies,
            )
        )

    def _tuning_loop(self) -> None:
        while self._running:
            self._window_wake.wait(timeout=0.05)
            self._window_wake.clear()
            if not self._running:
                return
            if self.total_completed - self._last_window_ops() >= self.window_ops:
                self._close_window(tune=True)

    # ------------------------------------------------------------------
    # Checkpointing (between windows)
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> None:
        """Snapshot the live engine to ``path``.

        All lanes are paused (locks held) and the open mission window is
        closed around the snapshot — :mod:`repro.persist` refuses to
        serialize mid-mission state (DESIGN.md §6). Traffic may keep
        arriving; it queues while the snapshot is cut. Only a *running*
        server can be checkpointed this way (``stop()`` already closed
        the final window); snapshot a stopped server's engine directly
        with :func:`repro.persist.save_engine`.
        """
        from repro.persist import save_engine

        if not self._running:
            raise ServeError(
                "checkpoint requires a running server; after stop() use "
                "repro.persist.save_engine on the engine directly"
            )

        # _window_mutex blocks a concurrent tuning-loop window cut while the
        # lanes are frozen in ascending order.
        with self._window_mutex, ordered_lane_locks(self.lanes):
            parts = [lane.tree.end_mission() for lane in self.lanes]
            save_engine(self.engine, path, meta={"live_server": True})
            for lane in self.lanes:
                lane.tree.begin_mission()
            self._append_window(
                    parts, [list(l.tree.policies()) for l in self.lanes]
                )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def total_completed(self) -> int:
        return sum(lane.completed for lane in self.lanes)

    @property
    def total_rejected(self) -> int:
        return sum(lane.rejected for lane in self.lanes)

    @property
    def elapsed(self) -> float:
        """Wall seconds the server has been (or was) running."""
        if self._started_at == 0.0:
            return 0.0
        end = self._stopped_at if self._stopped_at else time.perf_counter()
        return end - self._started_at

    @property
    def throughput(self) -> float:
        """Completed requests per wall second over the server's lifetime."""
        elapsed = self.elapsed
        return self.total_completed / elapsed if elapsed > 0 else 0.0

    def queue_depths(self) -> List[int]:
        """Current queue depth per lane."""
        return [lane.queue.qsize() for lane in self.lanes]

    def mean_queue_depth(self) -> float:
        """Queue depth averaged over every batch-drain sample, all lanes."""
        samples = sum(lane.depth_samples for lane in self.lanes)
        total = sum(lane.depth_sum for lane in self.lanes)
        return total / samples if samples else 0.0

    def max_queue_depth(self) -> int:
        return max((lane.depth_max for lane in self.lanes), default=0)

    def histogram(self, tenant: Optional[str] = None) -> LatencyHistogram:
        """Merged latency histogram — all lanes, one tenant or all.

        Cumulative over the server's lifetime. Safe to call while traffic
        flows (the dict is snapshotted before iterating), but a histogram
        being written concurrently is read approximately; read after the
        queues drain for exact counts.
        """
        parts = [
            hist
            for lane in self.lanes
            for name, hist in list(lane.histograms.items())
            if tenant is None or name == tenant
        ]
        return LatencyHistogram.merged(parts)

    def tenants(self) -> List[str]:
        names = {
            name for lane in self.lanes for name in list(lane.histograms)
        }
        return sorted(names)
