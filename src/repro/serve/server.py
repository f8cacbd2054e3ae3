"""Concurrent request serving over any :class:`~repro.engine.base.KVEngine`.

:class:`KVServer` turns the batch-oriented simulation engines into a live
service: requests are routed to *lanes* — one bounded mailbox plus one worker
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

Admission control is a bounded mailbox per lane, handed over in blocks
(:class:`_Mailbox`): :meth:`KVServer.try_submit` rejects instead of blocking
(open-loop backpressure — the drop counter is the overload signal), while
:meth:`KVServer.submit` blocks the producer (closed-loop backpressure). A
batch that raises fails its requests (``Request.error``) and closes its
lane; ``submit``, ``checkpoint`` and ``stop`` report it, the other lanes
serve on.

A background :class:`TuningLoop` closes a mission window per lane every
``window_ops`` completed requests, feeds the per-shard stats to the lane's
tuner (e.g. :class:`~repro.core.lerp.Lerp`) and applies the resulting
transition under the lane lock — model updates and structural transitions
happen *while traffic flows* on the other lanes. A tuner that raises ends
tuning, not serving: its lane's window reopens, every lane keeps its
current policies, and ``checkpoint`` / ``stop`` report the cause. Between
windows the server can be checkpointed with :meth:`KVServer.checkpoint`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, index
from typing import Deque, List, Optional, Sequence

import numpy as np

from repro.engine.sharded import merge_mission_stats, shard_of_key
from repro.errors import ConfigError, ServeError
from repro.lsm.entry import TOMBSTONE
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

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
TOMBSTONE_PUT = "malformed put request: value collides with the tombstone sentinel"
_kind_of = attrgetter("kind")


def _integer(field: str, x: object) -> int:
    """``x`` as a Python int; a bool, a float or any other non-integer is
    refused, never truncated."""
    if not isinstance(x, bool):
        with suppress(TypeError):
            return index(x)
    raise ServeError(f"malformed request: {field} {x!r} is not an integer")


class Request:
    """One client request travelling through a lane queue.

    ``t_submit``/``t_done`` are wall-clock stamps (``perf_counter``);
    latency is their difference — queueing plus service. ``done`` is lazily
    a :class:`threading.Event` only for closed-loop clients that wait.

    ``result`` after completion: the value (or ``None``) for a GET;
    a ``(keys, values)`` pair of key-sorted numpy arrays for a RANGE.
    ``error`` is the exception that failed the request's lane, if one did.
    """

    __slots__ = (
        "kind",
        "key",
        "value",
        "span",
        "t_submit",
        "t_done",
        "done",
        "result",
        "error",
    )

    def __init__(
        self,
        kind: int,
        key: int,
        value: int = 0,
        span: int = 0,
        wait: bool = False,
    ) -> None:
        kind = _integer("kind", kind)
        if kind not in REQ_NAMES:
            raise ServeError(f"unknown request kind: {kind}")
        self.kind = kind
        self.key = key = _integer("key", key)
        self.value = value = _integer("value", value)
        self.span = span = _integer("span", span)
        # Rejected here, where outside input enters: raised later, in the
        # lane worker's int64 conversion or put_batch, it would fail the
        # whole lane.
        last = key + span - 1 if kind == REQ_RANGE and span > 1 else key
        if key < _INT64_MIN or last > _INT64_MAX or not _INT64_MIN <= value <= _INT64_MAX:
            raise ServeError(
                f"malformed request: key {key}, value {value} or range end "
                f"{last} is outside int64"
            )
        if kind == REQ_PUT and value == TOMBSTONE:
            raise ServeError(TOMBSTONE_PUT)
        self.t_submit = 0.0
        self.t_done = 0.0
        self.done: Optional[threading.Event] = threading.Event() if wait else None
        self.result: object = None
        self.error: Optional[BaseException] = None

    @classmethod
    def prevalidated(cls, kind, key, value, span, wait) -> "Request":
        """Nothing is checked: the caller has held whole columns of plain ints
        against everything ``__init__`` rejects (``loadgen.requests_from_mission``)."""
        self = cls.__new__(cls)
        self.kind = kind
        self.key = key
        self.value = value
        self.span = span
        self.t_submit = 0.0
        self.t_done = 0.0
        self.done = threading.Event() if wait else None
        self.result = None
        self.error = None
        return self


class _Mailbox:
    """A lane's bounded FIFO: many producers, one consumer, one lock.

    Closed is a state (before ``start()``, after ``stop()``, after a lane
    failure — then ``error`` is the cause), never an item in the stream.
    ``box_lock`` is a leaf: nothing else is acquired while it is held.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.items: Deque[Request] = deque()
        self.box_lock = threading.Lock()
        self.not_empty = threading.Condition(self.box_lock)
        self.not_full = threading.Condition(self.box_lock)
        self.parked = False  # the consumer is waiting on not_empty
        self.closed = True
        self.error: Optional[BaseException] = None
        self.rejected = 0

    def _room_or_closed(self) -> bool:
        return self.closed or len(self.items) < self.capacity

    def put(self, item: Request, timeout: Optional[float] = None) -> bool:
        """Append ``item``. With the mailbox full, wait for room up to
        ``timeout`` (``None``: as long as it takes; the one path that reads
        a clock) and count a rejection on giving up. Raises once closed."""
        with self.box_lock:
            if self.closed or len(self.items) >= self.capacity:
                # timeout 0 is try_submit: reject without letting go of the lock.
                admitted = timeout != 0.0 and self.not_full.wait_for(self._room_or_closed, timeout)
                if self.closed:
                    reason = "server is not running" if self.error is None else "lane failed"
                    raise ServeError(reason) from self.error
                if not admitted:
                    self.rejected += 1
                    return False
            self.items.append(item)
            if self.parked:
                self.parked = False
                self.not_empty.notify()
        return True

    def take(self, max_items: int, timeout: float) -> Optional[List[Request]]:
        """The next block under one lock acquisition: up to ``max_items`` in
        submission order, empty if none arrives within ``timeout``; blocked
        producers wake once. ``None`` once closed and empty."""
        with self.box_lock:
            if not self.items and not self.closed:
                self.parked = True
                self.not_empty.wait(timeout)
                self.parked = False
            if self.closed and not self.items:
                return None
            n_taken = min(len(self.items), max_items)
            self.not_full.notify(n_taken)
            return [self.items.popleft() for _ in range(n_taken)]

    def open(self) -> None:
        with self.box_lock:
            self.closed = False
            self.error = None

    def close(self) -> None:
        """Refuse producers (blocked ones wake and raise); the consumer still
        gets what is queued."""
        with self.box_lock:
            self.closed = True
            self.not_empty.notify_all()
            self.not_full.notify_all()


class _Lane:
    """One shard's serving lane: mailbox, worker thread, lock, metrics.

    The lock serializes access to the lane's tree between the worker and
    the tuning loop; the histogram has the worker as its only writer.
    """

    def __init__(
        self,
        index: int,
        tree,
        queue_capacity: int,
        max_batch: int,
    ) -> None:
        self.index = index
        self.tree = tree
        self.queue = _Mailbox(queue_capacity)
        self.max_batch = max_batch
        self.lock = threading.Lock()
        self.worker: Optional[threading.Thread] = None
        self.histogram = LatencyHistogram()
        self.completed = 0
        # Running queue-depth statistics, sampled at every batch drain.
        self.depth_samples = 0
        self.depth_sum = 0
        self.depth_max = 0

    @property
    def rejected(self) -> int:
        return self.queue.rejected


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
    created per tuning target. ``tuners`` (optional) is a list of one tuner
    per lane; with ``window_ops > 0`` a background loop closes a mission
    window every that-many completed requests and lets the tuners adapt it.
    """

    def __init__(
        self,
        engine,
        tuners: Optional[Sequence] = None,
        queue_capacity: int = 1024,
        max_batch: int = 512,
        window_ops: int = 0,
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
        #: batch spans (``store.*`` / ``lsm.*``, lapped per pipeline stage)
        #: nest beneath it via the tracer's thread-local span stack.
        #: Host-wall-clock only —
        #: simulated observables stay bit-identical (DESIGN.md §12).
        self.tracer = tracer
        if tracer is not None:
            engine.set_tracer(tracer)
        targets = list(engine.tuning_targets())
        self.lanes = [_Lane(i, tree, queue_capacity, max_batch) for i, tree in enumerate(targets)]
        self.n_lanes = len(self.lanes)
        self.tuners: List[object] = list(tuners or ())
        if self.tuners and len(self.tuners) != self.n_lanes:
            raise ConfigError(f"got {len(self.tuners)} tuners for {self.n_lanes} lanes")
        self.window_ops = window_ops
        self.windows: List[ServerWindow] = []
        #: Serializes window closing between the tuning loop and
        #: checkpoint() (both end/begin missions and append to
        #: ``windows``); always acquired *before* any lane lock.
        self._window_mutex = threading.Lock()
        self._running = False
        self._tuning_thread: Optional[threading.Thread] = None
        #: What a tuner raised in the tuning loop (tuning has stopped).
        self._tuning_error: Optional[BaseException] = None
        self._window_wake = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "KVServer":
        """Open the first mission window and start worker threads."""
        if self._running:
            raise ServeError("server already running")
        self._running = True
        self._tuning_error = None
        for lane in self.lanes:
            lane.queue.open()
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
        return self

    def stop(self) -> None:
        """Stop serving once everything admitted is served. The final
        (partial) mission window is closed and recorded. Raises if a lane
        or the tuner failed."""
        if not self._running:
            return
        self._running = False
        self._window_wake.set()
        for lane in self.lanes:
            lane.queue.close()
        for lane in self.lanes:
            if lane.worker is not None:
                lane.worker.join()
                lane.worker = None
        if self._tuning_thread is not None:
            self._tuning_thread.join()
            self._tuning_thread = None
        self._close_window(tune=False)
        self._raise_if_failed()

    def _raise_if_failed(self) -> None:
        """``ServeError`` chained to the first lane failure, else the tuner's."""
        for lane in self.lanes:
            if lane.queue.error is not None:
                raise ServeError(f"lane {lane.index} failed") from lane.queue.error
        if self._tuning_error is not None:
            raise ServeError("tuning failed") from self._tuning_error

    def __enter__(self) -> "KVServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def try_submit(self, request: Request) -> bool:
        """Open-loop admission: enqueue or reject immediately (mailbox full
        = backpressure). Returns ``False`` on rejection; never blocks."""
        return self.submit(request, timeout=0.0)

    def submit(self, request: Request, timeout: Optional[float] = None) -> bool:
        """Closed-loop admission: block the producer until the lane mailbox
        has room (or ``timeout`` elapses — then reject). Raises when the
        server is not running or the lane has failed (chained to the cause)."""
        lane = self.lanes[0 if self.n_lanes == 1 else shard_of_key(request.key, self.n_lanes)]
        request.t_submit = time.perf_counter()
        return lane.queue.put(request, timeout)

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _serve_batch(self, lane: _Lane, batch: List[Request]) -> None:
        """Serve one drained batch (under a ``serve.batch`` root span when
        a tracer is attached).

        Point requests run under the lane lock only. Within a batch, puts
        and deletes are applied first (each run of consecutive same-kind
        writes as one ``put_batch`` / ``delete_batch``) and gets then
        resolved as one ``get_batch`` — the same one-chunk reordering the
        offline :class:`MissionRunner` does.
        Range requests are *cross-shard* (hash partitioning does not
        preserve key order), so they run against the whole engine with
        every lane lock held — through
        :func:`repro.serve.locks.ordered_lane_locks` (ascending index
        order), never while holding this lane's own lock, so concurrent
        range-serving lanes cannot deadlock. The drained ranges coalesce into one
        ``range_scan_batch`` call; each range request's ``result`` is its
        ``(keys, values)`` array pair, sorted by key.
        """
        with open_span(self.tracer, "serve.batch", lane=lane.index, n_requests=len(batch)):
            tree = lane.tree
            reads, writes, ranges = [], [], []
            # One pass; puts and deletes share a list (relative order matters).
            by_kind = {REQ_GET: reads, REQ_PUT: writes, REQ_DELETE: writes, REQ_RANGE: ranges}
            for request in batch:
                by_kind[request.kind].append(request)
            with lane.lock:
                # Puts and deletes keep their relative submission order (a
                # DELETE(k) → PUT(k, v) pair in one batch must leave v live):
                # each run of consecutive same-kind writes is one engine call.
                for kind, group in groupby(writes, _kind_of):
                    run = list(group)
                    keys = np.fromiter((r.key for r in run), dtype=np.int64, count=len(run))
                    if kind == REQ_DELETE:
                        tree.delete_batch(keys)
                        continue
                    values = np.fromiter((r.value for r in run), dtype=np.int64, count=len(run))
                    tree.put_batch(keys, values)
                if reads:
                    keys = np.fromiter((r.key for r in reads), dtype=np.int64, count=len(reads))
                    found, values = tree.get_batch(keys)
                    for request, hit, value in zip(reads, found.tolist(), values.tolist()):
                        request.result = value if hit else None
            if ranges:
                with ordered_lane_locks(self.lanes):
                    # One engine-wide batch per drain: the coalesced call
                    # counts and charges exactly like per-request
                    # range_lookup calls in drain order, but resolves run
                    # segments once per run per batch.
                    los = np.fromiter((r.key for r in ranges), dtype=np.int64, count=len(ranges))
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
            waits = []
            for request in batch:
                request.t_done = now
                waits.append(now - request.t_submit)
                if request.done is not None:
                    request.done.set()
            lane.histogram.record_many(waits)
            lane.completed += len(batch)
            if (
                self.window_ops > 0
                and self.total_completed - self._last_window_ops() >= self.window_ops
            ):
                self._window_wake.set()

    def _worker_loop(self, lane: _Lane) -> None:
        """Take a block, serve it, until the mailbox is closed and done. A
        batch that raises ends the lane: its mailbox closes with the cause
        (``submit`` and ``stop`` report it) and everything admitted — the
        batch and what is queued — completes with ``error`` set, unserved."""
        box = lane.queue
        while True:
            depth = len(box.items)
            lane.depth_samples += 1
            lane.depth_sum += depth
            lane.depth_max = max(lane.depth_max, depth)
            batch = box.take(lane.max_batch, timeout=0.05)
            if batch is None:
                return
            try:
                if batch:
                    self._serve_batch(lane, batch)
            except Exception as exc:
                box.error = exc
                box.close()
                batch.extend(box.take(box.capacity, timeout=0.0) or ())
                now = time.perf_counter()
                for request in batch:
                    request.error = exc
                    request.t_done = now
                    if request.done is not None:
                        request.done.set()
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
        :meth:`checkpoint` from interleaving window cuts. A tuner that
        raises is recorded and no tuner runs again; the window is still
        cut on every lane and recorded. A lane whose cut raises ends the
        window there: the parts the lanes before it cut are recorded, then
        the error propagates."""
        with self._window_mutex:
            parts: List[MissionStats] = []
            policies: List[List[int]] = []
            try:
                for lane_index, lane in enumerate(self.lanes):
                    with lane.lock:
                        part = lane.tree.end_mission()
                        if tune and self.tuners and self._tuning_error is None:
                            try:
                                self.tuners[lane_index].observe_mission(lane.tree, part)
                            except Exception as exc:
                                self._tuning_error = exc
                        if tune:
                            lane.tree.begin_mission()
                        parts.append(part)
                        policies.append(list(lane.tree.policies()))
            finally:
                if parts:
                    self._append_window(parts, policies)

    def _append_window(self, parts: List[MissionStats], policies: List[List[int]]) -> None:
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
        """Cut a window whenever ``window_ops`` more requests completed,
        until the server stops or the cut fails — a tuner, ``end_mission``
        or the window record raising (the lanes then serve on, untuned,
        and ``stop`` / ``checkpoint`` raise the cause)."""
        while self._running and self._tuning_error is None:
            self._window_wake.wait(timeout=0.05)
            self._window_wake.clear()
            if not self._running:
                return
            if self.total_completed - self._last_window_ops() >= self.window_ops:
                try:
                    self._close_window(tune=True)
                except Exception as exc:
                    self._tuning_error = exc

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
        with :func:`repro.persist.save_engine`. Refused once a lane or the
        tuner has failed: the engine is no longer in a state anyone chose.
        """
        from repro.persist import save_engine

        if not self._running:
            raise ServeError(
                "checkpoint requires a running server; after stop() use "
                "repro.persist.save_engine on the engine directly"
            )
        self._raise_if_failed()

        # _window_mutex blocks a concurrent tuning-loop window cut while the
        # lanes are frozen in ascending order.
        with self._window_mutex, ordered_lane_locks(self.lanes):
            parts = [lane.tree.end_mission() for lane in self.lanes]
            save_engine(self.engine, path)
            for lane in self.lanes:
                lane.tree.begin_mission()
            self._append_window(parts, [list(l.tree.policies()) for l in self.lanes])

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def total_completed(self) -> int:
        return sum(lane.completed for lane in self.lanes)

    @property
    def total_rejected(self) -> int:
        return sum(lane.rejected for lane in self.lanes)

    def mean_queue_depth(self) -> float:
        """Queue depth averaged over every batch-drain sample, all lanes."""
        samples = sum(lane.depth_samples for lane in self.lanes)
        total = sum(lane.depth_sum for lane in self.lanes)
        return total / samples if samples else 0.0

    def max_queue_depth(self) -> int:
        return max((lane.depth_max for lane in self.lanes), default=0)

    def histogram(self) -> LatencyHistogram:
        """The lanes' latency histograms merged, cumulative over the
        server's lifetime. Safe to call while traffic flows, but a histogram
        being written concurrently is read approximately; read after the
        queues drain for exact counts."""
        return LatencyHistogram.merged(lane.histogram for lane in self.lanes)
