"""Open- and closed-loop load generation against a :class:`KVServer`.

The existing workload generators (uniform / Zipfian / YCSB / dynamic)
already produce deterministic :class:`~repro.workload.spec.Mission` arrays;
this module replays them as *timed request streams*:

* :class:`OpenLoopClient` — Poisson arrivals at a fixed offered rate.
  Arrival times do not depend on service times (the open-loop property
  that exposes queueing collapse); requests that meet a full lane queue
  are **dropped** and counted, never retried.
* :class:`ClosedLoopClient` — a fixed number of in-flight requests per
  client (think one synchronous connection): submit, wait for completion,
  submit the next. Offered load adapts to service capacity, so closed
  loops measure service latency, open loops measure *system* latency.

A :class:`LoadSpec` describes one load: a workload, its request count,
rate, clients and seed. :func:`run_load` drives it and returns a
:class:`LoadReport` with its counters and tail-latency histogram. All
randomness (arrival jitter, per-client streams) draws from dedicated
``numpy`` generators seeded per client — the engines' RNGs and SimClock are
never touched.
"""

from __future__ import annotations

import copy
import math
import threading
import time
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import Iterator, List, Optional

import numpy as np

from repro.errors import ConfigError, ServeError, WorkloadError
from repro.lsm.entry import TOMBSTONE
from repro.serve.latency import LatencyHistogram
from repro.serve.server import (
    REQ_GET,
    REQ_PUT,
    REQ_RANGE,
    TOMBSTONE_PUT,
    KVServer,
    Request,
)
from repro.workload.spec import OP_LOOKUP, OP_RANGE, OP_UPDATE, Mission, WorkloadSpec

#: Request kind by mission op code (a table, so a column translates in one take).
_KIND_OF_OP = np.zeros(3, dtype=np.int64)
_KIND_OF_OP[[OP_LOOKUP, OP_UPDATE, OP_RANGE]] = REQ_GET, REQ_PUT, REQ_RANGE


def _int64_column(name: str, column) -> np.ndarray:
    """One mission column as int64. A column of floats or bools, or an
    object column holding one, is refused, never truncated."""
    if not isinstance(column, np.ndarray):  # a list: numpy would promote it to float
        column = np.array(column, dtype=object)
    kind = column.dtype.kind
    if kind == "O":
        integral = all(
            isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in column.flat
        )
    else:
        integral = kind in "iu"
    if not integral:
        raise ServeError(f"malformed request block: the {name} column holds a non-integer")
    try:
        # uint64 / object: as Python ints, which numpy range-checks
        return np.asarray(column.tolist() if kind in "uO" else column, np.int64)
    except OverflowError as exc:
        raise ServeError("malformed request block: an entry is outside int64") from exc


def requests_from_mission(mission: Mission, wait: bool = False) -> Iterator[Request]:
    """Translate one mission's rows into :class:`Request` objects.

    The block is checked once, vectorised, before the first request is
    yielded — every row ``Request(...)`` would reject is a ``ServeError`` here
    too — and the objects are then built from plain-int lists without per-row
    checks: producer threads sit on the serving hot path.
    """
    ops, keys, values, spans = (
        _int64_column(name, getattr(mission, name))
        for name in ("kinds", "keys", "values", "spans")
    )
    unknown = (ops < 0) | (ops >= len(_KIND_OF_OP))
    if unknown.any():
        raise ServeError(f"unknown request kind: {ops[unknown][0]}")
    kinds = _KIND_OF_OP[ops]
    wide = (kinds == REQ_RANGE) & (spans > 1)
    # key + span - 1 > INT64_MAX, arranged so that nothing overflows.
    if (keys[wide] > np.iinfo(np.int64).max - (spans[wide] - 1)).any():
        raise ServeError("malformed request block: a range end is outside int64")
    if (values[kinds == REQ_PUT] == TOMBSTONE).any():
        raise ServeError(TOMBSTONE_PUT)
    build = Request.prevalidated
    for kind, key, value, span in zip(*(c.tolist() for c in (kinds, keys, values, spans))):
        yield build(kind, key, value, span, wait)


def request_stream(
    workload: WorkloadSpec,
    n_ops: int,
    mission_size: int = 1_000,
    wait: bool = False,
) -> Iterator[Request]:
    """The first ``n_ops`` requests of ``workload``'s mission stream.

    One ``missions()`` iterator is created for the whole stream (the
    generators re-seed per call, and dynamic schedules advance through
    their phases), then flattened into requests.
    """
    missions = workload.missions(-(-n_ops // mission_size), mission_size)  # ceil
    blocks = (requests_from_mission(mission, wait) for mission in missions)
    return islice(chain.from_iterable(blocks), n_ops)


@dataclass
class ClientResult:
    """What one client thread observed."""

    offered: int = 0
    accepted: int = 0
    dropped: int = 0
    #: Accepted requests a closed-loop client stopped waiting for.
    timed_out: int = 0


class _Client(threading.Thread):
    """One client thread, sending its stream in ``_send_all``. A
    ``ServeError`` (a failed lane, which :func:`run_load` raises, or a
    stopped server) ends the stream; any other exception ends the thread
    and is kept on ``error`` for :func:`run_load` to raise once every
    client has joined."""

    result: ClientResult
    error: Optional[Exception] = None

    def run(self) -> None:
        try:
            self._send_all()
        except Exception as exc:
            self.error = exc


class OpenLoopClient(_Client):
    """Poisson arrivals at ``rate`` requests per wall second.

    The pacing loop is cumulative (each interarrival is added to a target
    timeline), so short sleeps that overshoot self-correct and the offered
    rate stays honest over the run. Rejected submissions are *dropped*
    (open-loop clients never block or retry — that would make them closed).
    """

    def __init__(
        self,
        server: KVServer,
        requests: Iterator[Request],
        rate: float,
        seed: int = 0,
    ) -> None:
        if not (math.isfinite(rate) and rate > 0.0):
            raise ConfigError(f"rate must be finite and > 0, got {rate}")
        super().__init__(name="open-loop", daemon=True)
        self.server = server
        self.requests = requests
        self.rate = float(rate)
        self.rng = np.random.default_rng(seed)
        self.result = ClientResult()

    def _send_all(self) -> None:
        started = time.perf_counter()
        target = 0.0
        result = self.result
        try_submit = self.server.try_submit
        perf_counter = time.perf_counter
        gaps: List[float] = []
        gap_cursor = 0
        for request in self.requests:
            if gap_cursor >= len(gaps):
                # Draw interarrival gaps in blocks — a scalar exponential
                # per request would dominate the producer's budget.
                gaps = self.rng.exponential(1.0 / self.rate, size=1024).tolist()
                gap_cursor = 0
            target += gaps[gap_cursor]
            gap_cursor += 1
            now = perf_counter() - started
            if target > now:
                time.sleep(target - now)
            result.offered += 1
            try:
                admitted = try_submit(request)
            except ServeError:  # a failed lane (run_load raises it) or a stopped server
                break
            if admitted:
                result.accepted += 1
            else:
                result.dropped += 1


class ClosedLoopClient(_Client):
    """One synchronous connection: submit, await completion, repeat."""

    def __init__(
        self,
        server: KVServer,
        requests: Iterator[Request],
        timeout: float = 30.0,
    ) -> None:
        super().__init__(name="closed-loop", daemon=True)
        self.server = server
        self.requests = requests
        self.timeout = float(timeout)
        self.result = ClientResult()

    def _send_all(self) -> None:
        result = self.result
        for request in self.requests:
            if request.done is None:
                request.done = threading.Event()
            result.offered += 1
            try:
                admitted = self.server.submit(request, timeout=self.timeout)
            except ServeError:  # a failed lane (run_load raises it) or a stopped server
                break
            if not admitted:
                result.dropped += 1
                continue
            result.accepted += 1
            if not request.done.wait(timeout=self.timeout):
                result.timed_out += 1


@dataclass
class LoadSpec:
    """One load for :func:`run_load`.

    ``rate`` is the total offered rate (split over the clients) in
    open-loop mode; a closed loop instead keeps ``n_clients`` requests in
    flight. Each client gets an independent slice of the workload stream
    via a distinct seed offset.
    """

    workload: WorkloadSpec
    n_ops: int
    rate: float = 0.0  # requests/s, open loop only
    n_clients: int = 1
    closed_loop: bool = False
    mission_size: int = 1_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_ops < 1:
            raise WorkloadError(f"n_ops must be >= 1, got {self.n_ops}")
        if self.n_clients < 1:
            raise WorkloadError(f"n_clients must be >= 1, got {self.n_clients}")
        if not self.closed_loop and not (math.isfinite(self.rate) and self.rate > 0.0):
            raise WorkloadError(
                f"an open-loop load needs a finite rate > 0, got {self.rate}"
            )


@dataclass
class LoadReport:
    """Aggregated outcome of one :func:`run_load` call.

    All counters and the histogram cover *this call only* (the server's own
    metrics are lifetime-cumulative; :func:`run_load` snapshots them at
    entry and reports deltas). The one exception is ``max_queue_depth``,
    which is the server-lifetime maximum — a maximum cannot be
    differenced.
    """

    wall_seconds: float
    offered: int
    accepted: int
    completed: int
    dropped: int
    histogram: LatencyHistogram
    mean_queue_depth: float = 0.0
    max_queue_depth: int = 0
    timed_out: int = 0

    @property
    def throughput(self) -> float:
        """Completed requests per wall second."""
        return self.completed / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def offered_rate(self) -> float:
        return self.offered / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0


#: Wall seconds ``run_load`` waits, after its clients join, for the lanes to
#: serve what was accepted; a shortfall is then reported, not waited out.
DRAIN_TIMEOUT_S = 30.0


def run_load(server: KVServer, spec: LoadSpec) -> LoadReport:
    """Run ``spec``'s clients against a **started** server and wait for
    the traffic to finish; the server is left running (callers stop it).
    A failed lane stops its clients and is raised here at once (``ServeError``);
    any other exception a client raised is raised here once all have joined.

    Latency histograms are read *after* all clients join and the queues
    drain, so single-writer recording needs no synchronization.
    """
    base_completed = server.total_completed
    base_histogram = server.histogram()
    base_depth_samples = sum(l.depth_samples for l in server.lanes)
    base_depth_sum = sum(l.depth_sum for l in server.lanes)
    clients: List[_Client] = []
    # Split n_ops across clients exactly: the first (n_ops % n) clients
    # take one extra request; clients with no share are not spawned.
    base, extra = divmod(spec.n_ops, spec.n_clients)
    for c in range(spec.n_clients):
        per_client = base + (1 if c < extra else 0)
        if per_client == 0:
            continue
        stream = request_stream(
            _reseeded(spec.workload, spec.seed + 101 * c),
            per_client,
            mission_size=spec.mission_size,
            wait=spec.closed_loop,
        )
        if spec.closed_loop:
            clients.append(ClosedLoopClient(server, stream))
        else:
            clients.append(
                OpenLoopClient(
                    server, stream, rate=spec.rate / spec.n_clients, seed=spec.seed + 997 * c
                )
            )
    started = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    for client in clients:
        if client.error is not None:
            raise client.error
    # Let the lanes drain what the clients enqueued.
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    accepted = sum(c.result.accepted for c in clients)
    while (
        server.total_completed - base_completed < accepted
        and time.perf_counter() < deadline
        and all(lane.queue.error is None for lane in server.lanes)
    ):
        time.sleep(0.002)
    for lane in server.lanes:
        if lane.queue.error is not None:
            raise ServeError(f"lane {lane.index} failed under load") from lane.queue.error
    wall = time.perf_counter() - started
    results = [c.result for c in clients]
    # Report this call's delta against the server's cumulative metrics.
    depth_samples = (
        sum(l.depth_samples for l in server.lanes) - base_depth_samples
    )
    depth_sum = sum(l.depth_sum for l in server.lanes) - base_depth_sum
    return LoadReport(
        wall_seconds=wall,
        offered=sum(r.offered for r in results),
        accepted=accepted,
        completed=server.total_completed - base_completed,
        dropped=sum(r.dropped for r in results),
        histogram=server.histogram().diff(base_histogram),
        mean_queue_depth=depth_sum / depth_samples if depth_samples else 0.0,
        max_queue_depth=server.max_queue_depth(),
        timed_out=sum(r.timed_out for r in results),
    )


def _reseeded(workload: WorkloadSpec, seed: int) -> WorkloadSpec:
    """A copy of ``workload`` with its stream seed offset (same record
    space), so concurrent clients replay independent operation streams; a
    dynamic schedule is reseeded phase by phase. A workload with neither a
    ``seed`` nor ``phases`` is shared as-is: every ``missions()`` call is a
    fresh generator, so its clients replay one identical stream."""
    if hasattr(workload, "phases"):
        clone = copy.copy(workload)
        clone.phases = [  # type: ignore[attr-defined]
            replace(phase, spec=_reseeded(phase.spec, seed))
            for phase in workload.phases  # type: ignore[attr-defined]
        ]
        return clone
    if not hasattr(workload, "seed"):
        return workload
    clone = copy.copy(workload)
    try:
        clone.seed = workload.seed + seed  # type: ignore[attr-defined]
    except AttributeError:  # frozen dataclasses and friends
        return workload
    return clone
