"""Concurrent serving subsystem: live traffic over simulated engines.

Layers (DESIGN.md §7):

* :mod:`repro.serve.latency` — mergeable log-bucketed latency histograms;
* :mod:`repro.serve.server` — :class:`KVServer`, per-shard worker lanes
  with bounded queues, the background tuning loop, live checkpointing;
* :mod:`repro.serve.loadgen` — open-loop (Poisson) and closed-loop clients
  replaying the deterministic workload generators as timed request
  streams, including multi-tenant mixes;
* :mod:`repro.serve.experiments` — the canonical serving comparison
  (static vs Lerp-tuned × shard counts) behind the
  ``serving_tail_latency`` benchmark and the ``python -m repro.serve`` CLI.
"""

from repro.serve.latency import LatencyHistogram
from repro.serve.locks import ordered_lane_locks
from repro.serve.loadgen import (
    ClientResult,
    ClosedLoopClient,
    LoadReport,
    OpenLoopClient,
    TenantSpec,
    request_stream,
    requests_from_mission,
    run_load,
)
from repro.serve.server import (
    REQ_DELETE,
    REQ_GET,
    REQ_PUT,
    REQ_RANGE,
    KVServer,
    Request,
    ServerWindow,
)
from repro.serve.experiments import (
    ServingRun,
    ServingScale,
    build_server,
    format_serving_report,
    run_serving_comparison,
    run_serving_config,
    serving_scale,
)

__all__ = [
    "LatencyHistogram",
    "ordered_lane_locks",
    "KVServer",
    "Request",
    "ServerWindow",
    "REQ_GET",
    "REQ_PUT",
    "REQ_DELETE",
    "REQ_RANGE",
    "OpenLoopClient",
    "ClosedLoopClient",
    "TenantSpec",
    "ClientResult",
    "LoadReport",
    "run_load",
    "request_stream",
    "requests_from_mission",
    "ServingRun",
    "ServingScale",
    "serving_scale",
    "build_server",
    "run_serving_config",
    "run_serving_comparison",
    "format_serving_report",
]
