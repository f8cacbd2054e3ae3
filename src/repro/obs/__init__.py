"""Unified telemetry: metrics registry, span tracing, RL decision audit.

Three layers, one contract (DESIGN.md §12):

* :mod:`repro.obs.metrics` — labeled counter/gauge/histogram families
  with Prometheus-text + JSON exposition (``MetricsRegistry.render()``).
  A registry is a view: :mod:`repro.obs.collect` builds it from live or
  restored objects on demand; it is never merged or persisted, and a
  histogram series is a :class:`~repro.serve.latency.LatencyHistogram`;
* :mod:`repro.obs.trace` — nested wall-clock spans through
  ``KVServer._serve_batch`` → ``ShardedStore`` → ``LSMTree``, each batch
  span lapped per pipeline stage, with deterministic sampling and JSONL
  export;
* :mod:`repro.obs.audit` — structured audit log of every RL tuning
  decision (arm, ε, reward, detector restarts), replayable into a
  per-mission decision timeline.

The contract: telemetry observes the host wall clock only. It never
charges the simulated clock, never draws from the Bloom RNG stream and
never touches engine counters — instrumented-on and instrumented-off
runs are bit-identical in every simulated observable, and disabled
instrumentation costs one ``is None`` test per stage boundary.

``python -m repro.obs`` renders the registry view of a live demo run or
of an engine, store or tuner snapshot file from ``repro.persist``.
"""

from repro.obs.audit import (
    AuditEvent,
    DecisionAuditLog,
    format_decision_timeline,
)
from repro.obs.collect import (
    collect_durable_metrics,
    collect_engine_metrics,
    collect_server_metrics,
    collect_store_metrics,
    collect_tuner_metrics,
)
from repro.obs.metrics import Counter, Gauge, MetricFamily, MetricsRegistry
from repro.obs.trace import Span, Tracer, stage_totals

__all__ = [
    "AuditEvent",
    "Counter",
    "DecisionAuditLog",
    "Gauge",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "stage_totals",
    "collect_durable_metrics",
    "collect_engine_metrics",
    "collect_server_metrics",
    "collect_store_metrics",
    "collect_tuner_metrics",
    "format_decision_timeline",
]
