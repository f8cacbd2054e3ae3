"""Unified telemetry: metrics registry, span tracing, RL decision audit.

Three layers, one contract (DESIGN.md §12):

* :mod:`repro.obs.metrics` — labeled counter/gauge/histogram families
  with associative cross-shard merge and Prometheus-text + JSON
  exposition (``MetricsRegistry.render()``);
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
of any ``repro.persist`` snapshot file.
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
from repro.obs.metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricFamily,
    MetricsRegistry,
    flatten_numeric,
    parse_prometheus_text,
    registry_from_payload,
)
from repro.obs.trace import Span, Tracer, stage_totals

__all__ = [
    "AuditEvent",
    "Counter",
    "DecisionAuditLog",
    "Gauge",
    "HistogramMetric",
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
    "flatten_numeric",
    "format_decision_timeline",
    "parse_prometheus_text",
    "registry_from_payload",
]
