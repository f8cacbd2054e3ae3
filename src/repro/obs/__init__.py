"""Unified telemetry: the view, span tracing, RL decision audit.

Three layers, one contract (DESIGN.md §12):

* :mod:`repro.obs.view` — :func:`telemetry_view`, a plain JSON-able dict
  of the records an engine, store, server or tuner already keeps (each
  shard's ``EngineView``, durable telemetry, tuner state, audit events,
  one row per mission window, lane latency histograms). It reads on
  demand and is never saved;
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

``python -m repro.obs`` prints the view of a live demo run or of an
engine, store or tuner snapshot file from ``repro.persist`` as JSON.
"""

from repro.obs.audit import (
    AuditEvent,
    DecisionAuditLog,
    format_decision_timeline,
)
from repro.obs.trace import Span, Tracer, stage_totals
from repro.obs.view import telemetry_view

__all__ = [
    "AuditEvent",
    "DecisionAuditLog",
    "Span",
    "Tracer",
    "stage_totals",
    "format_decision_timeline",
    "telemetry_view",
]
