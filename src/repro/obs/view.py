"""The telemetry view: a plain JSON-able dict of the objects' own records.

:func:`telemetry_view` reads an engine, a :class:`~repro.core.ruskey.RusKey`
store, a :class:`~repro.serve.server.KVServer` or a tuner and copies out
the records those objects already keep — each shard's
:class:`~repro.lsm.stats.EngineView`, a durable shard's ``telemetry`` and
last :class:`~repro.durable.store.RecoveryReport`, the tuners' restart and
convergence state, the decision audit events, one row per mission window
and each serving lane's latency histogram. It only reads: it is built on
demand, is never saved, and has no simulated impact by construction.

Keys (each present where the object has it)::

    shards   one asdict(EngineView) per tuning target, in tuning_targets()
             order; a DurableStore adds telemetry, acked_seqno, last_recovery
    tuners   restarts / converged / total_model_update_s per distinct tuner
    audit    every event of every distinct audit log, once
    windows  a store's asdict(MissionStats) + policies per mission, or a
             server's asdict(ServerWindow)
    lanes    a server's completed / rejected and latency histogram per lane
    missions_run, mean_latency   a store's controller summary
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List

#: What a learned tuner reports about itself (a static tuner has none).
TUNER_FIELDS = ("restarts", "converged", "total_model_update_s")


def shard_records(engine) -> List[Dict[str, Any]]:
    """One record per tuning target: its ``view()``, plus a durable
    shard's file telemetry and last recovery."""
    records = []
    for tree in engine.tuning_targets():
        record = asdict(tree.view())
        report = getattr(tree, "last_recovery", None)
        if report is not None:  # a DurableStore
            record.update(
                telemetry=dict(tree.telemetry),
                acked_seqno=tree.acked_seqno,
                last_recovery=report._asdict(),
            )
        records.append(record)
    return records


def audit_logs(tuners) -> list:
    """The distinct audit logs of the distinct tuners, in tuner order."""
    return list(
        dict.fromkeys(
            tuner.audit
            for tuner in dict.fromkeys(tuners)
            if getattr(tuner, "audit", None) is not None
        )
    )


def histogram_record(hist) -> Dict[str, float]:
    """Exact count / sum / min / max / mean and estimated percentiles (s)."""
    return dict(
        count=hist.count,
        sum=hist.sum,
        min=hist.min_seen if hist.count else 0.0,
        max=hist.max_seen,
        mean=hist.mean,
        **hist.percentile_summary(unit="s"),
    )


def telemetry_view(obj) -> Dict[str, Any]:
    """The view of an engine, a store, a server or a tuner (module doc)."""
    if hasattr(obj, "tuning_targets"):
        return {"shards": shard_records(obj)}
    tuners = getattr(obj, "tuners", [obj])
    view: Dict[str, Any] = {
        "tuners": [
            {name: getattr(tuner, name) for name in TUNER_FIELDS if hasattr(tuner, name)}
            for tuner in dict.fromkeys(tuners)
        ],
        "audit": [asdict(event) for log in audit_logs(tuners) for event in log.events],
    }
    if hasattr(obj, "mission_log"):  # a RusKey store
        view.update(
            shards=shard_records(obj.engine),
            missions_run=obj.missions_run,
            mean_latency=obj.mean_latency(),
            windows=[
                dict(asdict(stats), policies=policies)
                for stats, policies in zip(obj.mission_log, obj.policy_history)
            ],
        )
    elif hasattr(obj, "lanes"):  # a KVServer
        view.update(
            shards=shard_records(obj.engine),
            windows=[asdict(window) for window in list(obj.windows)],
            lanes=[
                {
                    "completed": lane.completed,
                    "rejected": lane.rejected,
                    "latency": histogram_record(lane.histogram),
                }
                for lane in obj.lanes
            ],
        )
    return view
