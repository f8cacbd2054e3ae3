"""Telemetry CLI: render the registry view of a snapshot or a demo run.

Examples::

    # Metrics view of a repro.persist snapshot (the engine / store / tuner
    # kind is read from the file; the view is rebuilt from the restored
    # objects):
    python -m repro.obs run.ckpt
    python -m repro.obs run.ckpt --format json

    # Decision timeline replay of an audit-carrying snapshot:
    python -m repro.obs run.ckpt --timeline

    # Self-contained demo: short tuned run with tracing + audit on,
    # printing the Prometheus exposition, a span tree and the timeline:
    python -m repro.obs --demo
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Tuple

from repro.errors import ReproError
from repro.obs.audit import DecisionAuditLog, format_decision_timeline
from repro.obs.collect import (
    collect_engine_metrics,
    collect_store_metrics,
    collect_tuner_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _registry_from_snapshot(
    path: str,
) -> Tuple[MetricsRegistry, Optional[DecisionAuditLog]]:
    """Rebuild the snapshotted component and collect its registry view.

    Engine/store/tuner state round-trips bit-exactly, so the collected
    registry equals the live system's view at snapshot time.
    """
    from repro.persist import load_snapshot

    payload = load_snapshot(path)
    kind, restored = payload["kind"], payload["object"]
    if kind == "engine":
        return collect_engine_metrics(restored), None
    if kind == "store":
        registry = collect_store_metrics(restored)
        # Tuners restored from one store share the log they shared live.
        audits = list(
            dict.fromkeys(
                t.audit
                for t in restored.tuners
                if getattr(t, "audit", None) is not None
            )
        )
        merged: Optional[DecisionAuditLog] = None
        if len(audits) == 1:
            merged = audits[0]
        elif audits:
            merged = DecisionAuditLog()
            for audit in audits:
                for event in audit.events:
                    merged.record(event.kind, event.mission, **event.data)
        return registry, merged
    if kind == "tuner":
        return collect_tuner_metrics([restored]), getattr(restored, "audit", None)
    raise ReproError(
        f"snapshot kind {kind!r} has no registry view "
        "(expected engine / store / tuner)"
    )


def _run_demo(missions: int, fmt: str) -> int:
    """A tiny tuned run with every telemetry layer enabled."""
    from repro.core.lerp import LerpConfig
    from repro.core.ruskey import RusKey
    from repro.workload import UniformWorkload

    workload = UniformWorkload(n_records=4000, lookup_fraction=0.5, seed=7)
    # A short burn-in so a handful of demo missions already produces
    # auditable decisions (the default 5-mission burn-in would swallow
    # the whole demo stream).
    store = RusKey(n_shards=2, lerp_config=LerpConfig(burn_in_missions=1))
    audit = DecisionAuditLog()
    store.attach_audit(audit)
    tracer = Tracer(sample_every=2)
    store.engine.set_tracer(tracer)
    keys, values = workload.load_records()
    store.bulk_load(keys, values)
    for mission in workload.missions(missions, 600):
        store.run_mission(mission)
    print(collect_store_metrics(store).render(fmt))
    print(f"--- spans (kept {tracer.roots_kept}/{tracer.roots_seen} roots)")
    for root in tracer.spans()[:3]:
        _print_span(root)
    print("--- decision timeline")
    print(format_decision_timeline(audit), end="")
    return 0


def _print_span(span, depth: int = 0) -> None:
    print(f"{'  ' * depth}{span.name}  {span.duration * 1e3:.3f}ms")
    for child in span.children:
        _print_span(child, depth + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "snapshot",
        nargs="?",
        help="a repro.persist snapshot file (engine/store/tuner kind)",
    )
    parser.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="exposition format (default: prometheus text)",
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="print the decision-timeline replay instead of metrics",
    )
    parser.add_argument(
        "--output", help="write to this file instead of stdout"
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run a short tuned mission stream with all telemetry enabled",
    )
    parser.add_argument(
        "--missions",
        type=int,
        default=6,
        help="demo mission count (default 6)",
    )
    args = parser.parse_args(argv)
    if args.demo:
        return _run_demo(args.missions, args.format)
    if not args.snapshot:
        parser.error("pass a snapshot path or --demo")
    try:
        registry, audit = _registry_from_snapshot(args.snapshot)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.timeline:
        if audit is None or len(audit) == 0:
            print(
                "error: snapshot carries no decision audit events",
                file=sys.stderr,
            )
            return 1
        text = format_decision_timeline(audit)
    else:
        text = registry.render(args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
