"""Telemetry CLI: print the view of a snapshot or a demo run as JSON.

Examples::

    # The view of a repro.persist snapshot (the engine / store / tuner kind
    # is read from the file; the view is read from the restored objects):
    python -m repro.obs run.ckpt

    # Decision timeline replay of an audit-carrying snapshot:
    python -m repro.obs run.ckpt --timeline

    # Self-contained demo: short tuned run with tracing + audit on,
    # printing the view, a span tree and the timeline:
    python -m repro.obs --demo

A snapshot holding a DurableStore is refused: loading one reattaches its
data directory (DESIGN.md §6), sweeping it and opening its writers, and a
viewer must not touch a directory a live store may hold.
"""

from __future__ import annotations

import argparse
import io
import json
import pickle
import sys

from repro.durable.store import DurableStore
from repro.errors import ObsError, ReproError
from repro.lsm.policy import classify_policies
from repro.obs.audit import DecisionAuditLog, format_decision_timeline
from repro.obs.trace import Tracer
from repro.obs.view import audit_logs, telemetry_view
from repro.persist.snapshot import read_envelope


class _NoDurableUnpickler(pickle.Unpickler):
    """Refuses the graph at its first DurableStore class reference, which
    precedes every DurableStore ``__setstate__``."""

    def find_class(self, module, name):
        cls = super().find_class(module, name)
        if isinstance(cls, type) and issubclass(cls, DurableStore):
            raise ObsError(
                "the snapshot holds a DurableStore, and loading a durable "
                "snapshot reattaches its data directory; open that directory "
                "with DurableStore instead of viewing the snapshot"
            )
        return cls


def _load(path: str):
    """``(kind, object)`` of an engine / store / tuner snapshot."""
    envelope = read_envelope(path)
    kind = envelope["kind"]
    if kind not in ("engine", "store", "tuner"):
        raise ObsError(
            f"snapshot kind {kind!r} has no view (expected engine / store / tuner)"
        )
    return kind, _NoDurableUnpickler(io.BytesIO(envelope["object"])).load()


def _timeline(kind: str, restored) -> str:
    """The decision timeline of the restored tuners' audit events, with the
    store column filled from a store's policy history."""
    audit = DecisionAuditLog()
    for log in audit_logs(getattr(restored, "tuners", [restored])):
        for event in log.events:
            audit.record(event.kind, event.mission, **event.data)
    if len(audit) == 0:
        raise ObsError("snapshot carries no decision audit events")
    history = None
    if kind == "store":
        size_ratio = restored.config.size_ratio
        history = [classify_policies(p, size_ratio) for p in restored.policy_history]
    return format_decision_timeline(audit, history)


def _run_demo(missions: int) -> int:
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
    print(json.dumps(telemetry_view(store), indent=2, sort_keys=True))
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
        "--timeline",
        action="store_true",
        help="print the decision-timeline replay instead of the view",
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
        return _run_demo(args.missions)
    if not args.snapshot:
        parser.error("pass a snapshot path or --demo")
    try:
        kind, restored = _load(args.snapshot)
        if args.timeline:
            text = _timeline(kind, restored)
        else:
            text = json.dumps(telemetry_view(restored), indent=2, sort_keys=True)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
