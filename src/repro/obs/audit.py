"""Structured audit log of RL tuning decisions.

Every action the :class:`~repro.core.lerp.Lerp` tuner takes — which named
policy arm the DQN picked, which ΔK the per-level DDPG agents chose, the
exploration rate and reward behind each, detector-triggered exploration
restarts, the final policy commit — is appended as one structured
:class:`AuditEvent`. The log explains *why* the tuner did what it did,
which the mission-latency columns in ``bench_reports/`` cannot:
``scripts/decision_timeline.py`` replays a log into the per-window
decision table the ISSUE asks for.

The log is host-side bookkeeping only: events are recorded inside
``observe_mission``'s already-wall-timed block, consume no RNG draws and
charge no simulated time, so attaching a log leaves every simulated
observable bit-identical (the twin test in ``tests/test_obs.py``).

Persistence: an attached log is part of its tuner, so a tuner or store
snapshot carries it — once, however many tuners share it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class AuditEvent:
    """One tuning decision (or lifecycle event) with its context."""

    seq: int
    kind: str
    #: Mission window index the decision was made in (None for lifecycle
    #: events outside a mission, e.g. ``reset``).
    mission: Optional[int] = None
    #: Kind-specific fields (arm, epsilon, reward, ...) — JSON-able only.
    data: Dict[str, object] = field(default_factory=dict)


class DecisionAuditLog:
    """An append-only sequence of :class:`AuditEvent` records.

    One log may be shared by several tuners (``RusKey.attach_audit`` hands
    the same log to every shard's tuner). Events carry no shard: the
    sequence number gives them a total order, not an owner.
    """

    def __init__(self) -> None:
        self.events: List[AuditEvent] = []
        self._seq = 0

    def record(
        self,
        kind: str,
        mission: Optional[int] = None,
        **data: object,
    ) -> AuditEvent:
        """Append one event; returns it (callers may enrich ``data``)."""
        event = AuditEvent(seq=self._seq, kind=kind, mission=mission, data=data)
        self._seq += 1
        self.events.append(event)
        return event

    def filter(self, kind: Optional[str] = None) -> List[AuditEvent]:
        """Events of one kind (or all, in sequence order)."""
        if kind is None:
            return list(self.events)
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def export_jsonl(self, path: str) -> int:
        """One JSON object per event; returns the number written."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(asdict(event)) + "\n")
        return len(self.events)


def format_decision_timeline(
    log: DecisionAuditLog,
    policy_history: Optional[Sequence[Optional[str]]] = None,
) -> str:
    """Render a log as a per-window decision table.

    One row per ``policy_action`` / ``level_action`` event (the decisions),
    with ``restart`` / ``policy_commit`` / ``propagate`` events shown as
    interleaved marker rows. When ``policy_history`` (the engine's named
    policy after each mission, e.g. classified from
    ``RusKey.policy_history``) is given, a ``store`` column cross-checks
    that the arm the audit log claims matches what the engine applied.
    """
    header = (
        f"{'mission':>7} | {'event':<13} | {'arm / level':<14} | "
        f"{'explore':>8} | {'reward':>10} | {'store':<13} | notes"
    )
    rows = [header, "-" * len(header)]
    for event in log.events:
        mission = "" if event.mission is None else str(event.mission)
        data = event.data
        arm = ""
        explore = ""
        reward = ""
        store = ""
        notes = ""
        if event.kind == "policy_action":
            arm = str(data.get("arm", ""))
            explore = f"ε={data.get('epsilon', 0.0):.3f}"
            r = data.get("reward")
            reward = "" if r is None else f"{r:+.4f}"
            notes = (
                f"γ={data.get('lookup_fraction', 0.0):.2f}"
                + (" switch" if data.get("switched") else "")
            )
        elif event.kind == "level_action":
            arm = f"L{data.get('level', '?')} ΔK={data.get('delta', 0):+d}"
            explore = f"σ={data.get('sigma', 0.0):.3f}"
            r = data.get("reward")
            reward = "" if r is None else f"{r:+.4f}"
            notes = f"K={data.get('k', '?')}"
        elif event.kind == "policy_commit":
            arm = str(data.get("arm", ""))
            means = data.get("arm_means") or {}
            notes = "commit: " + ", ".join(
                f"{name}={value:.3e}" for name, value in means.items()
            )
        elif event.kind == "restart":
            notes = f"restart ({data.get('reason', '?')})"
        elif event.kind == "stage_commit":
            arm = f"L{data.get('level', '?')}"
            notes = f"learned K={data.get('k', '?')}"
        elif event.kind == "propagate":
            notes = f"propagate K={data.get('policies', '')}"
        else:
            notes = json.dumps(data, sort_keys=True, default=str)
        if (
            policy_history is not None
            and event.mission is not None
            and 0 <= event.mission < len(policy_history)
        ):
            named = policy_history[event.mission]
            store = "-" if named is None else str(named)
        rows.append(
            f"{mission:>7} | {event.kind:<13} | {arm:<14} | "
            f"{explore:>8} | {reward:>10} | {store:<13} | {notes}"
        )
    return "\n".join(rows) + "\n"
