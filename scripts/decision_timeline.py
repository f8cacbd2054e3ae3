#!/usr/bin/env python
"""Replay a tuned policy-matrix run into a per-mission decision timeline.

Runs the ``Lerp+policy`` arm of the dynamic policy-matrix experiment with
a :class:`repro.obs.audit.DecisionAuditLog` attached, then renders the
log as a table — one row per DQN arm pick with its ε, reward and whether
the store actually switched — cross-checked against the controller's
recorded per-mission policy history (the ``store`` column). Written to
``bench_reports/decision_timeline.txt``.

The audit log is pure host-side observation: this run's mission
latencies, clocks and policies are bit-identical to the same run without
the log attached (``tests/test_obs.py`` proves it on a twin run).

Usage::

    PYTHONPATH=src [REPRO_BENCH_SCALE=quick] python scripts/decision_timeline.py
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import bench_scale, policy_matrix_experiment  # noqa: E402
from repro.bench.harness import build_store  # noqa: E402
from repro.lsm.policy import classify_policies  # noqa: E402
from repro.obs.audit import (  # noqa: E402
    DecisionAuditLog,
    format_decision_timeline,
)

REPORT_PATH = REPO_ROOT / "bench_reports" / "decision_timeline.txt"


def build_timeline(seed: int = 0):
    """Run the tuned arm with an audit log; returns (text, log, store)."""
    scale = bench_scale()
    experiment = policy_matrix_experiment("dynamic", scale=scale, seed=seed)
    system = next(s for s in experiment.systems if s.name == "Lerp+policy")
    store = build_store(experiment, system)
    audit = DecisionAuditLog()
    store.attach_audit(audit)
    missions = experiment.workload.missions(
        experiment.n_missions, experiment.mission_size
    )
    store.run_missions(missions)
    size_ratio = store.config.size_ratio
    named_history = [
        classify_policies(policies, size_ratio)
        for policies in store.policy_history
    ]
    text = format_decision_timeline(audit, policy_history=named_history)
    return text, audit, store, named_history


def check_consistency(audit, named_history) -> int:
    """Every audited arm decision must match what the engine applied.

    The *last* policy-affecting event of a mission wins: when a stage
    completes, ``_commit_policy`` may override that mission's exploratory
    arm pick in the same observe call, and the controller's history (the
    classified policy after the mission) records the committed arm.
    Returns the number of mismatches.
    """
    last_arm = {}
    for event in audit.events:
        if event.kind in ("policy_action", "policy_commit"):
            if event.mission is not None:
                last_arm[event.mission] = str(event.data.get("arm"))
    mismatches = 0
    for i, arm in sorted(last_arm.items()):
        if not 0 <= i < len(named_history):
            continue
        applied = named_history[i]
        if applied is not None and applied != arm:
            print(
                f"MISMATCH: mission {i}: audit arm {arm!r} "
                f"vs engine policy {applied!r}",
                file=sys.stderr,
            )
            mismatches += 1
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output", default=str(REPORT_PATH), metavar="PATH",
        help=f"report destination (default {REPORT_PATH})",
    )
    args = parser.parse_args(argv)

    text, audit, store, named_history = build_timeline(seed=args.seed)
    actions = audit.filter("policy_action")
    if not actions:
        print("FAIL: the tuned run produced no policy_action audit events")
        return 1
    mismatches = check_consistency(audit, named_history)

    scale = bench_scale()
    header = (
        f"Decision timeline — policy-matrix dynamic, Lerp+policy arm "
        f"(scale={scale.name}, seed={args.seed})\n"
        f"{len(audit)} audit events over {store.missions_run} missions: "
        f"{len(actions)} arm picks, "
        f"{len(audit.filter('policy_commit'))} commits, "
        f"{len(audit.filter('restart'))} restarts\n\n"
    )
    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(header + text)
    print(header + text, end="")
    print(f"wrote {out}", file=sys.stderr)
    if mismatches:
        print(f"FAIL: {mismatches} audit/engine mismatches", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
