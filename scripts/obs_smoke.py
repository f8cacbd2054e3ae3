#!/usr/bin/env python
"""CI smoke for the telemetry subsystem (DESIGN.md §12).

Runs the same short tuned, sharded workload twice — once with every
telemetry layer enabled (the view, engine-path tracing, decision
audit) and once bare — and asserts the **zero-sim-impact contract**:
every simulated observable is bit-identical between the twins. Then
exercises the observable surface of the instrumented twin end to end:

* the view's per-shard simulated clocks sum to the store's clock, and its
  JSON round-trips;
* the sampled span export is valid JSONL with nested engine spans;
* the audit log is non-empty and renders as a decision timeline.

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.lerp import LerpConfig  # noqa: E402
from repro.core.ruskey import RusKey  # noqa: E402
from repro.obs import (  # noqa: E402
    DecisionAuditLog,
    Tracer,
    format_decision_timeline,
    telemetry_view,
)
from repro.workload import UniformWorkload  # noqa: E402

N_MISSIONS = 10
MISSION_SIZE = 500


def run_twin(instrumented: bool):
    """One short tuned run; returns (store, tracer, audit)."""
    workload = UniformWorkload(n_records=5000, lookup_fraction=0.5, seed=11)
    store = RusKey(n_shards=2, lerp_config=LerpConfig(burn_in_missions=1))
    tracer = audit = None
    if instrumented:
        tracer = Tracer(sample_every=3)
        store.engine.set_tracer(tracer)
        audit = DecisionAuditLog()
        store.attach_audit(audit)
    keys, values = workload.load_records()
    store.bulk_load(keys, values)
    for mission in workload.missions(N_MISSIONS, MISSION_SIZE):
        store.run_mission(mission)
    return store, tracer, audit


def simulated_fingerprint(store) -> dict:
    """Every simulated observable a telemetry layer could have perturbed."""
    return {
        "view": store.view(),
        "mission_log": store.mission_log,
        "policy_history": store.policy_history,
    }


def main() -> int:
    bare, _, _ = run_twin(instrumented=False)
    inst, tracer, audit = run_twin(instrumented=True)

    # --- 1. bit-identity twin check -----------------------------------
    fp_bare = simulated_fingerprint(bare)
    fp_inst = simulated_fingerprint(inst)
    for key in fp_bare:
        assert fp_bare[key] == fp_inst[key], (
            f"telemetry perturbed simulated observable {key!r}:\n"
            f"  bare: {fp_bare[key]!r}\n  inst: {fp_inst[key]!r}"
        )
    clock_now = fp_inst["view"].clock_now
    print(f"ok: engine view, {len(inst.mission_log)} mission records and "
          f"policy history bit-identical (clock={clock_now:.6f}s)")

    # --- 2. the view ------------------------------------------------
    view = telemetry_view(inst)
    clocks = [shard["clock_now"] for shard in view["shards"]]
    assert len(clocks) == 2 and abs(sum(clocks) - clock_now) < 1e-9
    text = json.dumps(view, indent=2, sort_keys=True)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text
    assert len(view["windows"]) == N_MISSIONS
    print(f"ok: view sums to the clock over {len(clocks)} shards, "
          f"{len(view['windows'])} windows, JSON round-trips "
          f"({len(text.splitlines())} lines)")

    # --- 3. spans -----------------------------------------------------
    assert tracer.roots_seen > 0 and tracer.roots_kept > 0
    with tempfile.TemporaryDirectory() as tmp:
        span_path = str(pathlib.Path(tmp) / "spans.jsonl")
        written = tracer.export_jsonl(span_path)
        names, stages = set(), set()
        with open(span_path) as fh:
            for line in fh:
                root = json.loads(line)
                names.add(root["name"])
                for child in root.get("children", ()):
                    names.add(child["name"])
                    stages.update(child.get("stages", ()))
        assert written > 0
        assert any(n.startswith("store.") for n in names), names
        assert any(n.startswith("lsm.") for n in names), names
        assert {"memtable", "search"} <= stages, stages  # laps were taken
        print(f"ok: {written} sampled span trees exported "
              f"({tracer.roots_kept}/{tracer.roots_seen} roots kept)")

    # --- 4. audit + timeline ------------------------------------------
    assert audit is not None and len(audit) > 0
    timeline = format_decision_timeline(audit)
    assert "level_action" in timeline or "policy_action" in timeline
    print(f"ok: audit log carries {len(audit)} decision events")

    print("obs smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
