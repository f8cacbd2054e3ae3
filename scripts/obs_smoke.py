#!/usr/bin/env python
"""CI smoke for the telemetry subsystem (DESIGN.md §12).

Runs the same short tuned, sharded workload twice — once with every
telemetry layer enabled (metrics collection, serve-path tracing, decision
audit) and once bare — and asserts the **zero-sim-impact contract**:
every simulated observable is bit-identical between the twins. Then
exercises the observable surface of the instrumented twin end to end:

* the registry view carries the engine families, its shard-labeled
  simulated clocks sum to the store's clock, and both renders work;
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
    collect_store_metrics,
    format_decision_timeline,
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

    # --- 2. exposition ------------------------------------------------
    registry = collect_store_metrics(inst)
    for family in ("repro_sim_clock_seconds", "repro_ops",
                   "repro_engine_entries", "repro_missions"):
        assert registry.get(family) is not None, f"missing family {family}"
    clocks = [c.value for _, c in registry.get("repro_sim_clock_seconds").series()]
    assert len(clocks) == 2 and abs(sum(clocks) - clock_now) < 1e-9
    prom = registry.render("prometheus")
    assert "# TYPE repro_sim_clock_seconds counter" in prom.splitlines()
    json.loads(registry.render("json"))
    print(f"ok: registry view sums to the clock over {len(clocks)} shards, "
          f"prometheus ({len(prom.splitlines())} lines) and json render")

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
