"""A/A mode: run the suite N times on one commit and show what repeats.

``python3 -m perfbench --aa N`` prints, per workload × metric, min / median
/ max, (max − min) ÷ median and the quartile distance ÷ median. End-to-end
metrics are held against their bound; the wall-clock metrics that were
demoted to per-layer (:data:`UNGATED_WALL`) are held against
:data:`PROMOTION_RANGE`, the spread they would have to keep to be promoted,
and never fail the run. It exits non-zero when an end-to-end range exceeds
its bound, a run is incorrect, or an offline ``sim_us_per_op`` is not
bit-identical across the runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional

from perfbench.runner import run_suite
from perfbench.stats import iqr_share, range_share

#: Workloads whose simulated clock must repeat bit for bit on one seed.
EXACT_SIM = ("offline_dynamic", "offline_sharded_scan")
#: Wall-clock metrics reported per-layer because they do not repeat within
#: :data:`PROMOTION_RANGE` on every workload (see README, "un-gated").
UNGATED_WALL = ("ops_per_s", "p50_ms", "p90_ms")
#: ISSUE 12: an end-to-end metric holds (max − min) ÷ median within a tenth
#: inside each A/A set, or it is per-layer.
PROMOTION_RANGE = 0.10


def aa_rows(runs: List[Dict[str, dict]], spec: dict):
    """One row per workload × (end-to-end or un-gated wall) metric;
    ``ok`` is False on a breach, None for a metric that gates nothing."""
    wall = [m for m in spec["per_layer"] if m["name"] in UNGATED_WALL]
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"] + wall:
            name = metric["name"]
            values = [run[workload]["metrics"][name] for run in runs]
            spread = range_share(values)
            gated = "bound" in metric
            ok = spread <= metric["bound"] if gated else None
            if name == "sim_us_per_op" and workload in EXACT_SIM:
                ok = len(set(values)) == 1
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "min": min(values), "median": statistics.median(values),
                "max": max(values), "range": spread,
                "iqr": iqr_share(values),
                "bound": metric["bound"] if gated else PROMOTION_RANGE,
                "ok": ok,
            })
    return rows


def format_rows(rows) -> str:
    lines = [
        f"{'workload':22s} {'metric':14s} {'min':>12s} {'median':>12s} "
        f"{'max':>12s} {'range':>7s} {'iqr':>7s} {'bound':>6s}"
    ]
    for r in rows:
        if r["ok"] is None:
            note = "  un-gated" + (
                "" if r["range"] <= r["bound"] else ", does not repeat"
            )
        else:
            note = "" if r["ok"] else "  BREACH"
        lines.append(
            f"{r['workload']:22s} {r['metric']:14s} {r['min']:12.4f} "
            f"{r['median']:12.4f} {r['max']:12.4f} {r['range']:7.2%} "
            f"{r['iqr']:7.2%} {r['bound']:6.0%}{note}"
        )
    return "\n".join(lines)


def run_aa(n: int, seed: int, seconds: float, setup_runs: int, spec: dict,
           json_path: Optional[str]) -> int:
    runs = []
    for i in range(n):
        print(f"perfbench: A/A run {i + 1} of {n}", file=sys.stderr)
        runs.append(run_suite(seed, seconds, False, setup_runs, spec))
    if json_path:
        with open(json_path, "w") as handle:
            json.dump({"runs": runs}, handle, indent=1)
    rows = aa_rows(runs, spec)
    print(format_rows(rows))
    correct = all(r["correct"] for run in runs for r in run.values())
    if not correct:
        print("perfbench: a run was incorrect", file=sys.stderr)
    return 0 if correct and all(r["ok"] is not False for r in rows) else 1
