"""``python3 -m perfbench.compare A.json B.json``: did B get worse than A?

A and B are result files written by ``python3 -m perfbench --json`` or
``--aa N --json`` (one or many runs of the suite). One row per workload ×
end-to-end metric: both medians with their quartiles, the delta as a share
of A's median, the bound, and a verdict:

* ``unresolved`` — either side has fewer than :data:`MIN_RUNS` runs, or a
  quartile distance ÷ median that exceeds the bound: the runs cannot tell;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than either side's
  quartile distance;
* ``unchanged`` — otherwise.

The wall-clock metrics that are reported un-gated (``aa.UNGATED_WALL``)
follow in the same form, judged against ``aa.PROMOTION_RANGE`` and marked
``*``: they inform, they reject nothing. Underneath, the per-layer self
times of the traced passes (when the files hold any), as medians and their
delta.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List

from perfbench.aa import PROMOTION_RANGE, UNGATED_WALL
from perfbench.runner import load_spec
from perfbench.stats import iqr_share, quartiles, worse_by

#: Fewer runs than this on either side cannot show a spread (a single run
#: has a quartile distance of 0), so the verdict is ``unresolved``.
MIN_RUNS = 5


def load_runs(path: str) -> List[Dict[str, dict]]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    if min(len(a), len(b)) < MIN_RUNS:
        return "unresolved"
    if max(iqr_share(a), iqr_share(b)) > bound:
        return "unresolved"
    worse = worse_by(statistics.median(a), statistics.median(b), better)
    if worse > bound:
        return "worse"
    if -worse > max(iqr_share(a), iqr_share(b)):
        return "better"
    return "unchanged"


def layer_medians(runs, workload: str) -> Dict[str, float]:
    """Median self seconds per layer over the runs that traced."""
    traced = [
        run[workload]["layer_self_s"] for run in runs
        if run.get(workload, {}).get("layer_self_s")
    ]
    return {
        layer: statistics.median(t.get(layer, 0.0) for t in traced)
        for layer in {k for t in traced for k in t}
    }


def compare(runs_a, runs_b, spec) -> str:
    lines = [
        f"{'workload':22s} {'metric':14s} "
        f"{'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s} "
        f"{'B vs A':>8s} {'bound':>6s}  verdict"
    ]

    def cell(values):
        q1, q2, q3 = quartiles(values)
        return f"{q2:12.4f} [{q1:10.4f},{q3:10.4f}]"

    wall = [m for m in spec["per_layer"] if m["name"] in UNGATED_WALL]
    for workload in (w["name"] for w in spec["workloads"]):
        if not all(workload in run for run in runs_a + runs_b):
            continue
        for metric in spec["end_to_end"] + wall:
            name = metric["name"]
            bound = metric.get("bound", PROMOTION_RANGE)
            a = [run[workload]["metrics"][name] for run in runs_a]
            b = [run[workload]["metrics"][name] for run in runs_b]
            base = statistics.median(a)
            delta = (statistics.median(b) - base) / base if base else 0.0
            lines.append(
                f"{workload:22s} {name:14s} {cell(a):>36s} {cell(b):>36s} "
                f"{delta:+8.2%} {bound:6.0%}  "
                f"{verdict(a, b, metric['better'], bound)}"
                f"{'' if 'bound' in metric else ' *'}"
            )
    layer_lines = []
    for workload in (w["name"] for w in spec["workloads"]):
        a = layer_medians(runs_a, workload)
        b = layer_medians(runs_b, workload)
        for layer in sorted(set(a) | set(b)):
            layer_lines.append(
                f"{workload:22s} {layer:16s} {a.get(layer, 0.0):12.4f} "
                f"{b.get(layer, 0.0):12.4f} "
                f"{b.get(layer, 0.0) - a.get(layer, 0.0):+10.4f}"
            )
    lines.append("* reported, not gated")
    if layer_lines:
        lines.append("")
        lines.append(
            f"{'workload':22s} {'layer self time':16s} {'A median s':>12s} "
            f"{'B median s':>12s} {'B - A':>10s}"
        )
        lines.extend(layer_lines)
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 -m perfbench.compare A.json B.json",
              file=sys.stderr)
        return 2
    print(compare(load_runs(argv[0]), load_runs(argv[1]), load_spec()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
