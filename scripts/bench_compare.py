#!/usr/bin/env python
"""Machine-readable perf trajectory: collect + compare benchmark metrics.

The benchmark suite writes one JSON file per benchmark under
``bench_reports/metrics/`` (see ``benchmarks/_common.emit_metrics``). This
script has two jobs, usually run as one CI step:

1. **Collect** (``--collect DIR``): merge the per-benchmark files into a
   single ``BENCH_PR.json`` trajectory snapshot (uploaded as a CI
   artifact).
2. **Compare** (``--baseline FILE``): diff the snapshot against the
   committed ``BENCH_BASELINE.json``. Every column is simulated
   (SimClock totals, simulated latencies, operation/IO counts) and so
   deterministic at a fixed scale and seed: any drift beyond float-print
   tolerance (``--sim-threshold``, default 1e-9 relative) is a **hard
   failure**, as is a column dropped from the PR snapshot. An intended
   simulation change must regenerate the committed baseline in the same
   PR. Host time is not compared here — it is measured by ``perfbench/``.

   A benchmark present in the baseline but missing from the PR snapshot
   also fails hard (a silently skipped or deleted benchmark is exactly
   the regression this pipeline exists to catch).

One record is produced outside pytest: ``scripts/crash_smoke.py`` emits
``crash_recovery`` (kill-point matrix: recovered-op, manifest-record and
replayed-record counts). Run it before collecting so the baseline's
record is never reported missing.

Usage (CI)::

    python scripts/crash_smoke.py
    python scripts/bench_compare.py \
        --collect bench_reports/metrics \
        --pr bench_reports/BENCH_PR.json \
        --baseline BENCH_BASELINE.json

Regenerate the committed baseline after an intentional simulation change
(clear the metrics dir first — it accumulates across local runs, and
collect skips files stamped with a different scale)::

    rm -rf bench_reports/metrics
    REPRO_BENCH_SCALE=quick python -m pytest -q benchmarks
    REPRO_BENCH_SCALE=quick PYTHONPATH=src python scripts/crash_smoke.py
    REPRO_BENCH_SCALE=quick python scripts/bench_compare.py \
        --collect bench_reports/metrics --pr BENCH_BASELINE.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, Tuple

SCHEMA_VERSION = 1

#: Relative drift beyond which a field is a hard failure. Every column is
#: simulated and bit-deterministic at a fixed scale and seed; the tolerance
#: only absorbs float printing, not real drift.
SIM_THRESHOLD = 1e-9

def collect(metrics_dir: str, scale: str) -> Dict[str, object]:
    """Merge per-benchmark metric files into one trajectory snapshot.

    The metrics dir accumulates across local runs at possibly different
    scales; files stamped with a scale other than the active one are
    skipped (with a note) so a stale default-scale record can neither
    enter a quick-scale baseline nor flip the snapshot's scale stamp.
    """
    benchmarks: Dict[str, object] = {}
    if os.path.isdir(metrics_dir):
        for name in sorted(os.listdir(metrics_dir)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(metrics_dir, name)) as fh:
                record = json.load(fh)
            benchmark = record.pop("benchmark", os.path.splitext(name)[0])
            record_scale = record.pop("scale", scale)
            if record_scale != scale:
                print(
                    f"note: skipping {name} (scale={record_scale!r}, "
                    f"collecting {scale!r})"
                )
                continue
            benchmarks[benchmark] = record
    return {
        "schema": SCHEMA_VERSION,
        "scale": scale,
        "benchmarks": benchmarks,
    }


def numeric_leaves(
    node: object, prefix: str = ""
) -> Iterator[Tuple[str, float]]:
    """Flatten nested dicts to (dotted-path, number) pairs."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        yield prefix, float(node)


def compare(
    pr: Dict[str, object],
    baseline: Dict[str, object],
    sim_threshold: float = SIM_THRESHOLD,
) -> int:
    """Print the trajectory diff; returns the process exit code."""
    pr_benchmarks = pr.get("benchmarks", {})
    base_benchmarks = baseline.get("benchmarks", {})

    missing = sorted(set(base_benchmarks) - set(pr_benchmarks))
    added = sorted(set(pr_benchmarks) - set(base_benchmarks))
    if pr.get("scale") != baseline.get("scale"):
        print(
            f"note: scale mismatch (PR={pr.get('scale')!r}, "
            f"baseline={baseline.get('scale')!r}); numeric diffs are not "
            "meaningful across scales and are skipped"
        )
        compare_numbers = False
    else:
        compare_numbers = True

    failures = 0
    if compare_numbers:
        for name in sorted(set(pr_benchmarks) & set(base_benchmarks)):
            pr_leaves = dict(numeric_leaves(pr_benchmarks[name]))
            for path, base_value in numeric_leaves(base_benchmarks[name]):
                if path not in pr_leaves:
                    print(f"FAIL: {name}:{path} dropped from PR metrics")
                    failures += 1
                    continue
                pr_value = pr_leaves[path]
                denom = max(abs(base_value), 1e-12)
                drift = abs(pr_value - base_value) / denom
                if drift > sim_threshold:
                    # Simulated columns are deterministic: any real drift
                    # means the model changed without a baseline update.
                    print(
                        f"FAIL: {name}:{path} simulated drift "
                        f"{drift * 100:+.2g}% "
                        f"({base_value!r} -> {pr_value!r}); regenerate "
                        "BENCH_BASELINE.json if this change is intended"
                    )
                    failures += 1

    for name in added:
        print(f"note: new benchmark in PR metrics: {name}")
    print(
        f"bench_compare: {len(pr_benchmarks)} PR benchmarks vs "
        f"{len(base_benchmarks)} baseline; {failures} failure(s), "
        f"{len(missing)} missing, {len(added)} new"
    )
    if missing:
        for name in missing:
            print(f"FAIL: benchmark missing from PR metrics: {name}")
    return 1 if (missing or failures) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--collect",
        metavar="DIR",
        help="merge per-benchmark JSON files from DIR into --pr",
    )
    parser.add_argument(
        "--pr",
        required=True,
        metavar="FILE",
        help="trajectory snapshot to write (--collect) and/or compare",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="committed baseline to diff against (skip to only collect)",
    )
    parser.add_argument(
        "--sim-threshold",
        type=float,
        default=SIM_THRESHOLD,
        help="relative simulated drift that fails the run (default 1e-9)",
    )
    args = parser.parse_args(argv)

    if args.collect:
        snapshot = collect(
            args.collect, os.environ.get("REPRO_BENCH_SCALE", "default")
        )
        with open(args.pr, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(
            f"bench_compare: wrote {args.pr} "
            f"({len(snapshot['benchmarks'])} benchmarks, "
            f"scale={snapshot['scale']})"
        )
    if not args.baseline:
        return 0
    if not os.path.exists(args.baseline):
        print(f"FAIL: baseline {args.baseline} does not exist")
        return 1
    with open(args.pr) as fh:
        pr = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    return compare(pr, baseline, args.sim_threshold)


if __name__ == "__main__":
    sys.exit(main())
