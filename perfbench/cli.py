"""``python3 -m perfbench``: the one command.

* ``--workload W --seed N --seconds S --trace 0|1`` — the driver contract:
  one workload, one JSON object on the last line of standard output. With
  ``--trace 0`` the end-to-end metrics (set-up measured in several fresh
  children, median reported); with ``--trace 1`` the per-layer metrics.
* no ``--workload`` — the whole suite: every end-to-end and per-layer
  metric by name with its unit, all four workloads.
* ``--aa N`` — the suite N times; see :mod:`perfbench.aa`.
* ``--smoke`` — 1 % op counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from perfbench import OUT, SRC
from perfbench.aa import run_aa
from perfbench.runner import (
    SETUP_RUNS,
    BenchmarkError,
    load_spec,
    run_suite,
    run_workload,
)

#: ``--smoke`` runs this many seconds' worth of operations (1 % of 25 s).
SMOKE_SECONDS = 0.25


def contract_line(result: dict, metric_specs: List[dict]) -> str:
    """The driver's result object: exactly the listed metrics, with the
    units ``BENCHMARK.json`` gives them. A per-layer metric a workload has
    no such layer for is 0."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            spec["name"]: {
                "value": result["metrics"].get(spec["name"], 0.0),
                "unit": spec["unit"],
            }
            for spec in metric_specs
        },
    })


def print_suite(results: Dict[str, dict], spec: dict) -> None:
    for workload, result in results.items():
        status = "correct" if result["correct"] else "INCORRECT"
        print(
            f"== {workload}: {status}, {result['failed']} failed of "
            f"{result['attempted']} attempted"
        )
        for kind in ("end_to_end", "per_layer"):
            for metric in spec[kind]:
                value = result["metrics"].get(metric["name"], 0.0)
                print(
                    f"{workload:22s} {metric['name']:36s} "
                    f"{value:16.6f} {metric['unit']}"
                )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument("--workload", help="one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--aa", type=int, metavar="N")
    parser.add_argument("--json", metavar="PATH", help="also save the results")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.aa is not None and (args.aa < 2 or args.workload is not None):
        parser.error("--aa runs the whole suite, at least twice")
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    setup_runs = 1 if args.smoke else SETUP_RUNS
    os.makedirs(OUT, exist_ok=True)

    try:
        if args.aa is not None:
            return run_aa(args.aa, args.seed, seconds, setup_runs, spec,
                          args.json)
        if args.workload is not None:
            trace = bool(args.trace)
            result = run_workload(
                args.workload, args.seed, seconds, trace,
                1 if trace else setup_runs,
            )
            results = {args.workload: result}
            kind = "per_layer" if trace else "end_to_end"
            print(contract_line(result, spec[kind]))
        else:
            trace = args.trace != 0
            results = run_suite(args.seed, seconds, trace, setup_runs, spec)
            print_suite(results, spec)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"runs": [results]}, handle, indent=1)
    return 0 if all(r["correct"] for r in results.values()) else 1
