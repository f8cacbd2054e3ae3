"""Shared helpers for the benchmark suite.

Each benchmark regenerates one paper table/figure: it runs the experiment
once (``benchmark.pedantic(..., rounds=1)``), prints the paper-style report,
saves it under ``bench_reports/`` and asserts the qualitative *shape* the
paper reports (who wins, roughly by how much, where crossovers fall).
Absolute numbers are simulated seconds, not the paper's wall-clock — see
DESIGN.md §2. Nothing under ``benchmarks/`` reads the host clock: host time
is measured in ``perfbench/`` (README "Host time").
"""

from __future__ import annotations

import json
import os
import pathlib

REPORT_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_reports"

#: Machine-readable per-benchmark metrics (the CI perf trajectory). One
#: JSON file per benchmark; ``scripts/bench_compare.py --collect`` merges
#: them into ``BENCH_PR.json`` and diffs against ``BENCH_BASELINE.json``.
METRICS_DIR = REPORT_DIR / "metrics"


def emit_report(name: str, text: str) -> None:
    """Print a report and persist it under bench_reports/."""
    print()
    print(f"===== {name} =====")
    print(text)
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text + "\n")


def emit_metrics(name: str, payload: dict) -> None:
    """Persist one benchmark's machine-readable metrics as ``<name>.json``.

    ``payload`` must be JSON-serializable; the active ``REPRO_BENCH_SCALE``
    is stamped in so the comparison script can refuse cross-scale diffs.
    """
    METRICS_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "benchmark": name,
        "scale": os.environ.get("REPRO_BENCH_SCALE", "default"),
        **payload,
    }
    (METRICS_DIR / f"{name}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )


#: One simulated series per (experiment name, system name) for the whole
#: session. A canonical experiment is a pure function of its name at the
#: session's fixed scale, so the name is the key; a fingerprint of the run
#: could not see what a ``make_tuner`` closure builds.
_SERIES: dict = {}


def run_cached(experiment, systems=None) -> dict:
    """``run_experiment`` over the named ``systems`` (default: all), each
    series simulated at most once per session — Fig. 9 re-reads Fig. 8's
    balanced panel, Fig. 12 Fig. 7's RusKey."""
    from repro.bench import run_system

    results = {}
    for system in experiment.systems:
        if systems is None or system.name in systems:
            key = (experiment.name, system.name)
            if key not in _SERIES:
                _SERIES[key] = run_system(experiment, system)
            results[system.name] = _SERIES[key]
    return results


def metrics_from_results(results) -> dict:
    """Per-system summary numbers from a ``{name: SeriesResult}`` mapping
    — simulated quantities only, deterministic at a fixed scale and seed."""
    return {
        "systems": {
            name: {
                "mean_latency_ms": result.mean_latency() * 1e3,
                "sim_total_s": result.total_time(),
                "n_missions": len(result.missions),
                "n_operations": int(
                    sum(m.n_operations for m in result.missions)
                ),
            }
            for name, result in results.items()
        }
    }


def settled_mean(result, fraction: float = 0.35) -> float:
    """Mean latency over the last ``fraction`` of missions (post-tuning)."""
    series = result.latencies
    tail = max(1, int(len(series) * fraction))
    return float(series[-tail:].mean())
