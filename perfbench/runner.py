"""Spawning the child processes and folding their results.

One fresh interpreter per measurement (:mod:`perfbench.child`), run
sequentially; this module is the only place that starts a process.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict

from perfbench import ROOT

#: A child that has not finished by then is killed (the contract allows a
#: run 180 s in all).
CHILD_TIMEOUT_S = 170
#: Fresh children that set up in a ``--trace 0`` run; the median is kept.
#: Half of them run before the measuring child and half after it, so a slow
#: spell of the host (they last up to ~20 s here) cannot cover them all.
SETUP_RUNS = 7


class BenchmarkError(RuntimeError):
    """A child process produced no result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """One fresh interpreter; returns the JSON object it printed last."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(float(seconds)), "--mode", mode,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(
            f"{workload}: child exceeded {CHILD_TIMEOUT_S} s"
        ) from exc
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchmarkError(
            f"{workload}: child exited {done.returncode} without a result"
        ) from exc
    return result


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, setup_runs: int
) -> dict:
    """Measure one workload. ``setup_s`` is the median over ``setup_runs``
    fresh children (the measuring child is one of them)."""

    def set_up(n: int) -> list:
        return [
            run_child(workload, seed, seconds, "setup")["metrics"]["setup_s"]
            for _ in range(n)
        ]

    setups = set_up((setup_runs - 1) // 2)
    result = run_child(workload, seed, seconds, "trace" if trace else "measure")
    setups.append(result["metrics"]["setup_s"])
    setups += set_up(setup_runs - len(setups))
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def run_suite(seed: int, seconds: float, trace: bool, setup_runs: int,
              spec: dict) -> Dict[str, dict]:
    return {
        workload["name"]: run_workload(
            workload["name"], seed, seconds, trace, setup_runs
        )
        for workload in spec["workloads"]
    }
