"""Paper-style textual reports for experiment results.

The original figures are plots; a reproduction harness that runs under
pytest prints the same *series* and *tables* as text so the shapes can be
eyeballed and asserted. All latencies are simulated milliseconds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import SeriesResult


def format_latency_series(
    results: Dict[str, SeriesResult],
    every: int = 50,
    title: str = "",
) -> str:
    """A mission-indexed latency table, one column per system (ms/op)."""
    names = list(results)
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{'mission':>8} | " + " | ".join(f"{n:>16}" for n in names)
    lines.append(header)
    lines.append("-" * len(header))
    n_missions = min(len(results[n].latencies) for n in names)
    for i in range(0, n_missions, every):
        row = " | ".join(
            f"{results[n].latencies[i] * 1e3:16.5f}" for n in names
        )
        lines.append(f"{i:>8} | {row}")
    return "\n".join(lines)


def format_policy_trace(
    result: SeriesResult, every: int = 50, title: str = ""
) -> str:
    """The per-level policy trace of one system (paper Fig. 6 top panels)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{'mission':>8} | policies (K_1..K_L)")
    for i in range(0, len(result.policy_history), every):
        lines.append(f"{i:>8} | {result.policy_history[i]}")
    return "\n".join(lines)


def format_summary(
    results: Dict[str, SeriesResult],
    last_n: Optional[int] = None,
    title: str = "",
) -> str:
    """Converged mean latency per system, best first.

    When any system ran with a block cache configured (mission records
    carry cache traffic), a cache hit-rate column is added — hit/miss
    counters are aggregated across shards by the engine's mission records.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    ordered = sorted(results.values(), key=lambda r: r.mean_latency(last_n))
    with_cache = any(r.cache_hits + r.cache_misses > 0 for r in ordered)
    header = f"{'system':>20} | {'latency (ms/op)':>16}"
    if with_cache:
        header += f" | {'cache hit %':>11}"
    lines.append(header)
    for result in ordered:
        row = f"{result.system:>20} | {result.mean_latency(last_n) * 1e3:16.5f}"
        if with_cache:
            row += f" | {result.cache_hit_rate * 100:11.2f}"
        lines.append(row)
    return "\n".join(lines)


def format_ranking_table(
    ranks: Dict[str, List[int]],
    session_names: Sequence[str],
    title: str = "",
) -> str:
    """Paper Table 3: per-session performance rank and average rank."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = (
        f"{'method':>20} | "
        + " | ".join(f"{name:>14}" for name in session_names)
        + f" | {'avg rank':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    averages = {name: float(np.mean(r)) for name, r in ranks.items()}
    for name in sorted(ranks, key=averages.get):
        row = " | ".join(f"{rank:>14}" for rank in ranks[name])
        lines.append(f"{name:>20} | {row} | {averages[name]:8.1f}")
    return "\n".join(lines)


def format_per_level_latency(
    level_times: Dict[str, Dict[int, float]], title: str = ""
) -> str:
    """Per-level latency comparison (paper Fig. 9 right panel); seconds."""
    lines: List[str] = []
    if title:
        lines.append(title)
    levels = sorted({lvl for times in level_times.values() for lvl in times})
    header = f"{'system':>20} | " + " | ".join(f"L{lvl:>8}" for lvl in levels)
    lines.append(header)
    for name, times in level_times.items():
        row = " | ".join(f"{times.get(lvl, 0.0):9.3f}" for lvl in levels)
        lines.append(f"{name:>20} | {row}")
    return "\n".join(lines)
