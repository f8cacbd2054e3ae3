"""Read-path instrumentation.

:class:`ReadPathProfiler` — lightweight per-stage **wall-clock** timers
for :meth:`repro.lsm.tree.LSMTree.get_batch`. Enabled with
``tree.read_profiler = ReadPathProfiler()``; when disabled (the default)
the read path carries only a ``None``-check per stage. The stages mirror the
pipeline: ``memtable`` (buffer resolution), ``search`` (stacked-index
build/probe, page math, pending-set maintenance), ``bloom`` (filter
probes), ``cache`` (block-cache + simulated-device charging). Profiling
measures *host* time only — it never touches the :class:`SimClock`, so
enabling it cannot change simulated results.

The run-at-a-time lookup the stacked pipeline is verified against lives on
the test side (``tests/reference_get.py``).
"""

from __future__ import annotations

import time
from typing import Dict

#: Point-lookup stage names, in pipeline order. The range stages
#: (``range_search`` / ``range_charge`` / ``range_gather`` /
#: ``range_merge``, see :mod:`repro.lsm.rangepath`) follow, so one
#: profiler covers both batch read paths.
STAGES = (
    "memtable",
    "search",
    "bloom",
    "cache",
    "range_search",
    "range_charge",
    "range_gather",
    "range_merge",
)

#: The stages normalized per range (vs per key) in reports.
RANGE_STAGE_SET = frozenset(s for s in STAGES if s.startswith("range_"))


class ReadPathProfiler:
    """Accumulates wall-clock seconds per read-path stage.

    The tree calls :meth:`add` with ``time.perf_counter()`` deltas around
    each stage, :meth:`note_batch` once per ``get_batch`` and
    :meth:`note_range_batch` once per ``range_scan_batch``. All numbers
    are host measurements and are deliberately kept out of simulated
    accounting and snapshots.
    """

    __slots__ = (
        "seconds",
        "calls",
        "n_batches",
        "n_keys",
        "n_range_batches",
        "n_ranges",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all accumulators."""
        self.seconds: Dict[str, float] = {stage: 0.0 for stage in STAGES}
        self.calls: Dict[str, int] = {stage: 0 for stage in STAGES}
        self.n_batches = 0
        self.n_keys = 0
        self.n_range_batches = 0
        self.n_ranges = 0

    def add(self, stage: str, seconds: float) -> None:
        """Attribute ``seconds`` of wall time to ``stage``."""
        self.seconds[stage] += seconds
        self.calls[stage] += 1

    def note_batch(self, n_keys: int) -> None:
        """Record one ``get_batch`` call over ``n_keys`` keys."""
        self.n_batches += 1
        self.n_keys += int(n_keys)

    def note_range_batch(self, n_ranges: int) -> None:
        """Record one ``range_scan_batch`` call over ``n_ranges`` ranges."""
        self.n_range_batches += 1
        self.n_ranges += int(n_ranges)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def summary(self) -> Dict[str, object]:
        """Machine-readable snapshot of the accumulated profile."""
        total = self.total_seconds
        return {
            "n_batches": self.n_batches,
            "n_keys": self.n_keys,
            "n_range_batches": self.n_range_batches,
            "n_ranges": self.n_ranges,
            "total_seconds": total,
            "stages": {
                stage: {
                    "seconds": self.seconds[stage],
                    "calls": self.calls[stage],
                    "fraction": self.seconds[stage] / total if total else 0.0,
                }
                for stage in STAGES
            },
        }

    def format_report(self) -> str:
        """Human-readable per-stage breakdown.

        The ``us/op`` column normalizes point stages by keys probed and
        range stages by ranges scanned.
        """
        total = self.total_seconds
        lines = [
            f"read-path profile: {self.n_batches} batches / "
            f"{self.n_keys} keys, {self.n_range_batches} range batches / "
            f"{self.n_ranges} ranges, {total * 1e3:.2f} ms instrumented",
            f"{'stage':>12} | {'ms':>9} | {'%':>6} | {'calls':>8} | {'us/op':>8}",
        ]
        for stage in STAGES:
            seconds = self.seconds[stage]
            share = 100.0 * seconds / total if total else 0.0
            n_ops = self.n_ranges if stage in RANGE_STAGE_SET else self.n_keys
            per_op = seconds / n_ops * 1e6 if n_ops else 0.0
            lines.append(
                f"{stage:>12} | {seconds * 1e3:9.2f} | {share:6.1f} | "
                f"{self.calls[stage]:8d} | {per_op:8.3f}"
            )
        return "\n".join(lines)


#: Re-exported for profiling call sites.
perf_counter = time.perf_counter
