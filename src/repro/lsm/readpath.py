"""Read-path instrumentation and the scalar reference lookup pipeline.

Two tools for the hot-path speed campaign (ROADMAP item 6):

* :class:`ReadPathProfiler` — lightweight per-stage **wall-clock** timers
  for :meth:`repro.lsm.tree.LSMTree.get_batch`. Enabled with
  ``tree.read_profiler = ReadPathProfiler()``; when disabled (the default)
  the read path carries only a ``None``-check per stage. The stages mirror the
  pipeline: ``memtable`` (buffer resolution), ``search`` (stacked-index
  build/probe, page math, pending-set maintenance), ``bloom`` (filter
  probes), ``cache`` (block-cache + simulated-device charging). Profiling
  measures *host* time only — it never touches the :class:`SimClock`, so
  enabling it cannot change simulated results.

* :func:`reference_get_batch` — the pre-vectorization run-at-a-time batch
  lookup, kept verbatim as an executable specification. The stacked
  level-at-a-time path in ``LSMTree.get_batch`` must be **bit-identical**
  to this reference in every observable: found/values output, simulated
  clock, per-level read charges, I/O and cache counters, and the Bloom
  RNG stream. The equivalence suite (``tests/test_readpath.py``) and the
  ``read_path_scale`` benchmark both diff against it.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from repro.lsm.entry import TOMBSTONE

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
    are host measurements (like ``MissionStats.wall_duration``) and are
    deliberately kept out of simulated accounting and snapshots.
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


def reference_get_batch(tree, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The pre-vectorization ``get_batch``: one Python iteration per run.

    Kept as the executable reference the stacked level-at-a-time
    pipeline is verified against (same probe
    schedule, same ``probe_cpu``/``add_read`` charges per run, same Bloom
    RNG consumption, same ``O(n log n)`` ``np.isin`` pending-set
    maintenance the production path replaced with ``O(n)`` masks).
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    tree.stats.count_lookup(n)
    resolved, buffered_values = tree.memtable.get_batch(keys)
    found = resolved & (buffered_values != TOMBSTONE)
    values = np.where(found, buffered_values, 0)

    pending = np.flatnonzero(~resolved)
    for level in tree.levels:
        if len(pending) == 0:
            break
        for run in reversed(level.runs):
            if len(pending) == 0:
                break
            probe_cost = tree.disk.probe_cpu(len(pending))
            tree.stats.add_read(level.level_no, probe_cost)
            positives = run.bloom_positive_batch(keys[pending])
            if not positives.any():
                continue
            probe_idx = pending[positives]
            hit, hit_values, pages = run.find_batch(keys[probe_idx])
            io_cost = tree.disk.random_read_batch(run.run_id, pages)
            tree.stats.add_read(level.level_no, io_cost)
            if hit.any():
                hit_idx = probe_idx[hit]
                resolved[hit_idx] = True
                real = hit_values[hit] != TOMBSTONE
                found[hit_idx] = real
                values[hit_idx[real]] = hit_values[hit][real]
                pending = pending[~np.isin(pending, hit_idx, assume_unique=True)]
    return found, values


#: Re-exported for profiling call sites.
perf_counter = time.perf_counter
