"""Host calibration: a fixed reference kernel that tracks host speed drift.

The box this benchmark runs on is shared and its speed drifts by 15-20 %
over minutes, which is more than any bound the benchmark gates on. The
kernel below does a fixed amount of the two kinds of work the program
does (pure-Python dict/loop work and numpy sort/search work); its median
wall time, sampled immediately before every measured segment, is the
host's speed *at that moment*. Every wall duration taken in the segment is
reported multiplied by ``HOSTCAL_REF_S / c_i`` — "reference-host seconds",
i.e. what the duration would have been on a host whose kernel time is
exactly ``HOSTCAL_REF_S``.

The normalisation is only right for CPU-bound time. Time spent waiting on
``fsync`` or on a thread hand-off does not scale with CPU speed; see the
README's "when it misleads" section.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

import numpy as np

#: Kernel wall time of the reference host, seconds. A constant of the
#: benchmark: changing it rescales every normalised metric.
HOSTCAL_REF_S = 0.003

#: Kernel repetitions per calibration sample (the median is kept).
HOSTCAL_REPS = 7

_DICT_INTS = 3_000
_ARRAY = np.random.default_rng(20_230_613).integers(
    0, 1 << 40, size=20_000, dtype=np.int64
)
_PROBES = _ARRAY[::2].copy()


def kernel() -> int:
    """One run of the fixed reference kernel; returns a checksum so no
    part of it can be skipped."""
    table = {}
    for i in range(_DICT_INTS):
        table[i] = i * i
    total = sum(table.values())
    ordered = np.sort(_ARRAY)
    hits = np.searchsorted(ordered, _PROBES)
    distinct = np.unique(_ARRAY)
    return total + int(hits[-1]) + len(distinct)


def calibrate(reps: int = HOSTCAL_REPS) -> float:
    """Median wall seconds of ``reps`` kernel runs."""
    samples = []
    for _ in range(reps):
        started = perf_counter()
        kernel()
        samples.append(perf_counter() - started)
    return statistics.median(samples)


def bracket_scales(readings: List[float]) -> List[float]:
    """One factor per interval between consecutive calibration readings:
    interval ``i`` ran between readings ``i`` and ``i + 1`` and its wall
    durations become reference-host seconds when multiplied by
    ``HOSTCAL_REF_S`` over the mean of the two. Bracketing halves what one
    outlying reading does to a segment."""
    return [
        HOSTCAL_REF_S / ((before + after) / 2)
        for before, after in zip(readings, readings[1:])
    ]
