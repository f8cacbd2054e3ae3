"""Order statistics shared by the driver, the A/A mode and compare."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def range_share(values: Sequence[float]) -> float:
    """(max − min) ÷ median."""
    median = statistics.median(values)
    return (max(values) - min(values)) / abs(median) if median else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if not base:
        return 0.0
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta
