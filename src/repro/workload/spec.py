"""Workload representation: operations, missions, generator interface.

A *mission* (paper Section 3) is a fixed-size batch of operations; RusKey
re-tunes after each mission. Missions are represented as parallel numpy
arrays so the executor can process them in vectorized chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError

#: Operation codes inside :class:`Mission.kinds`.
OP_LOOKUP = 0
OP_UPDATE = 1
OP_RANGE = 2


@dataclass
class Mission:
    """A batch of operations, stored column-wise.

    * ``kinds[i]`` — one of :data:`OP_LOOKUP`, :data:`OP_UPDATE`,
      :data:`OP_RANGE`;
    * ``keys[i]`` — the key (or range start for range lookups);
    * ``values[i]`` — the value written by updates (ignored otherwise);
    * ``spans[i]`` — the range width for range lookups (ignored otherwise).
    """

    kinds: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    spans: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.kinds)
        if not (len(self.keys) == len(self.values) == len(self.spans) == n):
            raise WorkloadError("mission arrays must have equal length")

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def lookup_fraction(self) -> float:
        """Fraction of point+range lookups among the mission's operations."""
        if len(self.kinds) == 0:
            return 0.0
        return float(np.mean(self.kinds != OP_UPDATE))

    @property
    def n_updates(self) -> int:
        return int(np.sum(self.kinds == OP_UPDATE))

    @property
    def n_lookups(self) -> int:
        return int(np.sum(self.kinds == OP_LOOKUP))

    @property
    def n_ranges(self) -> int:
        return int(np.sum(self.kinds == OP_RANGE))


class WorkloadSpec:
    """Interface of a workload generator.

    Implementations are deterministic given their seed and yield an endless
    stream of missions via :meth:`missions`.
    """

    #: Human-readable name used by the benchmark harness.
    name: str = "workload"

    def missions(self, n_missions: int, mission_size: int) -> Iterator[Mission]:
        """Yield ``n_missions`` missions of ``mission_size`` operations."""
        raise NotImplementedError

    def expected_lookup_fraction(self, mission_index: int) -> float:
        """The configured lookup fraction at ``mission_index`` (for harness
        annotations; the realized fraction varies stochastically)."""
        raise NotImplementedError


def mission_from_mix(
    rng: np.random.Generator,
    mission_size: int,
    lookup_fraction: float,
    update_keys: np.ndarray,
    lookup_keys: np.ndarray,
    values: np.ndarray,
    range_fraction: float = 0.0,
    range_span: int = 0,
) -> Mission:
    """Assemble a mission from pre-drawn key pools.

    ``lookup_fraction`` of the operations are lookups; of those, a
    ``range_fraction`` share become range scans of width ``range_span``.
    The i-th update (lookup) consumes ``update_keys[i]`` (``lookup_keys[i]``),
    so callers draw the pools from whatever key distribution they model.
    """
    if not 0.0 <= lookup_fraction <= 1.0:
        raise WorkloadError(
            f"lookup_fraction must be in [0, 1], got {lookup_fraction}"
        )
    if not 0.0 <= range_fraction <= 1.0:
        raise WorkloadError(
            f"range_fraction must be in [0, 1], got {range_fraction}"
        )
    draws = rng.random(mission_size)
    kinds = np.where(draws < lookup_fraction, OP_LOOKUP, OP_UPDATE).astype(np.int8)
    if range_fraction > 0.0:
        lookups = kinds == OP_LOOKUP
        promote = rng.random(mission_size) < range_fraction
        kinds[lookups & promote] = OP_RANGE
    keys = np.zeros(mission_size, dtype=np.int64)
    vals = np.zeros(mission_size, dtype=np.int64)
    spans = np.zeros(mission_size, dtype=np.int64)
    is_update = kinds == OP_UPDATE
    n_updates = int(is_update.sum())
    n_reads = mission_size - n_updates
    if n_updates > len(update_keys) or n_reads > len(lookup_keys):
        raise WorkloadError("key pools are smaller than the drawn mix requires")
    keys[is_update] = update_keys[:n_updates]
    vals[is_update] = values[:n_updates]
    keys[~is_update] = lookup_keys[:n_reads]
    spans[kinds == OP_RANGE] = range_span
    return Mission(kinds=kinds, keys=keys, values=vals, spans=spans)
