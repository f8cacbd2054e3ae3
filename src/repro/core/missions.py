"""Mission execution against a storage engine.

:class:`MissionRunner` applies a :class:`~repro.workload.spec.Mission` to
any :class:`~repro.engine.base.KVEngine` and returns its
:class:`~repro.lsm.stats.MissionStats`. The whole mission is checked
before its window opens, then cut into *chunks* for the engine's
``run_chunks``: per chunk, its updates in order, then its point lookups,
then its ranges, charged as one ``put_batch`` / ``get_batch`` /
``range_scan_batch`` per chunk would be (reads are charged once per flush
interval, :mod:`repro.lsm.readplan`). ``chunk_size=1`` is exact serial
execution; larger chunks reorder lookups against updates by at most one
chunk, which leaves the cost statistics of random workloads unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.lsm.entry import validate_batch, validate_keys
from repro.lsm.readplan import MissionChunks
from repro.lsm.stats import MissionStats
from repro.workload.spec import OP_LOOKUP, OP_RANGE, OP_UPDATE, Mission

_INT64_MAX = np.iinfo(np.int64).max


class MissionRunner:
    """Executes missions on a storage engine with configurable chunking."""

    def __init__(self, engine, chunk_size: int = 64) -> None:
        if chunk_size < 1:
            raise WorkloadError(f"chunk_size must be >= 1, got {chunk_size}")
        self.engine = engine
        self.chunk_size = chunk_size

    def run(self, mission: Mission) -> MissionStats:
        """Execute ``mission`` and return its statistics."""
        chunks = self.chunks(mission)
        engine = self.engine
        engine.begin_mission()
        # The window closes on the way out of a failing mission too (a
        # durable write may raise), so the engine stays usable.
        try:
            engine.run_chunks(chunks)
        finally:
            stats = engine.end_mission()
        return stats

    def chunks(self, mission: Mission) -> MissionChunks:
        """``mission``'s columns by op kind, cut every ``chunk_size`` ops.

        Refuses, before anything runs: an unknown op kind or a range whose
        end passes ``INT64_MAX`` (:class:`WorkloadError`, the rule
        :func:`repro.serve.loadgen.requests_from_mission` enforces), and
        what the batch methods refuse — a non-integer column, an update
        writing the tombstone sentinel (``ValueError``)."""
        kinds = np.asarray(mission.kinds)
        upd, get, rng = (kinds == op for op in (OP_UPDATE, OP_LOOKUP, OP_RANGE))
        unknown = ~(upd | get | rng)
        if unknown.any():
            raise WorkloadError(f"unknown op kind: {kinds[unknown][0]}")
        keys = validate_keys(mission.keys)
        upd_keys, upd_values = validate_batch(keys[upd], np.asarray(mission.values)[upd])
        los = keys[rng]
        spans = validate_keys(np.asarray(mission.spans)[rng])
        wide = spans > 1
        # lo + span - 1 > INT64_MAX, arranged so that nothing overflows.
        if (los[wide] > _INT64_MAX - (spans[wide] - 1)).any():
            raise WorkloadError("a range end is outside int64")
        edges = np.arange(0, len(mission) + self.chunk_size, self.chunk_size)

        def cuts(mask: np.ndarray):
            return mask.nonzero()[0].searchsorted(edges).tolist()

        return MissionChunks(
            upd_keys, upd_values, cuts(upd),
            keys[get], cuts(get),
            los, los + np.where(wide, spans - 1, 0), cuts(rng),
        )
