"""Mission execution against a storage engine.

:class:`MissionRunner` applies a :class:`~repro.workload.spec.Mission` to
any :class:`~repro.engine.base.KVEngine` (a single LSM/FLSM tree or a
:class:`~repro.engine.sharded.ShardedStore`) and returns its
:class:`~repro.lsm.stats.MissionStats`. Operations are processed in
*chunks*: inside a chunk, updates are applied in their original order as
one vectorized ``put_batch``, point lookups are then resolved as one
vectorized ``get_batch``, and range lookups as one vectorized
``range_scan_batch`` (bit-identical in cost and op accounting to per-op
``range_lookup`` calls in chunk order — see :mod:`repro.lsm.rangepath`).
``chunk_size=1`` degenerates to exact serial execution; larger chunks
reorder lookups against updates by at most one chunk, which leaves the cost
statistics of random workloads unchanged (tests verify serial and chunked
runs agree) while making the large benchmarks an order of magnitude faster.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.lsm.stats import MissionStats
from repro.workload.spec import OP_LOOKUP, OP_RANGE, OP_UPDATE, Mission


class MissionRunner:
    """Executes missions on a storage engine with configurable chunking."""

    def __init__(self, engine, chunk_size: int = 64) -> None:
        if chunk_size < 1:
            raise WorkloadError(f"chunk_size must be >= 1, got {chunk_size}")
        self.engine = engine
        self.chunk_size = chunk_size

    def run(self, mission: Mission) -> MissionStats:
        """Execute ``mission`` and return its statistics."""
        engine = self.engine
        engine.begin_mission()
        # The window closes on the way out of a failing mission too (a
        # rejected batch raises from put_batch), so the engine stays usable.
        try:
            self._run_chunks(mission)
        finally:
            stats = engine.end_mission()
        return stats

    def _run_chunks(self, mission: Mission) -> None:
        engine = self.engine
        # The three op masks are taken once per mission: each kind's ops
        # are gathered in stream order, and ``cuts[i]:cuts[i + 1]`` is chunk
        # ``i``'s share of them, so a chunk is three array slices.
        edges = np.arange(0, len(mission) + self.chunk_size, self.chunk_size)

        def of_kind(op: int):
            at = (mission.kinds == op).nonzero()[0]
            return at, at.searchsorted(edges).tolist()

        upd, upd_cuts = of_kind(OP_UPDATE)
        get, get_cuts = of_kind(OP_LOOKUP)
        rng, rng_cuts = of_kind(OP_RANGE)
        upd_keys, upd_values = mission.keys[upd], mission.values[upd]
        get_keys = mission.keys[get]
        los = mission.keys[rng]
        his = los + np.maximum(mission.spans[rng] - 1, 0)
        for i in range(len(edges) - 1):
            a, b = upd_cuts[i], upd_cuts[i + 1]
            if a < b:
                engine.put_batch(upd_keys[a:b], upd_values[a:b])
            a, b = get_cuts[i], get_cuts[i + 1]
            if a < b:
                engine.get_batch(get_keys[a:b])
            a, b = rng_cuts[i], rng_cuts[i + 1]
            if a < b:
                engine.range_scan_batch(los[a:b], his[a:b])
