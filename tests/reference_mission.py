"""The chunk-at-a-time mission loop, kept as the executable specification.

``src/`` runs a mission through one engine call
(``engine.run_chunks``, :mod:`repro.lsm.readplan`), which queues each
tree's reads and charges them once per flush interval. This is the loop
``MissionRunner`` ran before, verbatim: per chunk, one ``put_batch``, one
``get_batch`` and one ``range_scan_batch`` call. The production path must
be sim-identical to it — clock, read and write totals per level, the open
window, cache contents, I/O counters and the Bloom RNG stream — also when a
mission raises part-way. ``tests/test_oracle.py``'s ``mission`` rule and
``tests/test_core_components.py`` import it.
"""

from __future__ import annotations

import numpy as np

from repro.workload.spec import OP_LOOKUP, OP_RANGE, OP_UPDATE, Mission


def reference_run_chunks(engine, mission: Mission, chunk_size: int) -> None:
    """Apply ``mission`` to ``engine`` (anything with the three batch
    methods) chunk by chunk, inside whatever window the caller opened."""
    # The three op masks are taken once per mission: each kind's ops
    # are gathered in stream order, and ``cuts[i]:cuts[i + 1]`` is chunk
    # ``i``'s share of them, so a chunk is three array slices.
    edges = np.arange(0, len(mission) + chunk_size, chunk_size)

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
