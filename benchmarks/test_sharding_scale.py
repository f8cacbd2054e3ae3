"""Sharding & batch-ingestion benchmark (beyond the paper).

Pins, on SimClock, the two contracts the engine layer adds on top of the
paper's single FLSM-tree, over a write-heavy YCSB mission (>= 100k
operations):

* per-key put loop (the test-side reference, ``tests/reference_put.py``)
  vs vectorized ``put_batch`` ingestion of the mission's update stream —
  the :class:`~repro.engine.base.KVEngine` contract says the batch path
  is the per-key loop, just vectorized, so both must end on the *same*
  simulated clock and I/O counters;
* bare tree vs 1-shard vs 4-shard execution of the full mission through
  :class:`MissionRunner` — one shard must charge exactly what the bare
  tree charges; four shards split each flush, so per-shard compactions
  are smaller and more frequent (the report shows the realized trade at
  this scale).

Host time of the same paths is ``perfbench``'s ``lsm.put_batch_s`` and
``engine.route_share``.
"""

from _common import emit_metrics, emit_report
from reference_put import reference_put

from repro.bench import base_config, bench_scale
from repro.core.missions import MissionRunner
from repro.engine import ShardedStore
from repro.lsm import FLSMTree
from repro.workload.spec import OP_UPDATE
from repro.workload.ycsb import YCSBWorkload

#: Acceptance floor: the write-heavy mission must hold >= 100k operations.
N_OPS = 120_000
BATCH = 4_096


def _write_heavy_mission(scale):
    workload = YCSBWorkload(scale.n_records, lookup_fraction=0.1, seed=13)
    mission = next(iter(workload.missions(1, N_OPS)))
    return workload, mission


def _loaded(engine, workload):
    engine.bulk_load(*workload.load_records())
    return engine


def run_sharding_scale():
    scale = bench_scale()
    # The paper's 2 MiB buffer: large enough that ingestion cost is not
    # dominated by flush merges, which both write paths share.
    config = base_config(scale=scale).with_updates(
        write_buffer_bytes=2 * 2**20
    )
    workload, mission = _write_heavy_mission(scale)
    updates = mission.kinds == OP_UPDATE
    keys = mission.keys[updates]
    values = mission.values[updates]

    # --- put vs put_batch (1 shard) -----------------------------------
    put_tree = _loaded(FLSMTree(config), workload)
    for k, v in zip(keys.tolist(), values.tolist()):
        reference_put(put_tree, k, v)

    batch_tree = _loaded(FLSMTree(config), workload)
    for start in range(0, len(keys), BATCH):
        batch_tree.put_batch(
            keys[start : start + BATCH], values[start : start + BATCH]
        )

    # --- bare tree vs 1 shard vs 4 shards, full mission ---------------
    missions = {}
    for name, engine in (
        ("bare tree", FLSMTree(config)),
        ("1 shard", ShardedStore(config, 1)),
        ("4 shards", ShardedStore(config, 4)),
    ):
        runner = MissionRunner(_loaded(engine, workload), chunk_size=128)
        missions[name] = runner.run(mission)

    return put_tree, batch_tree, missions


def test_sharding_scale(benchmark):
    put_tree, batch_tree, missions = benchmark.pedantic(
        run_sharding_scale, rounds=1, iterations=1
    )
    one, four = missions["1 shard"], missions["4 shards"]
    rows = {
        "put loop (1 shard)": (one.n_updates, put_tree.clock_now),
        "put_batch (1 shard)": (one.n_updates, batch_tree.clock_now),
        "mission (1 shard)": (one.n_operations, one.sim_duration),
        "mission (4 shards)": (four.n_operations, four.sim_duration),
    }

    lines = [
        f"Sharding & batch ingestion, write-heavy YCSB mission ({N_OPS} ops)",
        f"{'path':>22} | {'ops':>8} | {'sim s':>8}",
    ]
    for name, (n_ops, sim_s) in rows.items():
        lines.append(f"{name:>22} | {n_ops:8d} | {sim_s:8.3f}")
    emit_report("sharding_scale", "\n".join(lines))
    emit_metrics(
        "sharding_scale",
        {
            "paths": {
                name: {"sim_total_s": sim_s}
                for name, (_, sim_s) in rows.items()
            }
        },
    )

    # KVEngine contract: put_batch is the per-key put loop, vectorized —
    # identical flush boundaries and cost charging.
    assert batch_tree.clock_now == put_tree.clock_now
    assert batch_tree.io_counters == put_tree.io_counters
    # One shard adds routing, not cost: the store charges what the tree does.
    assert one.sim_duration == missions["bare tree"].sim_duration
    assert four.n_operations == N_OPS
