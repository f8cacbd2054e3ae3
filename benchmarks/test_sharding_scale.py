"""Sharding & batch-ingestion micro-benchmark (beyond the paper).

Measures two scaling levers the engine layer adds on top of the paper's
single FLSM-tree:

* ``put`` loop vs vectorized ``put_batch`` ingestion of the update stream
  of a write-heavy YCSB mission (>= 100k operations) — the batch path must
  win on wall-clock;
* 1-shard vs 4-shard execution of the full mission through
  :class:`MissionRunner` — reported for both wall-clock and simulated time
  (hash partitioning splits each flush across shards, so per-shard
  compactions are smaller and more frequent; the report shows the realized
  trade at this scale).

Unlike the figure benchmarks, the headline metric here is *wall-clock*
throughput of the reproduction itself, not simulated latency.
"""

import time

from _common import emit_metrics, emit_report

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

    rows = {}

    # --- put vs put_batch (1 shard) -----------------------------------
    tree = _loaded(FLSMTree(config), workload)
    started = time.perf_counter()
    for k, v in zip(keys.tolist(), values.tolist()):
        tree.put(k, v)
    put_wall = time.perf_counter() - started
    rows["put loop (1 shard)"] = (put_wall, len(keys), tree.clock_now)

    tree = _loaded(FLSMTree(config), workload)
    started = time.perf_counter()
    for start in range(0, len(keys), BATCH):
        tree.put_batch(keys[start : start + BATCH], values[start : start + BATCH])
    batch_wall = time.perf_counter() - started
    rows["put_batch (1 shard)"] = (batch_wall, len(keys), tree.clock_now)

    # --- 1 shard vs 4 shards, full mission through the runner ---------
    shard_walls = {}
    for n_shards in (1, 4):
        engine = _loaded(ShardedStore(config, n_shards), workload)
        runner = MissionRunner(engine, chunk_size=128)
        started = time.perf_counter()
        stats = runner.run(mission)
        wall = time.perf_counter() - started
        shard_walls[n_shards] = wall
        rows[f"mission ({n_shards} shard{'s' if n_shards > 1 else ''})"] = (
            wall,
            stats.n_operations,
            stats.sim_duration,
        )

    return rows, put_wall / batch_wall, shard_walls


def test_sharding_scale(benchmark):
    rows, batch_speedup, shard_walls = benchmark.pedantic(
        run_sharding_scale, rounds=1, iterations=1
    )

    lines = [
        f"Sharding & batch ingestion, write-heavy YCSB mission ({N_OPS} ops)",
        f"{'path':>22} | {'wall s':>8} | {'kops/s (wall)':>13} | {'sim s':>8}",
    ]
    for name, (wall, n_ops, sim_s) in rows.items():
        kops = n_ops / wall / 1e3 if wall else float("inf")
        lines.append(f"{name:>22} | {wall:8.3f} | {kops:13.1f} | {sim_s:8.3f}")
    lines.append("")
    lines.append(
        f"put_batch speedup over per-key put loop: {batch_speedup:.2f}x"
    )
    lines.append(
        "4-shard vs 1-shard mission wall time: "
        f"{shard_walls[1]:.3f}s -> {shard_walls[4]:.3f}s "
        f"({shard_walls[1] / shard_walls[4]:.2f}x)"
    )
    emit_report("sharding_scale", "\n".join(lines))
    emit_metrics(
        "sharding_scale",
        {
            "paths": {
                name: {
                    "ops_per_second": n_ops / wall if wall else 0.0,
                    "sim_total_s": sim_s,
                }
                for name, (wall, n_ops, sim_s) in rows.items()
            },
            "batch_speedup": batch_speedup,
        },
    )

    # Acceptance: the vectorized batch path beats per-key ingestion.
    assert batch_speedup > 1.0, f"put_batch slower than put ({batch_speedup:.2f}x)"
    # Sharding must not collapse throughput (parallelism is simulated, so we
    # only require the 4-shard run to stay within 3x of the single shard).
    assert shard_walls[4] < 3.0 * shard_walls[1]
