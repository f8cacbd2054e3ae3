#!/usr/bin/env python
"""Quickstart: a self-tuning RusKey store in a few lines.

Builds a RusKey store (FLSM-tree + Lerp tuner), bulk loads records, runs a
balanced workload mission-by-mission and shows the store tuning its
compaction policies online. Also demonstrates the plain key-value API and
the sharded engine.

Run:  python examples/quickstart.py
"""

from repro import RusKey, SystemConfig
from repro.bench import bench_lerp_config
from repro.workload import UniformWorkload

N_RECORDS = 20_000
N_MISSIONS = 120
MISSION_SIZE = 800


def main() -> None:
    config = SystemConfig(
        write_buffer_bytes=64 * 1024,  # small buffer => multi-level tree fast
        seed=7,
    )
    store = RusKey(config)

    # --- plain key-value API ------------------------------------------------
    store.put(1, 100)
    store.put(2, 200)
    store.delete(1)
    print("get(1) after delete:", store.get(1))
    print("get(2):", store.get(2))
    print("range_lookup(0, 10):", store.range_lookup(0, 10))

    # --- mission loop with online tuning ------------------------------------
    workload = UniformWorkload(N_RECORDS, lookup_fraction=0.5, seed=3)
    keys, values = workload.load_records()
    # bench_lerp_config sizes exploration decay so tuning converges within
    # the requested mission budget.
    fresh = RusKey(config, lerp_config=bench_lerp_config(N_MISSIONS, seed=7))
    fresh.bulk_load(keys, values, distribute=True)

    print(f"\nRunning {N_MISSIONS} missions of a balanced workload...")
    for index, mission in enumerate(workload.missions(N_MISSIONS, MISSION_SIZE)):
        stats = fresh.run_mission(mission)
        if index % 20 == 0:
            print(
                f"  mission {index:>4}: "
                f"{stats.latency_per_op * 1e3:.4f} ms/op, "
                f"policies K = {fresh.policies()}"
            )

    print("\nFinal compaction policies:", fresh.policies())
    print(
        "Mean latency over the last 30 missions: "
        f"{fresh.mean_latency(last_n=30) * 1e3:.4f} ms/op (simulated)"
    )
    print("Tree structure:")
    for row in fresh.engine.describe():
        print("  ", row)

    # --- sharded engine: same API, hash-partitioned over 4 FLSM shards ------
    sharded = RusKey(config, n_shards=4)
    sharded.bulk_load(keys, values)
    sharded.put_batch(keys[:1000], values[:1000])  # vectorized ingestion
    found, _ = sharded.get_batch(keys[:1000])
    print(
        f"\nSharded store (4 shards): {sharded.engine.total_entries} entries, "
        f"batch lookups found {int(found.sum())}/1000, "
        f"one Lerp tuner per shard: {len(sharded.tuners)}"
    )


if __name__ == "__main__":
    main()
