#!/usr/bin/env python
"""Profile the vectorized read path, stage by stage.

Builds a steady-state FLSM-tree with a tracer attached
(``tree.set_tracer(Tracer())``), streams point-lookup batches through
:meth:`LSMTree.get_batch` and range batches through
:meth:`LSMTree.range_scan_batch`, and prints the per-stage wall-clock
breakdown the batch spans lapped (point stages: memtable / search / bloom /
charge; range stages: range_search / range_charge / range_gather /
range_merge — a fold over ``tracer.spans()``) plus headline throughput.
Pass ``--range-batches 0`` to profile point lookups only.

Then it builds perfbench's ``offline_sharded_scan`` workload (4 shards,
static policy, Zipf point lookups and 64-key range scans over 200k records,
a block cache smaller than the data; ``--seed`` seeds its generator), runs
the missions of its warm-up at ``--seconds 10`` and prints the laps of each
mission's ``store.run_chunks`` span: ``chunks`` (queueing), then the read
plans' ``search`` / ``bloom`` / ``charge``.

Laps measure *host* time only — tracing never touches the simulated
clock, so the numbers here are about the reproduction's own speed, not
the modeled device.

Usage::

    PYTHONPATH=src python scripts/profile_read_path.py \
        --policy tiering --n-records 50000 --batches 40 \
        --batch-size 1024 --zipf --cache-pages 256 \
        --range-batches 10 --range-batch-size 256 --range-span 200
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import numpy as np  # noqa: E402

from perfbench.workloads import UNIT_OPS, OfflineShardedScan  # noqa: E402
from repro.config import SystemConfig  # noqa: E402
from repro.lsm import FLSMTree  # noqa: E402
from repro.lsm.rangepath import RANGE_STAGES  # noqa: E402
from repro.lsm.readplan import PLAN_STAGES  # noqa: E402
from repro.obs import Tracer, stage_totals  # noqa: E402
from repro.workload.zipf import ZipfianSampler  # noqa: E402

POLICIES = ("leveling", "tiering", "lazy-leveling")
#: Stage rows of the report, in pipeline order.
STAGES = ("memtable",) + PLAN_STAGES + RANGE_STAGES
#: Stage rows of the mission report: queueing, then the plans' passes.
MISSION_STAGES = ("chunks",) + PLAN_STAGES
#: The perfbench run length whose warm-up missions are profiled.
MISSION_SECONDS = 10.0


def format_report(spans) -> tuple[str, float]:
    """The per-stage table of the given span trees and the seconds it
    accounts for. ``us/op`` normalizes point stages by keys probed and
    range stages by ranges scanned."""
    totals = stage_totals(spans)
    gets = [s for s in spans if s.name == "lsm.get_batch"]
    scans = [s for s in spans if s.name == "lsm.range_scan_batch"]
    n_keys = sum(s.attrs["n_keys"] for s in gets)
    n_ranges = sum(s.attrs["n_ranges"] for s in scans)
    total = sum(seconds for seconds, _ in totals.values())
    lines = [
        f"read-path profile: {len(gets)} batches / {n_keys} keys, "
        f"{len(scans)} range batches / {n_ranges} ranges, "
        f"{total * 1e3:.2f} ms lapped",
        f"{'stage':>12} | {'ms':>9} | {'%':>6} | {'calls':>8} | {'us/op':>8}",
    ]
    for stage in STAGES:
        seconds, calls = totals.get(stage, (0.0, 0))
        share = 100.0 * seconds / total if total else 0.0
        n_ops = n_ranges if stage in RANGE_STAGES else n_keys
        per_op = seconds / n_ops * 1e6 if n_ops else 0.0
        lines.append(
            f"{stage:>12} | {seconds * 1e3:9.2f} | {share:6.1f} | "
            f"{calls:8d} | {per_op:8.3f}"
        )
    return "\n".join(lines), total


def mission_report(spans) -> str:
    """The per-stage table of the ``store.run_chunks`` spans; ``us/op``
    normalizes by mission operations."""
    totals = stage_totals(spans)
    total = sum(totals.get(stage, (0.0, 0))[0] for stage in MISSION_STAGES)
    n_ops = len(spans) * UNIT_OPS
    lines = [
        f"mission read plans: {len(spans)} missions / {n_ops} ops over "
        f"{OfflineShardedScan.n_shards} shards, {total * 1e3:.2f} ms lapped",
        f"{'stage':>12} | {'ms':>9} | {'%':>6} | {'calls':>8} | {'us/op':>8}",
    ]
    for stage in MISSION_STAGES:
        seconds, calls = totals.get(stage, (0.0, 0))
        share = 100.0 * seconds / total if total else 0.0
        lines.append(
            f"{stage:>12} | {seconds * 1e3:9.2f} | {share:6.1f} | "
            f"{calls:8d} | {seconds / n_ops * 1e6:8.3f}"
        )
    return "\n".join(lines)


def profile_missions(seed: int) -> str:
    """Run the warm-up missions of ``offline_sharded_scan`` with a tracer
    attached after the load; returns their report."""
    workload = OfflineShardedScan(seed, MISSION_SECONDS, scratch="")
    workload.build()
    workload.load()
    missions = workload.take(workload.sizes.warm_units, None)
    tracer = Tracer(max_spans=4 * len(missions))
    workload.engine.set_tracer(tracer)
    for mission in missions:
        workload.store.run_mission(mission)
    return mission_report([s for s in tracer.spans() if s.name == "store.run_chunks"])


def build_tree(args) -> tuple[FLSMTree, np.ndarray]:
    config = SystemConfig(
        size_ratio=args.size_ratio,
        entry_bytes=1024,
        page_bytes=4096,
        write_buffer_bytes=args.write_buffer_kib * 1024,
        bits_per_key=args.bits_per_key,
        block_cache_pages=args.cache_pages,
        seed=args.seed,
    )
    tree = FLSMTree(config)
    tree.set_named_policy(args.policy)
    rng = np.random.default_rng(args.seed)
    n = args.n_records
    keys = np.sort(rng.choice(n * 4, size=n, replace=False))
    values = rng.integers(0, 10**6, size=n)
    tree.bulk_load(keys, values, distribute=True)
    # Warm memtable so the buffer stage has something to resolve.
    tree.put_batch(
        rng.integers(0, n * 4, size=min(500, n)),
        rng.integers(0, 10**6, size=min(500, n)),
    )
    return tree, keys


def probe_batches(args, keys: np.ndarray) -> list[np.ndarray]:
    n = len(keys)
    rng = np.random.default_rng(args.seed + 1)
    if args.zipf:
        sampler = ZipfianSampler(n, rng, exponent=args.zipf_exponent)
        return [keys[sampler.sample(args.batch_size)] for _ in range(args.batches)]
    return [
        np.where(
            rng.random(args.batch_size) < args.hit_fraction,
            keys[rng.integers(0, n, size=args.batch_size)],
            rng.integers(0, n * 4, size=args.batch_size),
        ).astype(np.int64)
        for _ in range(args.batches)
    ]


def range_batches(args, keys: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inclusive ``(los, his)`` batches with mixed spans (incl. lo == hi)."""
    domain = len(keys) * 4
    rng = np.random.default_rng(args.seed + 2)
    batches = []
    for _ in range(args.range_batches):
        los = rng.integers(0, domain, size=args.range_batch_size)
        spans = rng.integers(0, max(1, args.range_span), size=args.range_batch_size)
        spans[rng.random(args.range_batch_size) < 0.1] = 0
        batches.append((los.astype(np.int64), (los + spans).astype(np.int64)))
    return batches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[1],
    )
    parser.add_argument("--policy", choices=POLICIES, default="tiering")
    parser.add_argument("--n-records", type=int, default=50_000)
    parser.add_argument("--batches", type=int, default=40)
    parser.add_argument("--batch-size", type=int, default=1_024)
    parser.add_argument("--size-ratio", type=int, default=10)
    parser.add_argument("--write-buffer-kib", type=int, default=128)
    parser.add_argument("--bits-per-key", type=float, default=8.0)
    parser.add_argument("--cache-pages", type=int, default=0)
    parser.add_argument(
        "--zipf", action="store_true", help="Zipfian probes instead of uniform"
    )
    parser.add_argument("--zipf-exponent", type=float, default=0.99)
    parser.add_argument(
        "--hit-fraction",
        type=float,
        default=0.9,
        help="fraction of probes drawn from loaded keys (uniform mode)",
    )
    parser.add_argument(
        "--range-batches",
        type=int,
        default=10,
        help="range batches to stream after the point lookups (0 disables)",
    )
    parser.add_argument("--range-batch-size", type=int, default=256)
    parser.add_argument(
        "--range-span",
        type=int,
        default=200,
        help="max inclusive range span (individual spans are uniform in "
        "[0, span), 10%% forced to lo == hi)",
    )
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)

    tree, keys = build_tree(args)
    # Attached after the build: only the streamed batches are profiled.
    tracer = Tracer(max_spans=max(1, args.batches + args.range_batches))
    tree.set_tracer(tracer)
    batches = probe_batches(args, keys)
    shape = {level.level_no: level.n_runs for level in tree.levels}
    print(
        f"tree: policy={args.policy} n_records={args.n_records} "
        f"runs/level={shape} cache_pages={args.cache_pages}"
    )

    started = time.perf_counter()
    n_found = 0
    for batch in batches:
        found, _ = tree.get_batch(batch)
        n_found += int(found.sum())
    wall = time.perf_counter() - started

    n_ops = args.batches * args.batch_size
    print(
        f"lookups: {n_ops} keys in {wall:.3f}s wall "
        f"({n_ops / wall / 1e3:.1f} kops/s), {n_found} found, "
        f"sim={tree.clock_now:.4f}s"
    )

    range_wall = 0.0
    if args.range_batches:
        started = time.perf_counter()
        n_entries = 0
        for los, his in range_batches(args, keys):
            scanned, _, _ = tree.range_scan_batch(los, his)
            n_entries += len(scanned)
        range_wall = time.perf_counter() - started
        n_ranges = args.range_batches * args.range_batch_size
        print(
            f"ranges: {n_ranges} ranges in {range_wall:.3f}s wall "
            f"({n_ranges / range_wall / 1e3:.1f} krng/s), "
            f"{n_entries} entries, sim={tree.clock_now:.4f}s"
        )

    report, lapped = format_report(tracer.spans())
    print()
    print(report)
    print(
        f"\nunlapped residue: {(wall + range_wall - lapped) * 1e3:.2f} ms "
        "(validation, op counting, span open/close, the driver loop)"
    )
    print()
    print(profile_missions(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
