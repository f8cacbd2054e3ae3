"""Range-path micro-benchmark: batched segment merges vs the per-op loop.

Races the level-at-a-time ``LSMTree.range_scan_batch`` against the pre-PR
per-range loop (kept verbatim, test-side, as
:func:`reference_range.reference_range_scan_batch`) over identical tree
snapshots and identical range batches, on two panels:

* ``leveling range-heavy`` — one run per level, mixed spans including
  degenerate (``lo == hi``) and out-of-domain ranges;
* ``tiering stacked ranges`` — stacked sealed runs (the paper's tiering
  shape), where the per-op loop pays one ``searchsorted`` pair and one
  Python merge per range per run. **This is the gated panel**: the
  vectorized path must win by the acceptance floor below.

The headline metric is *wall-clock* throughput of the reproduction
itself; simulated charges are asserted **bit-identical** between the two
paths (``sim_total_s`` enters the metrics snapshot, where the trajectory
diff treats it as deterministic).
"""

import time

import numpy as np
from _common import emit_metrics, emit_report
from reference_range import reference_range_scan_batch

from repro.bench import base_config, bench_scale
from repro.lsm import FLSMTree

N_BATCHES = 20
BATCH = 256  # ranges per batch
MAX_SPAN = 200
SEED = 23

#: Acceptance floors for the stacked-runs panel (reference wall /
#: vectorized wall). The default-scale floor is the PR's headline gate;
#: quick CI runs keep a cushion against noisy shared runners.
SPEEDUP_FLOOR = {"quick": 1.1, "default": 1.5, "full": 1.5}

PANELS = (
    # (name, policy)
    ("leveling range-heavy", "leveling"),
    ("tiering stacked ranges", "tiering"),
)

GATED_PANEL = "tiering stacked ranges"


def _build_tree(scale, policy):
    """A steady-state tree pinned to ``policy`` with a warm memtable."""
    config = base_config(scale=scale, seed=SEED)
    tree = FLSMTree(config)
    tree.set_named_policy(policy)
    rng = np.random.default_rng(SEED)
    n = scale.n_records
    keys = np.sort(rng.choice(n * 4, size=n, replace=False))
    values = rng.integers(0, 10**6, size=n)
    tree.bulk_load(keys, values, distribute=True)
    tree.put_batch(
        rng.integers(0, n * 4, size=500), rng.integers(0, 10**6, size=500)
    )
    return tree


def _range_batches(scale):
    """Identical inclusive range batches for both contenders."""
    rng = np.random.default_rng(SEED + 1)
    domain = scale.n_records * 4
    batches = []
    for _ in range(N_BATCHES):
        los = rng.integers(0, domain, size=BATCH)
        spans = rng.integers(0, MAX_SPAN, size=BATCH)
        spans[rng.random(BATCH) < 0.1] = 0  # degenerate lo == hi
        los[rng.random(BATCH) < 0.05] += domain * 10  # no overlap
        batches.append((los.astype(np.int64), (los + spans).astype(np.int64)))
    return batches


def _race_panel(scale, policy):
    tree = _build_tree(scale, policy)
    twin = FLSMTree(tree.config)
    twin.load_state_dict(tree.state_dict())
    batches = _range_batches(scale)

    started = time.perf_counter()
    outputs_new = [tree.range_scan_batch(los, his) for los, his in batches]
    new_wall = time.perf_counter() - started

    started = time.perf_counter()
    outputs_ref = [
        reference_range_scan_batch(twin, los, his) for los, his in batches
    ]
    ref_wall = time.perf_counter() - started

    # Correctness contract: identical answers AND bit-identical simulated
    # charges — the optimization is allowed to change wall-clock only.
    n_entries = 0
    for new, ref in zip(outputs_new, outputs_ref):
        for array_new, array_ref in zip(new, ref):
            assert np.array_equal(array_new, array_ref)
        n_entries += len(new[0])
    assert tree.clock.now == twin.clock.now, (
        f"sim divergence: {tree.clock.now} != {twin.clock.now}"
    )
    assert dict(tree.stats.level_read_time) == dict(twin.stats.level_read_time)
    assert tree.stats.total_ranges == twin.stats.total_ranges

    n_ranges = N_BATCHES * BATCH
    max_runs = max(level.n_runs for level in tree.levels)
    return {
        "n_ranges": n_ranges,
        "n_result_entries": n_entries,
        "max_runs_per_level": max_runs,
        "new_wall_s": new_wall,
        "reference_wall_s": ref_wall,
        "ops_per_second": n_ranges / new_wall if new_wall else 0.0,
        "reference_ops_per_second": n_ranges / ref_wall if ref_wall else 0.0,
        "speedup": ref_wall / new_wall if new_wall else float("inf"),
        "sim_total_s": tree.clock.now,
    }


def run_range_path_scale():
    scale = bench_scale()
    return scale, {
        name: _race_panel(scale, policy) for name, policy in PANELS
    }


def test_range_path_scale(benchmark):
    scale, panels = benchmark.pedantic(
        run_range_path_scale, rounds=1, iterations=1
    )

    lines = [
        "Vectorized vs per-op-reference range path "
        f"({N_BATCHES} batches x {BATCH} ranges, spans 0-{MAX_SPAN}, "
        f"scale={scale.name})",
        f"{'panel':>24} | {'runs':>4} | {'entries':>8} | "
        f"{'new krng/s':>10} | {'ref krng/s':>10} | {'speedup':>7} | "
        f"{'sim s':>8}",
    ]
    for name, row in panels.items():
        lines.append(
            f"{name:>24} | {row['max_runs_per_level']:4d} | "
            f"{row['n_result_entries']:8d} | "
            f"{row['ops_per_second'] / 1e3:10.1f} | "
            f"{row['reference_ops_per_second'] / 1e3:10.1f} | "
            f"{row['speedup']:6.2f}x | {row['sim_total_s']:8.4f}"
        )
    lines.append("")
    lines.append(
        "simulated charges bit-identical across paths on every panel; "
        f"gated panel '{GATED_PANEL}' floor: "
        f"{SPEEDUP_FLOOR[scale.name]:.2f}x"
    )
    emit_report("range_path_scale", "\n".join(lines))
    emit_metrics("range_path_scale", {"panels": panels})

    # The stacked-runs panel is where batching amortizes per-run work;
    # the 1-run-per-level panel must at minimum not regress.
    gated = panels[GATED_PANEL]["speedup"]
    assert gated >= SPEEDUP_FLOOR[scale.name], (
        f"stacked range path speedup {gated:.2f}x below "
        f"{SPEEDUP_FLOOR[scale.name]:.2f}x floor"
    )
    assert panels["leveling range-heavy"]["speedup"] > 0.8
    # The gated panel must actually exercise stacked runs.
    assert panels[GATED_PANEL]["max_runs_per_level"] >= 2
