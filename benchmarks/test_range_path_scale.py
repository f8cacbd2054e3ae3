"""Range-path equivalence at benchmark scale: batched merges vs the per-op loop.

Runs the level-at-a-time ``LSMTree.range_scan_batch`` and the per-range
loop it replaced (kept verbatim, test-side, as
:func:`reference_range.reference_range_scan_batch`) over identical tree
snapshots and identical range batches, on two panels:

* ``leveling range-heavy`` — one run per level, mixed spans including
  degenerate (``lo == hi``) and out-of-domain ranges;
* ``tiering stacked ranges`` — stacked sealed runs (the paper's tiering
  shape), where the per-op loop pays one ``searchsorted`` pair and one
  Python merge per range per run.

Answers and simulated charges are asserted **bit-identical** between the
two paths; ``sim_total_s`` enters the metrics snapshot. How much faster the
batched path runs on the host is ``perfbench``'s ``lsm.range_scan_batch_s``.
"""

import copy

import numpy as np
from _common import emit_metrics, emit_report
from reference_range import reference_range_scan_batch

from repro.bench import base_config, bench_scale
from repro.lsm import FLSMTree

N_BATCHES = 20
BATCH = 256  # ranges per batch
MAX_SPAN = 200
SEED = 23

PANELS = (
    # (name, policy)
    ("leveling range-heavy", "leveling"),
    ("tiering stacked ranges", "tiering"),
)

STACKED_PANEL = "tiering stacked ranges"


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


def _run_panel(scale, policy):
    tree = _build_tree(scale, policy)
    twin = copy.deepcopy(tree)
    batches = _range_batches(scale)

    outputs_new = [tree.range_scan_batch(los, his) for los, his in batches]
    outputs_ref = [
        reference_range_scan_batch(twin, los, his) for los, his in batches
    ]

    # Correctness contract: identical answers AND bit-identical simulated
    # charges — the optimization is allowed to change host time only.
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

    return {
        "n_ranges": N_BATCHES * BATCH,
        "n_result_entries": n_entries,
        "max_runs_per_level": max(level.n_runs for level in tree.levels),
        "sim_total_s": tree.clock.now,
    }


def run_range_path_scale():
    scale = bench_scale()
    return scale, {
        name: _run_panel(scale, policy) for name, policy in PANELS
    }


def test_range_path_scale(benchmark):
    scale, panels = benchmark.pedantic(
        run_range_path_scale, rounds=1, iterations=1
    )

    lines = [
        "Vectorized vs per-op-reference range path "
        f"({N_BATCHES} batches x {BATCH} ranges, spans 0-{MAX_SPAN}, "
        f"scale={scale.name})",
        f"{'panel':>24} | {'runs':>4} | {'entries':>8} | {'sim s':>8}",
    ]
    for name, row in panels.items():
        lines.append(
            f"{name:>24} | {row['max_runs_per_level']:4d} | "
            f"{row['n_result_entries']:8d} | {row['sim_total_s']:8.4f}"
        )
    lines.append("")
    lines.append(
        "answers and simulated charges bit-identical across paths on every "
        "panel"
    )
    emit_report("range_path_scale", "\n".join(lines))
    emit_metrics("range_path_scale", {"panels": panels})

    # The stacked panel must actually exercise stacked runs.
    assert panels[STACKED_PANEL]["max_runs_per_level"] >= 2
