"""Read-path equivalence at benchmark scale: vectorized vs scalar reference.

Runs the level-at-a-time ``LSMTree.get_batch`` and the run-at-a-time loop
it replaced (kept verbatim, test-side, as
:func:`reference_get.reference_get_batch`) over identical tree snapshots
and identical probe batches, on three panels:

* ``leveling read-heavy`` — one run per level, 90 % present keys;
* ``tiering read-heavy`` — stacked sealed runs (the paper's tiering
  shape), 90 % present keys;
* ``tiering zipfian cached`` — stacked runs, Zipf(0.99) probes, block
  cache enabled, exercising the batched
  :meth:`LRUBlockCache.access_batch` branch.

Answers and simulated charges are asserted **bit-identical** between the
two paths; ``sim_total_s`` enters the metrics snapshot. How much faster the
vectorized path runs on the host is ``perfbench``'s ``lsm.get_batch_s``.
"""

import copy

import numpy as np
from _common import emit_metrics, emit_report
from reference_get import reference_get_batch

from repro.bench import base_config, bench_scale
from repro.lsm import FLSMTree
from repro.workload.zipf import ZipfianSampler

N_BATCHES = 40
BATCH = 1_024
SEED = 17

PANELS = (
    # (name, policy, zipfian probes, block-cache pages)
    ("leveling read-heavy", "leveling", False, 0),
    ("tiering read-heavy", "tiering", False, 0),
    ("tiering zipfian cached", "tiering", True, 256),
)

STACKED_PANEL = "tiering read-heavy"


def _build_tree(scale, policy, cache_pages):
    """A steady-state tree pinned to ``policy`` with a warm memtable."""
    config = base_config(scale=scale, seed=SEED).with_updates(
        block_cache_pages=cache_pages
    )
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
    return tree, keys


def _probe_batches(keys, zipfian):
    """Identical probe batches for both contenders."""
    n = len(keys)
    if zipfian:
        sampler = ZipfianSampler(n, np.random.default_rng(SEED + 1))
        return [keys[sampler.sample(BATCH)] for _ in range(N_BATCHES)]
    rng = np.random.default_rng(SEED + 1)
    return [
        np.where(
            rng.random(BATCH) < 0.9,  # read-heavy: 90 % present keys
            keys[rng.integers(0, n, size=BATCH)],
            rng.integers(0, n * 4, size=BATCH),
        ).astype(np.int64)
        for _ in range(N_BATCHES)
    ]


def _run_panel(scale, policy, zipfian, cache_pages):
    tree, keys = _build_tree(scale, policy, cache_pages)
    twin = copy.deepcopy(tree)
    batches = _probe_batches(keys, zipfian)

    outputs_new = [tree.get_batch(batch) for batch in batches]
    outputs_ref = [reference_get_batch(twin, batch) for batch in batches]

    # Correctness contract: identical answers AND bit-identical simulated
    # charges — the optimization is allowed to change host time only.
    for (found_new, values_new), (found_ref, values_ref) in zip(
        outputs_new, outputs_ref
    ):
        assert np.array_equal(found_new, found_ref)
        assert np.array_equal(values_new, values_ref)
    assert tree.clock.now == twin.clock.now, (
        f"sim divergence: {tree.clock.now} != {twin.clock.now}"
    )
    assert dict(tree.stats.level_read_time) == dict(twin.stats.level_read_time)

    return {
        "n_operations": N_BATCHES * BATCH,
        "max_runs_per_level": max(level.n_runs for level in tree.levels),
        "sim_total_s": tree.clock.now,
    }


def run_read_path_scale():
    scale = bench_scale()
    return scale, {
        name: _run_panel(scale, policy, zipfian, cache_pages)
        for name, policy, zipfian, cache_pages in PANELS
    }


def test_read_path_scale(benchmark):
    scale, panels = benchmark.pedantic(
        run_read_path_scale, rounds=1, iterations=1
    )

    lines = [
        "Vectorized vs scalar-reference read path "
        f"({N_BATCHES} batches x {BATCH} keys, scale={scale.name})",
        f"{'panel':>24} | {'runs':>4} | {'keys':>8} | {'sim s':>8}",
    ]
    for name, row in panels.items():
        lines.append(
            f"{name:>24} | {row['max_runs_per_level']:4d} | "
            f"{row['n_operations']:8d} | {row['sim_total_s']:8.4f}"
        )
    lines.append("")
    lines.append(
        "answers and simulated charges bit-identical across paths on every "
        "panel"
    )
    emit_report("read_path_scale", "\n".join(lines))
    emit_metrics("read_path_scale", {"panels": panels})

    # The stacked panels must actually exercise stacked runs.
    assert panels[STACKED_PANEL]["max_runs_per_level"] >= 2
