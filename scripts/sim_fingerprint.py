#!/usr/bin/env python
"""Simulation-state fingerprint over a fixed grid (ROADMAP 17).

Each grid cell builds one store, runs a short fixed stream through it and
hashes what the simulation holds afterwards: the engine's view (clock,
per-level read/write maps in insertion order, I/O and cache counters,
policies), every tree's LRU order and RNG state, the keys and values of
every run and of the memtable, the mission log (one record per window),
the policy history and the audit events. Cells with a learned tuner also
hash the tuner's RNG state and, as a second digest, its model: every net
of every agent, the optimizers' step counts and moments, the replay
buffers and the exploration noise.

The grid covers the bare tree, a 4-shard store and the durable store;
both Bloom modes; cache on and off; the three transitions; static,
named-policy, lazy-leveling and threshold tuners; ``Lerp``,
``AllLevelsLerp``, ``JointLerp`` and ``NamedPolicyLerp`` runs long enough
to switch policy (with the default eight updates a mission); the mission
path and the one-batch calls outside a window.

``tests/data/sim_fingerprint.json`` holds the digests, and
``tests/test_sim_fingerprint.py`` recomputes them. A change meant to move
a simulated float re-records the file in a commit of its own and names
the cells that moved.

A model digest is exact only on a host whose matrix products round as
the recording host's did (the BLAS kernel fixes the summation order).
The file records a digest of a few fixed products, and model digests are
compared only where that probe matches.

Usage::

    PYTHONPATH=src python scripts/sim_fingerprint.py           # compare
    PYTHONPATH=src python scripts/sim_fingerprint.py --record  # re-record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import tempfile
from typing import Callable, Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.config import BloomMode, SystemConfig, TransitionKind  # noqa: E402
from repro.core.joint import JointLerp  # noqa: E402
from repro.core.lerp import AllLevelsLerp, Lerp, LerpConfig  # noqa: E402
from repro.core.named_policy import NamedPolicyLerp  # noqa: E402
from repro.core.ruskey import RusKey  # noqa: E402
from repro.core.tuners import (  # noqa: E402
    GreedyThresholdTuner,
    LazyLevelingTuner,
    NamedPolicyTuner,
    StaticTuner,
)
from repro.durable import DurableStore  # noqa: E402
from repro.obs.audit import DecisionAuditLog  # noqa: E402
from repro.rl.nn import MLP  # noqa: E402
from repro.rl.optim import Adam  # noqa: E402
from repro.workload.dynamic import DynamicWorkload, WorkloadPhase  # noqa: E402
from repro.workload.uniform import UniformWorkload  # noqa: E402
from repro.workload.ycsb import YCSBWorkload  # noqa: E402

GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "sim_fingerprint.json"

#: A small tree with four levels at 3,000 records: 32 entries a flush, T=4.
BASE = SystemConfig(
    size_ratio=4, entry_bytes=1024, page_bytes=4096,
    write_buffer_bytes=32 * 1024, bits_per_key=6.0, seed=11,
)
N_RECORDS = 3_000
MISSION_SIZE = 250

FLEX, GREEDY, LAZY = TransitionKind.FLEXIBLE, TransitionKind.GREEDY, TransitionKind.LAZY


def _digest(*parts: object) -> str:
    """sha256 of the parts: arrays by dtype, shape and bytes, everything
    else by ``repr`` (a Python float's repr round-trips exactly)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, (list, tuple)):
            h.update(b"[")
            h.update(_digest(*part).encode())
            h.update(b"]")
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _tree_state(tree) -> list:
    runs = [
        (level.level_no, level.policy, run.keys, run.values)
        for level in tree.levels
        for run in level.runs
    ]
    return [
        list(tree.cache), tree.cache.hits, tree.cache.misses,
        tree._rng.bit_generator.state, runs, list(tree.memtable._entries.items()),
    ]


def _store_digest(store: RusKey, audit: DecisionAuditLog) -> str:
    trees = store.engine.tuning_targets()
    return _digest(
        repr(store.view()),
        [_tree_state(tree) for tree in trees],
        [repr(stats) for stats in store.mission_log],
        store.policy_history,
        [repr(event) for event in audit.events],
    )


def _agents(tuner) -> list:
    levels = getattr(tuner, "_levels", None)
    if levels is not None:
        return [levels[n].agent for n in sorted(levels)]
    agent = getattr(tuner, "_joint_agent", None) or getattr(tuner, "_agent", None)
    return [agent] if agent is not None else []


def _model_digest(tuner) -> str:
    parts: list = []
    for agent in _agents(tuner):
        for name, value in vars(agent).items():
            if isinstance(value, MLP):
                parts += [name, value.flat_params]
            elif isinstance(value, Adam):
                parts += [name, value._t, value._m, value._v]
        replay = agent.replay
        parts += [len(replay), replay._cursor]
        parts += [getattr(replay, column)[: len(replay)] for column in replay._COLUMNS]
        noise = getattr(agent, "noise", None)
        if noise is not None:
            parts += [v for v in vars(noise).values() if not isinstance(v, np.random.Generator)]
        parts += [getattr(agent, "updates_done", None), getattr(agent, "epsilon", None)]
    return _digest(*parts)


def _one_batch_calls(store: RusKey) -> None:
    """The public batch calls outside a mission window."""
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 2 * N_RECORDS, size=120)
    store.put_batch(keys, rng.integers(0, 2**31, size=120))
    store.get_batch(rng.integers(0, 2 * N_RECORDS, size=90))
    store.delete_batch(keys[:25])
    los = rng.integers(0, 2 * N_RECORDS, size=6)
    store.range_scan_batch(los, los + rng.integers(1, 80, size=6))
    store.get_batch(keys[:40])


def _run(
    tuner,
    workload,
    n_missions: int,
    *,
    engine: str = "bare",
    bloom: BloomMode = BloomMode.ANALYTICAL,
    cache: int = 0,
    initial_policy: int = 1,
    data_dir: Optional[str] = None,
) -> Dict[str, str]:
    config = BASE.with_updates(
        bloom_mode=bloom, block_cache_pages=cache, initial_policy=initial_policy
    )
    kwargs: dict = {"n_shards": 4} if engine == "sharded" else {}
    if engine == "durable":
        kwargs = {"engine": DurableStore(data_dir, config)}
    store = RusKey(config, tuner=tuner, chunk_size=32, **kwargs)
    audit = DecisionAuditLog()
    store.attach_audit(audit)
    keys, values = workload.load_records()
    store.bulk_load(keys, values, distribute=True)
    store.run_missions(workload.missions(n_missions, MISSION_SIZE))
    _one_batch_calls(store)
    store.run_missions(workload.missions(2, MISSION_SIZE))
    if engine == "durable":
        store.engine.close()
    cell = {"sim": _store_digest(store, audit)}
    if _agents(tuner):
        cell["sim"] = _digest(cell["sim"], tuner._rng.bit_generator.state)
        cell["model"] = _model_digest(tuner)
        assert len({tuple(p) for p in store.policy_history}) > 1, "no policy switch"
    return cell


def _mixed(seed: int, lookups: float = 0.5, ranges: float = 0.15):
    return YCSBWorkload(N_RECORDS, lookups, seed=seed, range_fraction=ranges, range_span=40)


def _shift(seed: int, first: int, second: int):
    """Read-heavy, then write-heavy: a shift the tuners must answer."""
    return DynamicWorkload([
        WorkloadPhase(UniformWorkload(N_RECORDS, 0.9, seed=seed), first),
        WorkloadPhase(UniformWorkload(N_RECORDS, 0.1, seed=seed + 1), second),
    ])


def _lerp_config() -> LerpConfig:
    # Short burn-in and stages; updates_per_mission keeps its default.
    return LerpConfig(burn_in_missions=2, stable_window=4, max_stage_missions=8)


def _cells() -> Dict[str, Callable[[str], Dict[str, str]]]:
    c = BASE
    return {
        "bare-analytical-nocache-static4-greedy": lambda d: _run(
            StaticTuner(4, GREEDY), _mixed(1), 6),
        "bare-bitarray-cache-static2-lazy": lambda d: _run(
            StaticTuner(2, LAZY), _mixed(2), 6, bloom=BloomMode.BIT_ARRAY, cache=48,
            initial_policy=4),
        "bare-analytical-cache-tiering-flexible": lambda d: _run(
            NamedPolicyTuner("tiering", FLEX), _mixed(3), 6, cache=48),
        "bare-bitarray-nocache-lazyleveling-greedy": lambda d: _run(
            NamedPolicyTuner("lazy-leveling", GREEDY), _mixed(4), 6,
            bloom=BloomMode.BIT_ARRAY, initial_policy=4),
        "bare-analytical-cache-dostoevsky-flexible": lambda d: _run(
            LazyLevelingTuner(FLEX), _mixed(5, ranges=0.0), 6, cache=24),
        "bare-bitarray-cache-threshold-lazy": lambda d: _run(
            GreedyThresholdTuner(0.3, 0.7, LAZY), _shift(6, 4, 5),
            9, bloom=BloomMode.BIT_ARRAY, cache=48),
        "sharded-analytical-cache-static3-lazy": lambda d: _run(
            StaticTuner(3, LAZY), _mixed(7), 6, engine="sharded", cache=48),
        "sharded-bitarray-nocache-leveling-greedy": lambda d: _run(
            NamedPolicyTuner("leveling", GREEDY), _mixed(8), 6, engine="sharded",
            bloom=BloomMode.BIT_ARRAY, initial_policy=4),
        "durable-analytical-cache-static1-flexible": lambda d: _run(
            StaticTuner(1, FLEX), _mixed(9), 6, engine="durable", cache=48,
            initial_policy=4, data_dir=d),
        "durable-bitarray-nocache-tiering-greedy": lambda d: _run(
            NamedPolicyTuner("tiering", GREEDY), _mixed(10), 6, engine="durable",
            bloom=BloomMode.BIT_ARRAY, data_dir=d),
        "lerp-staged-uniform": lambda d: _run(
            Lerp(c, _lerp_config()), _shift(12, 24, 22), 46),
        "lerp-all-levels-bitarray-cache": lambda d: _run(
            AllLevelsLerp(c, _lerp_config()), _shift(13, 12, 10), 22,
            bloom=BloomMode.BIT_ARRAY, cache=48),
        "lerp-joint-sharded": lambda d: _run(
            JointLerp(c, _lerp_config()), _shift(14, 10, 8), 18, engine="sharded"),
        "lerp-named-policy-dqn": lambda d: _run(
            NamedPolicyLerp(c, _lerp_config()), _shift(15, 16, 14), 30),
    }


def matmul_probe() -> str:
    """Digest of fixed products in the shapes the agents use: equal on two
    hosts only if their matrix products round alike."""
    rng = np.random.default_rng(0)
    parts = []
    for k, m in ((9, 32), (32, 32), (32, 1), (128, 128)):
        a, b, g = rng.normal(size=(2, 32, k)), rng.normal(size=(2, k, m)), rng.normal(size=(32, m))
        parts += [a[0] @ b[0], a @ b, a[0].T @ g, g @ b[0].T]
    return _digest(*parts)


def compute() -> Dict[str, Dict[str, str]]:
    """Every cell's digests, each cell in a fresh data directory."""
    result = {}
    for name, run in _cells().items():
        with tempfile.TemporaryDirectory() as data_dir:
            result[name] = run(data_dir)
    return result


def compare(recorded: dict, got: Dict[str, Dict[str, str]]) -> List[str]:
    """Names of the ``cell.digest`` entries that differ from ``recorded``
    (model digests only where the matmul probe matches)."""
    same_blas = recorded["matmul_probe"] == matmul_probe()
    moved = []
    for name, want in recorded["cells"].items():
        for key, digest in want.items():
            if key == "model" and not same_blas:
                continue
            if got.get(name, {}).get(key) != digest:
                moved.append(f"{name}.{key}")
    return moved


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true",
                        help=f"write {GOLDEN_PATH.relative_to(REPO_ROOT)}")
    args = parser.parse_args(argv)
    got = compute()
    if args.record:
        GOLDEN_PATH.write_text(json.dumps(
            {"matmul_probe": matmul_probe(), "cells": got}, indent=1, sort_keys=True
        ) + "\n", encoding="utf-8")
        print(f"recorded {len(got)} cells")
        return 0
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    moved = compare(recorded, got)
    for name in moved:
        print(f"MOVED {name}")
    print(f"{len(got)} cells, {len(moved)} digest(s) moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
