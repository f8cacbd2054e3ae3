"""repro — a from-scratch reproduction of RusKey.

RusKey ("Learning to Optimize LSM-trees: Towards A Reinforcement Learning
based Key-Value Store for Dynamic Workloads", SIGMOD) is an LSM-tree
key-value store that tunes its per-level compaction policies online with a
level-based DDPG model (Lerp) on top of a transition-friendly LSM variant
(the FLSM-tree).

Quickstart::

    import numpy as np
    from repro import RusKey, SystemConfig
    from repro.workload import UniformWorkload

    store = RusKey(SystemConfig(seed=7))
    workload = UniformWorkload(n_records=50_000, lookup_fraction=0.5)
    store.run_workload(workload, n_missions=200, mission_size=1_000)
    print(store.policies(), store.mean_latency(last_n=50))

See DESIGN.md for the architecture and ``bench_reports/`` (one report per
``benchmarks/`` test) for the reproduced tables and figures.
"""

from repro.config import (
    BloomMode,
    BloomScheme,
    CostModelParams,
    SystemConfig,
    TransitionKind,
)
from repro.core.lerp import Lerp, LerpConfig
from repro.core.ruskey import RusKey
from repro.engine import KVEngine, ShardedStore
from repro.core.tuners import (
    GreedyThresholdTuner,
    LazyLevelingTuner,
    StaticTuner,
    Tuner,
)
from repro.errors import ReproError
from repro.lsm import FLSMTree, LSMTree

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "CostModelParams",
    "BloomScheme",
    "BloomMode",
    "TransitionKind",
    "RusKey",
    "Lerp",
    "LerpConfig",
    "Tuner",
    "StaticTuner",
    "LazyLevelingTuner",
    "GreedyThresholdTuner",
    "LSMTree",
    "FLSMTree",
    "KVEngine",
    "ShardedStore",
    "ReproError",
    "__version__",
]
