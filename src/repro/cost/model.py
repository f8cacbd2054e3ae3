"""White-box cost model of an (F)LSM-tree (paper Section 5, Eq. 5).

The expected simulated time per operation contributed by level *i* under
policy ``K_i``, Bloom FPR ``f_i`` and lookup fraction ``γ`` is::

    f_i · I_r · K_i · γ            (query I/O:   false-positive page reads)
  + c_r · K_i · γ                  (query CPU:   probing K_i runs' metadata)
  + (T·E / (B·K_i)) · (I_r + I_w) · (1 − γ)   (update I/O: T/K_i rewrites)
  + (T / K_i) · c_w · (1 − γ)      (update CPU:  merge-sort work)

Minimizing over ``K_i`` (Lagrange analysis in the paper's Lemma 5.1) gives::

    K_i*² = X / (Y·T^{i-1} + Z)
    X = T·E·(I_r+I_w)·(1−γ) + T·B·c_w·(1−γ)
    Y = B·f_1·I_r·γ
    Z = B·c_r·γ

and the propagation identity (paper Eq. 4)::

    1/K*_{i+1} = sqrt( 1/K*_i² + T·(1/K*_i² − 1/K*_{i-1}²) )

which lets the learned optima of two consecutive levels extend to all deeper
levels without further training. Everything here is also used to cross-check
what the RL tuner converges to.
"""

from __future__ import annotations

import math
from typing import List

from repro.bloom.allocation import allocate_fprs
from repro.config import CostModelParams, SystemConfig
from repro.errors import ConfigError


def level_operation_cost(
    policy: int,
    fpr: float,
    lookup_fraction: float,
    costs: CostModelParams,
    size_ratio: int,
    entry_bytes: int,
    page_bytes: int,
) -> float:
    """Expected time per operation contributed by one level (Eq. 5)."""
    if policy < 1:
        raise ConfigError(f"policy must be >= 1, got {policy}")
    if not 0.0 <= lookup_fraction <= 1.0:
        raise ConfigError(
            f"lookup_fraction must be in [0, 1], got {lookup_fraction}"
        )
    gamma = lookup_fraction
    query_io = fpr * costs.random_read_s * policy * gamma
    query_cpu = costs.run_probe_cpu_s * policy * gamma
    # The paper's I_r + I_w for updates is compaction traffic, which streams
    # large sorted runs; the simulated device prices that as sequential I/O.
    update_io = (
        (size_ratio * entry_bytes / (page_bytes * policy))
        * (costs.seq_read_s + costs.seq_write_s)
        * (1.0 - gamma)
    )
    update_cpu = (size_ratio / policy) * costs.compaction_entry_cpu_s * (1.0 - gamma)
    return query_io + query_cpu + update_io + update_cpu


def clamp_policy(k: float, size_ratio: int) -> int:
    """Round a continuous policy to the closest valid integer in [1, T]."""
    if math.isinf(k):
        return size_ratio
    return int(min(max(round(k), 1), size_ratio))


def lemma_next_policy(k_prev_prev: float, k_prev: float, size_ratio: int) -> float:
    """Paper Eq. 4: infer ``K*_{i+1}`` from ``K*_{i-1}`` and ``K*_i``.

    If the two inputs imply a non-physical (negative) right-hand side —
    which can only happen when ``K*_i > K*_{i-1}``, i.e. the inputs do not
    come from a Monkey-optimal profile — the result saturates at the lazy
    extreme (``T``), mirroring how the paper rounds to the closest *valid*
    policy.
    """
    if k_prev_prev < 1 or k_prev < 1:
        raise ConfigError("policies must be >= 1")
    inv_sq = 1.0 / (k_prev * k_prev) + size_ratio * (
        1.0 / (k_prev * k_prev) - 1.0 / (k_prev_prev * k_prev_prev)
    )
    if inv_sq <= 0.0:
        return float(size_ratio)
    return 1.0 / math.sqrt(inv_sq)


def propagate_policies(
    k1: int, k2: int, n_levels: int, size_ratio: int
) -> List[int]:
    """Extend learned policies of levels 1 and 2 to ``n_levels`` levels via
    repeated application of Eq. 4, rounding each step to a valid policy.

    The paper's example: ``k1=9, k2=7, T=10`` gives level 3 ≈ 3 and
    level 4 ≈ 1.
    """
    if n_levels < 1:
        raise ConfigError(f"n_levels must be >= 1, got {n_levels}")
    policies = [clamp_policy(k1, size_ratio)]
    if n_levels >= 2:
        policies.append(clamp_policy(k2, size_ratio))
    prev_prev, prev = float(policies[0]), float(policies[-1])
    while len(policies) < n_levels:
        nxt = lemma_next_policy(prev_prev, prev, size_ratio)
        policies.append(clamp_policy(nxt, size_ratio))
        prev_prev, prev = prev, max(nxt, 1.0)
    return policies


def optimal_policies_whitebox(
    lookup_fraction: float,
    n_levels: int,
    config: SystemConfig,
) -> List[int]:
    """Per-level integer optimum of Eq. 5 under the configured Bloom scheme.

    Uses exhaustive search over ``K ∈ [1, T]`` per level (levels are
    independent in the model), which is exact and fast for any realistic T.
    """
    fprs = allocate_fprs(
        config.bloom_scheme, config.bits_per_key, n_levels, config.size_ratio
    )
    best: List[int] = []
    for level_no in range(1, n_levels + 1):
        fpr = fprs[level_no - 1]
        candidates = range(1, config.size_ratio + 1)
        best_k = min(
            candidates,
            key=lambda k: level_operation_cost(
                k,
                fpr,
                lookup_fraction,
                config.costs,
                config.size_ratio,
                config.entry_bytes,
                config.page_bytes,
            ),
        )
        best.append(best_k)
    return best
