"""Named compaction policies: the tiering / leveling / lazy-leveling axis.

The per-level run-bound ``K_i ∈ [1, T]`` already spans the classic LSM
merge-discipline design space (Dostoevsky's parameterization); a *named*
:class:`CompactionPolicy` is a whole-tree discipline expressed as a
``K``-assignment per level:

* :class:`LevelingPolicy`      — ``K_i = 1`` everywhere. One run per level,
  lowest read amplification, ``T`` rewrites per entry per level.
* :class:`TieringPolicy`       — ``K_i = T`` everywhere. Per-level stacks of
  up to ``T`` runs, one rewrite per entry per level, highest read
  amplification.
* :class:`LazyLevelingPolicy`  — tiering on every upper level, leveling on
  the last (Dostoevsky's hybrid): cheap ingestion through the small levels,
  one-run point/range reads on the level holding most of the data.

Because an assignment is *relative to the current depth*, the policy object
is kept pinned on the tree (:attr:`LSMTree.compaction_policy`) and
re-applied whenever the tree grows a level — under lazy-leveling the old
bottom level flips from leveling to tiering when a new bottom appears.
Re-pinning uses the flexible transition (active-run capacity only), so it
moves no data and charges no simulated time.

The named axis is also a discrete RL action dimension: :data:`POLICY_NAMES`
fixes the action encoding used by
:class:`repro.core.named_policy.NamedPolicyLerp`, by the tuning-surface
protocol (:meth:`repro.engine.base.KVEngine.set_named_policy`) and by snapshots
(policies persist by name).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.errors import PolicyError


class CompactionPolicy:
    """A whole-tree merge discipline as a per-level ``K`` assignment."""

    name: str = "policy"

    def level_policy(self, level_no: int, n_levels: int, size_ratio: int) -> int:
        """``K`` for 1-based ``level_no`` of a tree ``n_levels`` deep."""
        raise NotImplementedError

    def assignments(self, n_levels: int, size_ratio: int) -> List[int]:
        """Per-level ``K`` values, shallow to deep."""
        if n_levels < 0:
            raise PolicyError(f"n_levels must be >= 0, got {n_levels}")
        return [
            self.level_policy(level_no, n_levels, size_ratio)
            for level_no in range(1, n_levels + 1)
        ]

    def initial_policy(self, size_ratio: int) -> int:
        """The ``K`` a store pinned to this policy seeds new trees with
        (the level-1 assignment of a one-level tree)."""
        return self.level_policy(1, 1, size_ratio)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CompactionPolicy) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


class LevelingPolicy(CompactionPolicy):
    """One sorted run per level (``K = 1``); RocksDB's default discipline."""

    name = "leveling"

    def level_policy(self, level_no: int, n_levels: int, size_ratio: int) -> int:
        return 1


class TieringPolicy(CompactionPolicy):
    """Up to ``T`` runs per level (``K = T``); write-optimized."""

    name = "tiering"

    def level_policy(self, level_no: int, n_levels: int, size_ratio: int) -> int:
        return size_ratio


class LazyLevelingPolicy(CompactionPolicy):
    """Tiering on upper levels, leveling on the last (Dostoevsky)."""

    name = "lazy-leveling"

    def level_policy(self, level_no: int, n_levels: int, size_ratio: int) -> int:
        return 1 if level_no == n_levels else size_ratio


#: Canonical action encoding of the named-policy dimension: index in this
#: tuple == discrete action id (Lerp's policy agent, snapshots, reports).
POLICY_NAMES = ("leveling", "tiering", "lazy-leveling")

_REGISTRY = {
    policy.name: policy
    for policy in (LevelingPolicy(), TieringPolicy(), LazyLevelingPolicy())
}

PolicyLike = Union[str, CompactionPolicy]


def named_policies() -> List[CompactionPolicy]:
    """The registered policies in action-encoding order."""
    return [_REGISTRY[name] for name in POLICY_NAMES]


def resolve_policy(policy: PolicyLike) -> CompactionPolicy:
    """Accept a policy object or its name; raise on unknown names."""
    if isinstance(policy, CompactionPolicy):
        return policy
    try:
        return _REGISTRY[policy]
    except (KeyError, TypeError):
        raise PolicyError(
            f"unknown compaction policy {policy!r}; "
            f"known: {', '.join(POLICY_NAMES)}"
        ) from None


def policy_index(policy: PolicyLike) -> int:
    """The discrete action id of ``policy`` (position in POLICY_NAMES)."""
    return POLICY_NAMES.index(resolve_policy(policy).name)


def policy_from_index(index: int) -> CompactionPolicy:
    """The policy for discrete action id ``index``."""
    if not 0 <= index < len(POLICY_NAMES):
        raise PolicyError(
            f"policy index must be in [0, {len(POLICY_NAMES) - 1}], got {index}"
        )
    return _REGISTRY[POLICY_NAMES[index]]


def classify_policies(
    policies: Sequence[int], size_ratio: int
) -> Optional[str]:
    """The named policy an explicit ``K`` vector corresponds to, if any.

    Used to seed the RL policy agent's notion of "current policy" on a tree
    that was configured with raw ``initial_policy`` rather than pinned to a
    named discipline. Returns ``None`` for vectors outside the named space
    (e.g. the Moderate K=5 baseline).
    """
    ks = list(policies)
    if not ks:
        return None
    for policy in named_policies():
        if ks == policy.assignments(len(ks), size_ratio):
            return policy.name
    return None
