"""A single level of the (F)LSM-tree.

A level owns an ordered list of runs — oldest first, the *active* run last —
plus its compaction policy ``K`` (maximum number of runs, paper Section 2).
The active run admits the merge output from the level above and seals at
``capacity / K``. Crucially for the FLSM design (paper Section 4.2), sealed
runs may have *any* size: a policy change only affects the capacity of the
active run and of runs formed later.

The level holds no cost logic; merging and accounting live in
:class:`repro.lsm.tree.LSMTree`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import PolicyError, TreeStateError
from repro.lsm.entry import merge_sorted_sources
from repro.lsm.run import SortedRun


class LevelLookupIndex:
    """Read-only point-lookup index over *all* runs of one level.

    For each **unique** key in the level it locates the entry of the
    *newest* run that contains it, in parallel arrays indexed by *slot*:

    * ``keys``  — unique keys present anywhere in the level, sorted;
    * ``rank``  — newest-first run rank containing the key (``0`` is the
      newest run, i.e. ``runs[-1]``);
    * ``positions`` — within-run position of that newest entry: its value
      is ``runs[-1 - rank].values[position]`` and its fence-pointer page
      ``position // entries_per_page``.

    This is the in-memory metadata a real system holds per run (fence
    pointers + filters), folded level-wide so a batch lookup resolves the
    run-probe schedule of every key in one binary search instead of one per
    run. Stacked runs are merged into fresh arrays by the tree's one merge
    kernel (:func:`~repro.lsm.entry.merge_sorted_sources`), 13 B per key and
    no value: ``rank`` is ``uint8``, ``positions`` ``int32``. A **single
    run** is its own index, zero-copy: ``keys`` *is* the run's array and
    ``rank``/``positions`` are ``None`` — every held key has rank 0 and a
    slot is its own in-run position. The index is immutable;
    :meth:`Level.lookup_index` caches it keyed on the level's run ids.
    """

    __slots__ = ("n_runs", "keys", "rank", "positions")

    def __init__(self, runs: List[SortedRun]) -> None:
        self.n_runs = len(runs)
        self.rank: Optional[np.ndarray] = None
        self.positions: Optional[np.ndarray] = None
        if len(runs) == 1:
            self.keys = runs[0].keys
            return
        if len(runs) > 255 or any(run.n_entries >= 1 << 31 for run in runs):
            raise TreeStateError("an index ranks <= 255 runs (uint8) of < 2**31 entries (int32)")
        self.keys, self.rank, self.positions = merge_sorted_sources(
            [run.keys for run in runs], [run.values for run in runs], origin=True
        )

    def newest_ranks(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Probe schedule for ``keys`` from one binary search: ``(rank, slot)``.

        ``rank[i]`` is the newest-first rank of the run that resolves
        ``keys[i]``, or the sentinel ``n_runs`` when the level holds no copy
        of the key (the key stays pending through every run). ``slot[i]``
        is the index entry the search landed on: :meth:`run_positions`
        turns slots into in-run positions, where a hit's value and
        fence-pointer page are.
        """
        n_index = len(self.keys)
        if n_index == 0:
            miss = np.full(len(keys), self.n_runs, dtype=np.int64)
            return miss, np.zeros(len(keys), dtype=np.int64)
        slot = self.keys.searchsorted(keys)
        np.minimum(slot, n_index - 1, out=slot)
        held = self.keys[slot] == keys
        if self.rank is None:
            # Single run: rank 0 where held, 1 (== n_runs) where not.
            return (~held).view(np.int8), slot
        return np.where(held, self.rank[slot], self.n_runs), slot

    def run_positions(
        self,
        run: SortedRun,
        keys: np.ndarray,
        slot: np.ndarray,
        probed: np.ndarray,
        hit: np.ndarray,
    ) -> np.ndarray:
        """In-run position a fence-pointer probe of ``run`` reads for each
        Bloom-positive key ``keys[probed]``; ``hit`` marks the ones ``run``
        really holds (the rest are false positives, which still pay the
        page their insertion point falls on).
        """
        if self.positions is None:
            # Single run: the slot is the clamped insertion point in that
            # run, for a hit and a false positive alike.
            return slot[probed]
        positions = self.positions[slot[probed]]  # right where ``hit``
        false_pos = ~hit
        if false_pos.any():
            # Rare, so the per-run binary search only ever sees this residue.
            fp_pos = run.keys.searchsorted(keys[probed[false_pos]])
            np.minimum(fp_pos, max(run.n_entries - 1, 0), out=fp_pos)
            positions[false_pos] = fp_pos
        return positions


class Level:
    """Runs, capacity and compaction policy of one LSM level."""

    __slots__ = (
        "level_no",
        "capacity_entries",
        "policy",
        "pending_policy",
        "fpr",
        "runs",
        "max_policy",
        "_lookup_cache",
    )

    def __init__(
        self,
        level_no: int,
        capacity_entries: int,
        policy: int,
        fpr: float,
        max_policy: int,
    ) -> None:
        if level_no < 1:
            raise TreeStateError(f"level_no must be >= 1, got {level_no}")
        if capacity_entries < 1:
            raise TreeStateError(
                f"capacity_entries must be >= 1, got {capacity_entries}"
            )
        self.level_no = level_no
        self.capacity_entries = capacity_entries
        self.max_policy = max_policy
        self._check_policy(policy)
        self.policy = policy
        #: Policy queued by a lazy transition; applied when the level empties.
        self.pending_policy: Optional[int] = None
        self.fpr = fpr
        self.runs: List[SortedRun] = []
        #: ``(run_ids, LevelLookupIndex)`` of the last stacked-index build.
        self._lookup_cache: Optional[Tuple[Tuple[int, ...], LevelLookupIndex]] = None

    def _check_policy(self, policy: int) -> None:
        if not isinstance(policy, int) or not 1 <= policy <= self.max_policy:
            raise PolicyError(
                f"policy must be an int in [1, {self.max_policy}], got {policy!r}"
            )

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def data_entries(self) -> int:
        return sum(run.n_entries for run in self.runs)

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def fill_ratio(self) -> float:
        """Fraction of the level's capacity currently occupied (paper D/C)."""
        return self.data_entries / self.capacity_entries

    @property
    def is_full(self) -> bool:
        return self.data_entries >= self.capacity_entries

    @property
    def is_empty(self) -> bool:
        return self.data_entries == 0

    @property
    def active_run(self) -> Optional[SortedRun]:
        """The unsealed run accepting merges, or ``None``."""
        if self.runs and not self.runs[-1].sealed:
            return self.runs[-1]
        return None

    @property
    def sealed_runs(self) -> List[SortedRun]:
        return [run for run in self.runs if run.sealed]

    def active_run_capacity(self) -> int:
        """Capacity of a (new) active run under the current policy: ``C/K``."""
        return max(1, self.capacity_entries // self.policy)

    def lookup_index(self) -> LevelLookupIndex:
        """The stacked point-lookup index over this level's current runs.

        Lazily built and cached until the run list changes. Runs are
        immutable once created (the active run is *replaced* wholesale on
        every merge, never edited), so the tuple of run ids is a complete
        content fingerprint and the only validity rule;
        :meth:`drop_lookup_index` frees memory, it does not invalidate.
        """
        run_ids = tuple(run.run_id for run in self.runs)
        if self._lookup_cache is None or self._lookup_cache[0] != run_ids:
            # Drop the stale index *before* building its successor, the
            # level's largest transient: the two never need to coexist.
            self._lookup_cache = None
            self._lookup_cache = (run_ids, LevelLookupIndex(self.runs))
        return self._lookup_cache[1]

    def drop_lookup_index(self) -> None:
        """Free the cached index before a compaction rewrites this level."""
        self._lookup_cache = None

    # ------------------------------------------------------------------
    # Run management (invoked by the tree)
    # ------------------------------------------------------------------
    def replace_active(self, new_run: SortedRun) -> Optional[SortedRun]:
        """Swap the active run for its merged replacement.

        Returns the run that was replaced (for cache invalidation) or ``None``
        if the level had no active run. Seals the replacement when it has
        reached its capacity.
        """
        old = None
        if self.runs and not self.runs[-1].sealed:
            old = self.runs.pop()
        self.runs.append(new_run)
        if new_run.is_at_capacity:
            new_run.seal()
        return old

    def drop_all_runs(self) -> List[SortedRun]:
        """Remove every run (after a full-level merge). Applies any pending
        lazy policy now that the level is empty."""
        dropped = self.runs
        self.runs = []
        if self.pending_policy is not None:
            self.policy = self.pending_policy
            self.pending_policy = None
        return dropped

    # ------------------------------------------------------------------
    # Policy transitions (paper Section 4)
    # ------------------------------------------------------------------
    def set_policy_flexible(self, new_policy: int) -> None:
        """Apply ``new_policy`` with the FLSM flexible transition.

        * ``K' < K`` — the active run's capacity grows to ``C/K'``; sealed
          runs are untouched.
        * ``K' > K`` — the active run's capacity shrinks to ``C/K'``; if the
          active run already exceeds the new capacity it is sealed
          immediately and a fresh active run will be created on next admit.

        No data moves, so the transition costs zero I/O and takes effect
        immediately (paper Table 2).
        """
        self._check_policy(new_policy)
        self.pending_policy = None
        self.policy = new_policy
        active = self.active_run
        if active is None:
            return
        new_capacity = self.active_run_capacity()
        active.capacity_entries = new_capacity
        if active.n_entries >= new_capacity:
            active.seal()

    def set_policy_lazy(self, new_policy: int) -> None:
        """Queue ``new_policy``; it takes effect when the level next empties."""
        self._check_policy(new_policy)
        if new_policy == self.policy:
            self.pending_policy = None
        else:
            self.pending_policy = new_policy

    def set_policy_immediate(self, new_policy: int) -> None:
        """Set the policy directly (used by the greedy transition *after* the
        level has been force-merged, and by initialization)."""
        self._check_policy(new_policy)
        self.pending_policy = None
        self.policy = new_policy

    def check_invariants(self) -> None:
        """Raise :class:`TreeStateError` if the level violates structural
        invariants. Used by tests and the tree's debug mode."""
        for run in self.runs[:-1]:
            if not run.sealed:
                raise TreeStateError(
                    f"level {self.level_no}: non-tail run {run.run_id} unsealed"
                )
        for run in self.runs:
            if run.level_no != self.level_no:
                raise TreeStateError(
                    f"level {self.level_no}: run {run.run_id} tagged "
                    f"level {run.level_no}"
                )

    # ------------------------------------------------------------------
    # Pickling: the lookup index is derived, rebuilt lazily after load
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        slots = {name: getattr(self, name) for name in self.__slots__}
        return None, {**slots, "_lookup_cache": None}

    def __repr__(self) -> str:
        return (
            f"Level(no={self.level_no}, K={self.policy}, runs={self.n_runs}, "
            f"fill={self.fill_ratio:.2f})"
        )
