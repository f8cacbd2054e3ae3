"""A small LRU block cache.

The paper motivates reinforcement learning over white-box formulas partly
because "memory cache can significantly affect the performance, but white-box
formulas are often unable to model such bottom-level details". The simulated
store therefore includes an optional page-granularity LRU cache so that
experiments can exercise exactly that effect.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator

from repro.errors import SnapshotError


class LRUBlockCache:
    """Fixed-capacity LRU cache keyed by ``(run_id, page_index)`` pairs.

    A ``capacity`` of 0 disables caching entirely (every probe misses).
    """

    __slots__ = ("_capacity", "_pages", "hits", "misses")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._pages: "OrderedDict[Hashable, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._pages

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._pages)

    def access(self, key: Hashable) -> bool:
        """Record an access to ``key``.

        Returns ``True`` on a cache hit. On a miss the page is admitted
        (evicting the least recently used page if the cache is full).
        """
        if self._capacity == 0:
            self.misses += 1
            return False
        if key in self._pages:
            self._pages.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._pages[key] = None
        if len(self._pages) > self._capacity:
            self._pages.popitem(last=False)
        return False

    def access_batch(self, run_id: int, page_indices) -> int:
        """Record accesses to ``(run_id, page)`` for each page, in order.

        Returns the number of hits. State-machine-equivalent to calling
        :meth:`access` per page — same hit/miss tallies, same admissions,
        same LRU recency and eviction order — with the per-call overhead
        (attribute lookups, capacity branch) hoisted out of the loop.
        ``page_indices`` must be plain ints (callers ``.tolist()`` numpy
        arrays so snapshot page keys stay JSON-clean).
        """
        n = len(page_indices)
        if self._capacity == 0:
            self.misses += n
            return 0
        pages = self._pages
        capacity = self._capacity
        hits = 0
        for page in page_indices:
            key = (run_id, page)
            if key in pages:
                pages.move_to_end(key)
                hits += 1
            else:
                pages[key] = None
                if len(pages) > capacity:
                    pages.popitem(last=False)
        self.hits += hits
        self.misses += n - hits
        return hits

    def invalidate_run(self, run_id: int) -> int:
        """Drop every cached page belonging to run ``run_id``.

        Called when a run is deleted by compaction. Returns the number of
        pages dropped.
        """
        stale = [key for key in self._pages if key[0] == run_id]
        for key in stale:
            del self._pages[key]
        return len(stale)

    def clear(self) -> None:
        """Empty the cache without resetting hit/miss counters."""
        self._pages.clear()

    # ------------------------------------------------------------------
    # Snapshot hooks (see repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot: resident pages in LRU order plus counters."""
        return {
            "capacity": self._capacity,
            "pages": list(self._pages),  # oldest → most recently used
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore cache contents and counters in place.

        The receiving cache must have the capacity the snapshot was taken
        with — resident pages beyond a smaller capacity would silently
        change future hit patterns.
        """
        if int(state["capacity"]) != self._capacity:
            raise SnapshotError(
                f"cache capacity mismatch: snapshot has {state['capacity']}, "
                f"this cache holds {self._capacity}"
            )
        self._pages.clear()
        for key in state["pages"]:
            self._pages[key] = None
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
