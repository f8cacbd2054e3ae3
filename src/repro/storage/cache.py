"""A small LRU block cache.

The paper motivates reinforcement learning over white-box formulas partly
because "memory cache can significantly affect the performance, but white-box
formulas are often unable to model such bottom-level details". The simulated
store therefore includes an optional page-granularity LRU cache so that
experiments can exercise exactly that effect.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Iterator, Set, Tuple


class LRUBlockCache:
    """Fixed-capacity LRU cache keyed by ``(run_id, page_index)`` pairs.

    A ``capacity`` of 0 disables caching entirely (every probe misses).
    ``_pages`` is the one recency list; ``_by_run`` (``run_id`` → its resident
    pages, never an empty set) indexes it so that dropping a run touches
    that run's pages only.
    """

    __slots__ = ("_capacity", "_pages", "_by_run", "hits", "misses")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._pages: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self._by_run: Dict[int, Set[int]] = {}
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._pages

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._pages)

    def access_batch(self, run_id: int, page_indices) -> int:
        """Record accesses to ``(run_id, page)`` for each page, in order.

        Returns the number of hits. A miss admits the page, evicting the
        least recently used one if the cache is full
        (``tests/reference_cache.py`` states the same machine page by page).
        ``page_indices`` must be plain ints (callers ``.tolist()`` numpy
        arrays, so a page key is an int pair).
        """
        n = len(page_indices)
        if self._capacity == 0:
            self.misses += n
            return 0
        pages = self._pages
        by_run = self._by_run
        resident = by_run.get(run_id)
        capacity = self._capacity
        hits = 0
        for page in page_indices:
            key = (run_id, page)
            if key in pages:
                pages.move_to_end(key)
                hits += 1
            else:
                pages[key] = None
                if resident is None:
                    resident = by_run[run_id] = set()
                resident.add(page)
                if len(pages) > capacity:
                    # Never the page just admitted: ``resident`` stays non-empty.
                    old_run, old_page = pages.popitem(last=False)[0]
                    old = by_run[old_run]
                    old.remove(old_page)
                    if not old:
                        del by_run[old_run]
        self.hits += hits
        self.misses += n - hits
        return hits

    def invalidate_run(self, run_id: int) -> int:
        """Drop every cached page belonging to run ``run_id``.

        Called when a run is deleted by compaction. Returns the number of
        pages dropped; costs that many steps, whatever the cache holds.
        """
        stale = self._by_run.pop(run_id, ())
        for page in stale:
            del self._pages[(run_id, page)]
        return len(stale)

    def clear(self) -> None:
        """Empty the cache without resetting hit/miss counters."""
        self._pages.clear()
        self._by_run.clear()

    # ------------------------------------------------------------------
    # Pickling: ``_by_run`` is derived from ``_pages`` and rebuilt on load
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name != "_by_run"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._by_run = {}
        for run_id, page in self._pages:
            self._by_run.setdefault(run_id, set()).add(page)
