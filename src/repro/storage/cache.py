"""A small LRU block cache.

The paper motivates reinforcement learning over white-box formulas partly
because "memory cache can significantly affect the performance, but white-box
formulas are often unable to model such bottom-level details". The simulated
store therefore includes an optional page-granularity LRU cache so that
experiments can exercise exactly that effect.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Tuple

#: Pages per run a packed key can address: ``run_id << 32 | page``.
PAGE_LIMIT = 1 << 32
_PAGE_MASK = PAGE_LIMIT - 1


class LRUBlockCache:
    """Fixed-capacity LRU cache of ``(run_id, page_index)`` pages.

    A ``capacity`` of 0 disables caching entirely (every probe misses).
    ``_pages`` is the one recency list, keyed by the packed int
    ``run_id << 32 | page`` (a page index must lie in ``[0, PAGE_LIMIT)``);
    iteration, ``in`` and the pickle present ``(run_id, page)`` pairs.
    ``_spans`` maps a run to one past the highest page it ever admitted, so
    dropping a run pops that page range by key and never walks the list.
    """

    __slots__ = ("_capacity", "_pages", "_spans", "hits", "misses")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._pages: "OrderedDict[int, None]" = OrderedDict()
        self._spans: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        run_id, page = key
        return 0 <= page < PAGE_LIMIT and (run_id << 32 | page) in self._pages

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return ((key >> 32, key & _PAGE_MASK) for key in self._pages)

    def access_batch(self, run_id: int, page_indices) -> int:
        """Record accesses to ``(run_id, page)`` for each page, in order.

        Returns the number of hits. A miss admits the page, evicting the
        least recently used one if the cache is full
        (``tests/reference_cache.py`` states the same machine page by page).
        ``page_indices`` must be plain ints in ``[0, PAGE_LIMIT)`` (the read
        plan ``.tolist()``s its page arrays and checks the range once per
        pass, before it admits anything).
        """
        n = len(page_indices)
        if self._capacity == 0 or n == 0:
            self.misses += n
            return 0
        # Every page of the batch ends up admitted or already resident.
        self._spans[run_id] = max(self._spans.get(run_id, 0), max(page_indices) + 1)
        pages = self._pages
        capacity = self._capacity
        base = run_id << 32
        hits = 0
        for page in page_indices:
            key = base | page
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
        pages dropped; costs at most the run's page span, whatever the
        cache holds, and nothing for a run that never admitted a page.
        """
        base = run_id << 32
        span = self._spans.pop(run_id, 0)
        pop = self._pages.pop  # a resident page maps to None, an absent one to 0
        return sum(pop(key, 0) is None for key in range(base, base + span))

    def clear(self) -> None:
        """Empty the cache without resetting hit/miss counters."""
        self._pages.clear()
        self._spans.clear()

    # ------------------------------------------------------------------
    # Pickling: ``(run_id, page)`` pairs in LRU order; ``_spans`` is
    # derived from them and rebuilt on load
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        pages = OrderedDict.fromkeys(self)
        return dict(_capacity=self._capacity, _pages=pages, hits=self.hits, misses=self.misses)

    def __setstate__(self, state: dict) -> None:
        LRUBlockCache.__init__(self, state["_capacity"])
        for run_id, page in state["_pages"]:  # oldest first: no eviction
            self.access_batch(run_id, [page])
        self.hits, self.misses = state["hits"], state["misses"]
