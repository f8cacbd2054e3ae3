"""The per-page LRU block cache, kept as the executable specification.

``src/`` ships one cache (``repro.storage.cache.LRUBlockCache``): pages are
accessed a batch at a time, keyed by one packed int, and a per-run page span
bounds what ``invalidate_run`` looks at. This is the cache it replaced —
one ``access`` per page, ``invalidate_run`` scanning every resident key, no
index — on the same ``OrderedDict`` recency list. The shipped cache must
be **state-machine identical** to it: same return values, same ``hits`` /
``misses``, same resident pages in the same LRU order after every step.
``tests/test_storage.py`` and ``tests/test_readpath.py`` import it; it
offers ``access_batch`` (the per-page loop) so a ``DiskModel`` or a whole
tree can run on it as the twin.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator


class ReferenceLRUCache:
    """Fixed-capacity LRU keyed by ``(run_id, page_index)``; 0 disables it."""

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
        """Record an access to ``key``; ``True`` on a hit. A miss admits the
        page, evicting the least recently used one if the cache is full."""
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
        """``access`` per page, in order; the number of hits."""
        return sum(self.access((run_id, page)) for page in page_indices)

    def invalidate_run(self, run_id: int) -> int:
        """Drop every cached page of ``run_id`` by scanning all of them."""
        stale = [key for key in self._pages if key[0] == run_id]
        for key in stale:
            del self._pages[key]
        return len(stale)

    def clear(self) -> None:
        self._pages.clear()


def cache_state(cache) -> tuple:
    """What two caches that are one state machine agree on: the resident
    pages in LRU order (oldest first) and the hit / miss counters."""
    return list(cache), cache.hits, cache.misses
