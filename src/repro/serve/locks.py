"""Ordered multi-lane lock acquisition.

Cross-shard work (coalesced range batches, live checkpoints) must hold
every lane lock at once. Two threads doing that concurrently deadlock
unless both acquire in the same global order, so this module is the one
sanctioned way to take more than one lane lock: locks are acquired in
ascending lane-index order and released in reverse. The test-side
LOCK-ORDER check (``tests/test_invariants.py``) fails on any explicit
``acquire()`` / ``release()`` or nested multi-lock ``with`` elsewhere in
``serve/`` (DESIGN.md §7, §14).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager


@contextmanager
def ordered_lane_locks(lanes: Sequence) -> Iterator[list]:
    """Hold every lane's ``lock``, acquired in ascending ``lane.index``
    order — *the* global lock order.

    Yields the lanes in acquisition order. Releases in reverse on exit,
    including when the body raises. Do **not** call this while already
    holding any lane lock — the ordering guarantee only holds when the
    full set is acquired through one call (single-lane work takes
    ``with lane.lock:`` directly).
    """
    ordered = sorted(lanes, key=lambda lane: lane.index)
    held = []
    try:
        for lane in ordered:
            lane.lock.acquire()
            held.append(lane)
        yield ordered
    finally:
        for lane in reversed(held):
            lane.lock.release()
