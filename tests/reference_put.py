"""The per-key write loop, kept as the executable specification.

``src/`` ships one write path (``LSMTree.put_batch`` / ``delete_batch``
over ``MemTable.put_batch``; scalar ``put`` / ``delete`` are one-element
batches of it). These are the hand-written scalar bodies it replaced:
one op counted, one memtable insert, one flush check per key.
The batch path must be **bit-identical** to a loop over them in every
simulated observable — ``view()``, memtable insertion order, Bloom RNG
state. ``tests/test_engine.py`` and ``benchmarks/test_sharding_scale.py``
import it.
"""

from __future__ import annotations

from repro.engine.sharded import shard_of_key
from repro.lsm.entry import TOMBSTONE, validate_value


def _buffer(tree, key: int, value: int) -> None:
    """The old ``MemTable.put`` / ``delete`` body plus the tree's flush check."""
    tree.stats.count_update()
    tree.memtable._entries[int(key)] = value
    tree.memtable._sorted_view = None
    if tree.memtable.is_full:
        tree._flush()


def _home(engine, key: int):
    """The tree ``key`` lives on: the engine itself, or its home shard."""
    targets = engine.tuning_targets()
    return targets[shard_of_key(key, len(targets))]


def reference_put(engine, key: int, value: int) -> None:
    """The pre-derivation ``put``: validate, count, insert, flush if full."""
    _buffer(_home(engine, key), key, validate_value(value))


def reference_delete(engine, key: int) -> None:
    """The pre-derivation ``delete``: a tombstone through the same steps."""
    _buffer(_home(engine, key), key, TOMBSTONE)
