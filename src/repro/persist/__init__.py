"""Checkpoint/restore for engines, tuners and whole stores.

High-level entry points::

    from repro.persist import save_store, load_store

    save_store(store, "run.ckpt")          # everything: engine + tuners + logs
    store = load_store("run.ckpt")         # fresh process, bit-exact resume

    save_engine(tree, "tree.snap")         # just a storage engine
    save_tuner(lerp, "lerp.snap")          # just a trained tuner (transfer)

A snapshot is the pickled object in a versioned, CRC-framed envelope that
is checked before the object is unpickled; see DESIGN.md §6.
"""

from repro.persist.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    load_engine,
    load_snapshot,
    load_store,
    load_tuner,
    save_engine,
    save_snapshot,
    save_store,
    save_tuner,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "save_snapshot",
    "load_snapshot",
    "save_engine",
    "load_engine",
    "save_tuner",
    "load_tuner",
    "save_store",
    "load_store",
]
