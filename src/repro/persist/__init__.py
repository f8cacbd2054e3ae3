"""Checkpoint/restore for engines, tuners and whole stores.

High-level entry points::

    from repro.persist import save_store, load_store

    save_store(store, "run.ckpt")          # everything: engine + tuners + logs
    store = load_store("run.ckpt")         # fresh process, bit-exact resume

    save_engine(tree, "tree.snap")         # just a storage engine
    save_tuner(lerp, config, "lerp.snap")  # just a trained tuner (transfer)

See DESIGN.md §6 for the format and the restore invariants.
"""

from repro.persist.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    config_from_state,
    config_to_state,
    lerp_config_from_state,
    lerp_config_to_state,
    load_engine,
    load_snapshot,
    load_store,
    load_tuner,
    save_engine,
    save_snapshot,
    save_store,
    save_tuner,
    store_from_snapshot,
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
    "store_from_snapshot",
    "config_to_state",
    "config_from_state",
    "lerp_config_to_state",
    "lerp_config_from_state",
]
