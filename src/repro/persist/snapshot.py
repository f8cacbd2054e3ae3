"""Versioned snapshot files for engines, tuners and whole stores.

The paper's deployment story depends on state that outlives a process: Lerp
is "pre-trained offline and redeployed" across workloads, and long benchmark
runs must be resumable. This module is the on-disk half of that story; the
in-memory half is the ``state_dict()`` / ``load_state_dict()`` hooks that
every stateful component implements (see DESIGN.md §6).

A snapshot file is one frame of :mod:`repro.durable.log` (``u32 length |
u32 crc32 | payload``, the frame the WAL and the manifest are written in)
around a pickled payload::

    {
        "magic": "repro-snapshot",
        "format_version": 2,
        "kind": "engine" | "store" | "tuner",
        "repro_version": "...",          # library that wrote the file
        "meta": {...},                   # caller-supplied annotations
        "state": {...},                  # the actual state dictionary
    }

``state`` contains only primitives, numpy arrays and nested containers of
them — never live objects. ``load_snapshot`` checks the frame's CRC before
unpickling, then magic, version and kind before anything is interpreted; a
truncated or corrupt file, or one of any other version, raises
:class:`SnapshotError` instead of failing deep inside a restore. A layout
change bumps ``FORMAT_VERSION``: a file of another version is refused,
never reinterpreted.

Restore invariants (asserted by ``tests/test_persist.py``):

* **Bit-exactness** — an engine/store restored from a snapshot and driven
  with the remaining operation stream produces *identical* mission stats,
  simulated clock, I/O counters and tree structure as a process that never
  snapshotted — with no excluded field: ``MissionStats`` carries simulated
  quantities only.
* **Same blueprint** — a snapshot restores only into an object built with
  the same configuration (sizes, shard count, agent architecture); loaders
  verify the cheap invariants (capacities, shard counts, parameter shapes)
  and raise rather than silently reinterpreting state.
* **Between missions** — snapshots are taken with no mission window open.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.config import (
    SystemConfig,
    TransitionKind,
    config_from_state,
    config_to_state,
)
from repro.core.joint import JointLerp
from repro.core.lerp import AllLevelsLerp, Lerp, LerpConfig
from repro.core.named_policy import NamedPolicyLerp
from repro.core.ruskey import RusKey
from repro.core.tuners import Tuner
from repro.durable.atomio import publish_bytes
from repro.durable.log import frame, iter_frames
from repro.durable.store import DurableStore
from repro.engine.sharded import ShardedStore
from repro.errors import SnapshotError
from repro.lsm.tree import LSMTree
from repro.rl.ddpg import DDPGConfig
from repro.rl.dqn import DQNConfig

#: The learned tuners a blueprint can name (rebuilt from class + config).
_LERP_CLASSES = {
    cls.__name__: cls for cls in (Lerp, AllLevelsLerp, JointLerp, NamedPolicyLerp)
}

MAGIC = "repro-snapshot"
FORMAT_VERSION = 2

#: Engine tag → (class, an empty one from config, shard count and the
#: engine's saved state). Subclasses before their bases: the first
#: ``isinstance`` match names an engine. A durable store reopens the
#: directory its state names (re-materialization happens in
#: ``load_state_dict``).
_ENGINES = {
    "durable": (
        DurableStore,
        lambda config, n_shards, state: DurableStore(str(state["data_dir"]), config),
    ),
    "sharded": (ShardedStore, lambda config, n_shards, state: ShardedStore(config, n_shards)),
    "lsm": (LSMTree, lambda config, n_shards, state: LSMTree(config)),
}


# ----------------------------------------------------------------------
# Config (de)serialization (SystemConfig's pair lives in repro.config and
# is re-exported from this package)
# ----------------------------------------------------------------------
def lerp_config_to_state(config: LerpConfig) -> Dict[str, object]:
    """``LerpConfig`` (with its nested agent configs) as a plain dict."""
    state = dataclasses.asdict(config)
    state["transition"] = config.transition.value
    state["ddpg"]["hidden"] = list(config.ddpg.hidden)
    state["policy_dqn"]["hidden"] = list(config.policy_dqn.hidden)
    return state


def lerp_config_from_state(state: Dict[str, Any]) -> LerpConfig:
    """Rebuild a ``LerpConfig`` from :func:`lerp_config_to_state` output."""
    agents = {
        key: cls(**{**state[key], "hidden": tuple(state[key]["hidden"])})
        for key, cls in (("ddpg", DDPGConfig), ("policy_dqn", DQNConfig))
    }
    return LerpConfig(
        **{**state, **agents, "transition": TransitionKind(state["transition"])}
    )


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
def save_snapshot(
    path: str,
    kind: str,
    state: Dict[str, object],
    meta: Optional[Dict[str, object]] = None,
) -> None:
    """Write ``state`` to ``path`` as a versioned snapshot (atomically
    *and* durably via :mod:`repro.durable.atomio`: the published file is
    complete or absent, never half-written, and both its bytes and the
    rename are fsync'd before this returns)."""
    payload = {
        "magic": MAGIC,
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "repro_version": __version__,
        "meta": dict(meta) if meta else {},
        "state": state,
    }
    path = os.fspath(path)
    try:
        blob = frame(pickle.dumps(payload, protocol=4))
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SnapshotError(
            f"snapshot state for {path} is not serializable (state dicts "
            f"must hold only primitives and numpy arrays): {exc}"
        ) from exc
    try:
        publish_bytes(path, blob, suffix=f".tmp.{os.getpid()}")
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot to {path}: {exc}") from exc


def load_snapshot(
    path: str, expected_kind: Optional[str] = None
) -> Dict[str, object]:
    """Read and validate a snapshot; returns the full payload dict. The
    file must be exactly one CRC-clean frame, checked before unpickling."""
    try:
        with open(os.fspath(path), "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    blob, end = next(iter_frames(memoryview(data)), (b"", -1))
    if end != len(data):
        raise SnapshotError(
            f"{path} is not one CRC-clean snapshot frame: truncated, "
            f"corrupt, or written before format version {FORMAT_VERSION}"
        )
    try:
        payload = pickle.loads(blob)
    except (pickle.UnpicklingError, EOFError) as exc:
        raise SnapshotError(f"{path} is not a repro snapshot: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != MAGIC:
        raise SnapshotError(f"{path} is not a repro snapshot")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"{path} has snapshot format version {version}; this library "
            f"reads version {FORMAT_VERSION}"
        )
    if expected_kind is not None and payload.get("kind") != expected_kind:
        raise SnapshotError(
            f"{path} holds a {payload.get('kind')!r} snapshot, "
            f"expected {expected_kind!r}"
        )
    return payload


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
def _engine_identity(engine: object, config: SystemConfig) -> Dict[str, object]:
    """What rebuilds ``engine``'s empty shell: its tag, config and shard
    count (written alike by the ``engine`` and ``store`` kinds)."""
    for tag, (cls, _) in _ENGINES.items():
        if isinstance(engine, cls):
            return {
                "engine_kind": tag,
                "config": config_to_state(config),
                "n_shards": getattr(engine, "n_shards", 1),
            }
    raise SnapshotError(
        f"cannot snapshot engine of type {type(engine).__name__}; known "
        f"kinds are {list(_ENGINES)}"
    )


def _engine_from_identity(
    state: Dict[str, Any], config: SystemConfig, engine_state: Dict[str, Any]
) -> Any:
    """The empty engine :func:`_engine_identity` describes."""
    _, build = _ENGINES[state["engine_kind"]]
    return build(config, int(state["n_shards"]), engine_state)


def save_engine(
    engine, path: str, meta: Optional[Dict[str, object]] = None
) -> None:
    """Snapshot a bare engine (tree or sharded store) with its config, so
    :func:`load_engine` can rebuild it without any caller-supplied context."""
    state = {
        **_engine_identity(engine, engine.config),
        "engine": engine.state_dict(),
    }
    save_snapshot(path, "engine", state, meta)


def load_engine(path: str):
    """Rebuild and restore an engine from a :func:`save_engine` snapshot."""
    state = load_snapshot(path, expected_kind="engine")["state"]
    config = config_from_state(state["config"])
    engine = _engine_from_identity(state, config, state["engine"])
    engine.load_state_dict(state["engine"])
    return engine


# ----------------------------------------------------------------------
# Tuners
# ----------------------------------------------------------------------
def _tuner_blueprint(tuner: Tuner) -> Dict[str, object]:
    """How to rebuild ``tuner`` in a fresh process.

    The learned tuners are rebuilt from their class name and (plain-data)
    config; the simple baselines hold only construction-time configuration
    and pickle cleanly.
    """
    name = type(tuner).__name__
    if _LERP_CLASSES.get(name) is type(tuner):
        config = lerp_config_to_state(tuner.config)
        return {"kind": "lerp", "class": name, "config": config}
    try:
        return {"kind": "pickled", "data": pickle.dumps(tuner, protocol=4)}
    except Exception as exc:
        raise SnapshotError(
            f"tuner {type(tuner).__name__} cannot be serialized; make it "
            "picklable (or snapshot its state_dict() separately)"
        ) from exc


def _tuner_from_blueprint(
    blueprint: Dict[str, Any], system_config: SystemConfig
) -> Tuner:
    if blueprint["kind"] == "lerp":
        return _LERP_CLASSES[blueprint["class"]](
            system_config, lerp_config_from_state(blueprint["config"])
        )
    return pickle.loads(blueprint["data"])


def save_tuner(
    tuner: Tuner,
    system_config: SystemConfig,
    path: str,
    meta: Optional[Dict[str, object]] = None,
) -> None:
    """Snapshot one tuner (e.g. a trained Lerp for later redeployment)."""
    state = {
        "blueprint": _tuner_blueprint(tuner),
        "system_config": config_to_state(system_config),
        "tuner": tuner.state_dict(),
    }
    save_snapshot(path, "tuner", state, meta)


def load_tuner(path: str) -> Tuner:
    """Rebuild and restore a tuner from a :func:`save_tuner` snapshot."""
    state = load_snapshot(path, expected_kind="tuner")["state"]
    tuner = _tuner_from_blueprint(
        state["blueprint"], config_from_state(state["system_config"])
    )
    tuner.load_state_dict(state["tuner"])
    return tuner


# ----------------------------------------------------------------------
# Whole stores
# ----------------------------------------------------------------------
def save_store(
    store: RusKey, path: str, meta: Optional[Dict[str, object]] = None
) -> None:
    """Snapshot a whole :class:`RusKey` store: engine, tuner(s), controller
    logs, and the blueprint needed to rebuild everything in a fresh
    process."""
    store_state = store.state_dict()
    unique_tuners = (
        store.tuners[:1] if store_state["tuners_shared"] else store.tuners
    )
    state = {
        **_engine_identity(store.engine, store.config),
        "chunk_size": store_state["chunk_size"],
        "tuner_blueprints": [_tuner_blueprint(t) for t in unique_tuners],
        "store": store_state,
    }
    save_snapshot(path, "store", state, meta)


def load_store(path: str) -> RusKey:
    """Rebuild and restore a :class:`RusKey` from a :func:`save_store`
    snapshot; a shared-tuner snapshot is rebuilt as one shared instance."""
    return store_from_snapshot(load_snapshot(path, expected_kind="store"))


def store_from_snapshot(payload: Dict[str, Any]) -> RusKey:
    """Like :func:`load_store`, from an already-loaded snapshot payload
    (lets callers that inspect ``payload['meta']`` first avoid
    deserializing the file twice)."""
    state = payload["state"]
    config = config_from_state(state["config"])
    engine = _engine_from_identity(state, config, state["store"]["engine"])
    tuners: List[Tuner] = [
        _tuner_from_blueprint(b, config) for b in state["tuner_blueprints"]
    ]
    if state["store"]["tuners_shared"]:
        # Preserve the snapshot's topology: a shared tuner stays one
        # instance, so its (single) saved state restores into every slot.
        tuners = tuners[:1] * len(engine.tuning_targets())
    store = RusKey(
        config,
        engine=engine,
        tuners=tuners,
        chunk_size=int(state["chunk_size"]),
    )
    store.load_state_dict(state["store"])
    return store
