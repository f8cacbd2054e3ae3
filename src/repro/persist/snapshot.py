"""Versioned snapshot files for engines, tuners and whole stores.

The paper's deployment story depends on state that outlives a process: Lerp
is "pre-trained offline and redeployed" across workloads, and long benchmark
runs must be resumable. This module is the on-disk half of that story; the
in-memory half is the ``state_dict()`` / ``load_state_dict()`` hooks that
every stateful component implements (see DESIGN.md §6).

A snapshot file is a single pickled payload::

    {
        "magic": "repro-snapshot",
        "format_version": 1,
        "kind": "engine" | "store" | "tuner",
        "repro_version": "...",          # library that wrote the file
        "meta": {...},                   # caller-supplied annotations
        "state": {...},                  # the actual state dictionary
    }

``state`` contains only primitives, numpy arrays and nested containers of
them — never live objects — so the format survives refactors of the classes
it describes. ``load_snapshot`` validates magic, version and kind before
anything is interpreted; mismatches raise :class:`SnapshotError` instead of
failing deep inside a restore.

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
from typing import Any, Callable, Dict, List, Optional

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
FORMAT_VERSION = 1

#: Engine classes the loader can rebuild from a blueprint, by tag. Order
#: matters when classifying: subclasses before their bases.
_ENGINE_TAGS = (
    ("durable", DurableStore),
    ("sharded", ShardedStore),
    ("lsm", LSMTree),
)


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
    """Rebuild a ``LerpConfig`` from :func:`lerp_config_to_state` output —
    or from what the one-class ``Lerp`` wrote before the tuners were split:
    its ``mode`` / ``tune_policy`` now pick the class
    (:func:`_lerp_class_name`) and are dropped here with the never-used
    ``dqn``; ``agent_kind="dqn"`` or a non-zero ``scale_alpha`` selected code
    that no longer exists and is refused."""
    fields = dict(state)
    if fields.pop("agent_kind", "ddpg") != "ddpg" or fields.get("scale_alpha"):
        raise SnapshotError(
            "snapshot was taken with LerpConfig.agent_kind='dqn' or a "
            "non-zero scale_alpha; neither is supported any more"
        )
    for dropped in ("scale_alpha", "mode", "tune_policy", "dqn"):
        fields.pop(dropped, None)
    fields["transition"] = TransitionKind(fields["transition"])
    for key, cls in (("ddpg", DDPGConfig), ("policy_dqn", DQNConfig)):
        if key in fields:  # policy_dqn is absent in pre-policy snapshots
            agent = dict(fields[key])
            fields[key] = cls(**{**agent, "hidden": tuple(agent["hidden"])})
    return LerpConfig(**fields)


def _lerp_class_name(blueprint: Dict[str, Any]) -> str:
    """The tuner class a ``"lerp"`` blueprint names — or, in a file from
    before the split, the one its config's ``tune_policy`` (which overrode
    ``mode``) or ``mode`` selected."""
    config = blueprint["config"]
    by_mode = {"joint": "JointLerp", "all-levels": "AllLevelsLerp"}
    selected = by_mode.get(config.get("mode"), "Lerp")
    if config.get("tune_policy"):
        selected = "NamedPolicyLerp"
    return str(blueprint.get("class", selected))


def _split_tuner_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """A tuner state as the split tuners read it. The one-class ``Lerp``
    wrote every flow's keys, the per-level ones as five flat dicts keyed by
    level (now one ``levels`` record per level) and the joint transition
    under the fake level ``-1`` of ``last`` (now ``last`` itself); the
    named-policy keys did not move, and each class reads only its own."""
    if "agents" not in state:
        return state
    levels = {
        level_no: {
            "agent": agent_state,
            "scale": state["level_scales"][level_no],
            "last": state["last"].get(level_no),
            "reward_window": state["reward_windows"].get(level_no, []),
            "arm_stats": state["arm_stats"].get(level_no, {}),
        }
        for level_no, agent_state in state["agents"].items()
    }
    return {**state, "levels": levels, "last": state["last"].get(-1)}


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
        blob = pickle.dumps(payload, protocol=4)
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
    """Read and validate a snapshot; returns the full payload dict."""
    try:
        with open(os.fspath(path), "rb") as fh:
            payload = pickle.load(fh)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
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
def _classify_engine(engine: object) -> str:
    for tag, cls in _ENGINE_TAGS:
        if isinstance(engine, cls):
            return tag
    raise SnapshotError(
        f"cannot snapshot engine of type {type(engine).__name__}; known "
        f"kinds are {[tag for tag, _ in _ENGINE_TAGS]}"
    )


def _build_engine(
    tag: str,
    config: SystemConfig,
    n_shards: int,
    engine_state: Optional[Dict[str, object]] = None,
):
    if tag == "durable":
        if not engine_state or "data_dir" not in engine_state:
            raise SnapshotError(
                "durable engine snapshot carries no data_dir to reopen"
            )
        # Re-materialization happens in load_state_dict; opening the
        # directory here just establishes (or recovers) the store files.
        return DurableStore(str(engine_state["data_dir"]), config)
    if tag == "sharded":
        return ShardedStore(config, n_shards)
    if tag in ("lsm", "flsm"):  # older snapshots tag the same tree "flsm"
        return LSMTree(config)
    raise SnapshotError(f"unknown engine kind in snapshot: {tag!r}")


def save_engine(
    engine, path: str, meta: Optional[Dict[str, object]] = None
) -> None:
    """Snapshot a bare engine (tree or sharded store) with its config, so
    :func:`load_engine` can rebuild it without any caller-supplied context."""
    tag = _classify_engine(engine)
    state = {
        "engine_kind": tag,
        "config": config_to_state(engine.config),
        "n_shards": getattr(engine, "n_shards", 1),
        "engine": engine.state_dict(),
    }
    save_snapshot(path, "engine", state, meta)


def load_engine(path: str):
    """Rebuild and restore an engine from a :func:`save_engine` snapshot."""
    payload = load_snapshot(path, expected_kind="engine")
    state = payload["state"]
    config = config_from_state(state["config"])
    engine = _build_engine(
        state["engine_kind"], config, int(state["n_shards"]), state["engine"]
    )
    engine.load_state_dict(state["engine"])
    return engine


# ----------------------------------------------------------------------
# Tuners
# ----------------------------------------------------------------------
def _tuner_blueprint(tuner: Tuner) -> Dict[str, object]:
    """How to rebuild ``tuner`` in a fresh process.

    The learned tuners are rebuilt from their class name and (plain-data)
    config; the simple baselines hold only construction-time configuration
    and pickle cleanly. Anything else must be supplied by the caller at
    load time.
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
    blueprint: Dict[str, object], system_config: SystemConfig
) -> Tuner:
    if blueprint["kind"] == "lerp":
        name = _lerp_class_name(blueprint)
        if name not in _LERP_CLASSES:
            raise SnapshotError(f"unknown tuner class in snapshot: {name!r}")
        return _LERP_CLASSES[name](
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
    payload = load_snapshot(path, expected_kind="tuner")
    state = payload["state"]
    tuner = _tuner_from_blueprint(
        state["blueprint"], config_from_state(state["system_config"])
    )
    tuner.load_state_dict(_split_tuner_state(state["tuner"]))
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
        "engine_kind": _classify_engine(store.engine),
        "config": config_to_state(store.config),
        "n_shards": getattr(store.engine, "n_shards", 1),
        "chunk_size": store_state["chunk_size"],
        "tuner_blueprints": [_tuner_blueprint(t) for t in unique_tuners],
        "store": store_state,
    }
    save_snapshot(path, "store", state, meta)


def load_store(
    path: str,
    tuner_factory: Optional[Callable[[SystemConfig], Tuner]] = None,
) -> RusKey:
    """Rebuild and restore a :class:`RusKey` from a :func:`save_store`
    snapshot. ``tuner_factory`` overrides the snapshot's tuner blueprints
    (e.g. to rebuild a custom tuner subclass yourself); the snapshot's
    saved tuner state is loaded into the rebuilt tuners either way, and a
    shared-tuner snapshot is rebuilt as one shared instance."""
    payload = load_snapshot(path, expected_kind="store")
    return store_from_snapshot(payload, tuner_factory=tuner_factory)


def store_from_snapshot(
    payload: Dict[str, object],
    tuner_factory: Optional[Callable[[SystemConfig], Tuner]] = None,
) -> RusKey:
    """Like :func:`load_store`, from an already-loaded snapshot payload
    (lets callers that inspect ``payload['meta']`` first avoid
    deserializing the file twice)."""
    state = payload["state"]
    config = config_from_state(state["config"])
    n_shards = int(state["n_shards"])
    engine = _build_engine(
        state["engine_kind"], config, n_shards, state["store"]["engine"]
    )
    n_targets = len(engine.tuning_targets())
    blueprints = state["tuner_blueprints"]
    shared = bool(state["store"]["tuners_shared"])
    tuners: List[Tuner]
    if tuner_factory is None:
        tuners = [_tuner_from_blueprint(b, config) for b in blueprints]
    else:
        tuners = [tuner_factory(config) for _ in range(1 if shared else n_targets)]
    if shared:
        # Preserve the snapshot's topology: a shared tuner stays one
        # instance, so its (single) saved state restores into every slot.
        tuners = tuners[:1] * n_targets
    store = RusKey(
        config,
        engine=engine,
        tuners=tuners,
        chunk_size=int(state["chunk_size"]),
    )
    saved = [_split_tuner_state(s) for s in state["store"]["tuners"]]
    store.load_state_dict({**state["store"], "tuners": saved})
    return store
