"""The differential oracle: one state machine checks every engine.

Hypothesis drives :class:`Oracle` through random rule sequences against a
set of *systems* built from one drawn configuration:

* ``tree`` — a bare :class:`LSMTree`;
* ``reference`` / ``reference-4`` — one tree, or four routed like a
  :class:`ShardedStore`, driven only through the per-op references
  (``tests/reference_{put,get,range}.py``) and per-tree tuning calls;
* ``sharded-1`` / ``sharded-4`` — :class:`ShardedStore` with 1 / 4 shards;
* ``durable`` / ``durable-4`` — a :class:`DurableStore`, and a 4-shard
  store of them built through ``tree_factory``;
* ``scalar`` / ``scalar-4`` — a tree and a 4-shard store driven one key,
  one range at a time (``exact`` profile only: dyadic costs, bit-array
  Blooms and no cache make a batch read charge exactly what its keys read
  one by one do);
* ``served-4`` — a :class:`KVServer` over a 4-shard store, each batch one
  request block, each window cut by ``KVServer.checkpoint``; ``replay-4`` —
  a 4-shard store replaying, by its batch methods, the cuts its lanes served.

The model is a dict. After every rule: every system's contents equal the
model, check_invariants() holds, and operation counts agree everywhere.
Each group of :data:`GROUPS` is *sim-identical* (:meth:`Oracle.observed`),
so no tracer, snapshot restore, per-op run or server may make one member's
cost or tuning differ from another's, and a policy switch, under any
transition kind or tuner, may change cost but never contents (the paper's
§4 claim). A reopened durable store leaves its group (recovery replays the
WAL tail on a fresh clock), and no reopen or crash may lose an acknowledged
write. DESIGN.md §17 says how to add a system or a rule.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time
from collections import deque
from itertools import chain, compress

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from reference_cache import cache_state
from reference_get import reference_get_batch
from reference_mission import reference_run_chunks
from reference_put import reference_delete, reference_put
from reference_range import reference_range_scan_batch

from repro.config import BloomMode, CostModelParams, SystemConfig, TransitionKind
from repro.core.lerp import Lerp, LerpConfig, per_shard_tuners
from repro.core.missions import MissionRunner
from repro.core.tuners import StaticTuner
from repro.durable import DurableStore
from repro.engine.sharded import ShardedStore, merge_mission_stats, shard_of
from repro.errors import ServeError, TreeStateError
from repro.lsm.entry import TOMBSTONE
from repro.lsm.iterators import live_items
from repro.lsm.tree import LSMTree
from repro.obs import DecisionAuditLog, Tracer
from repro.persist import load_engine, load_tuner, save_engine, save_tuner
from repro.serve import REQ_DELETE, REQ_GET, REQ_PUT, REQ_RANGE, KVServer, Request
from repro.serve import ordered_lane_locks, requests_from_mission
from repro.workload.spec import OP_LOOKUP, OP_RANGE, OP_UPDATE, Mission

#: Power-of-two cost constants: every charge is a dyadic float, so sums
#: come out bit-equal in any accumulation order.
DYADIC_COSTS = CostModelParams(
    random_read_s=2.0**-15,
    random_write_s=2.0**-15,
    seq_read_s=2.0**-17,
    seq_write_s=2.0**-17,
    run_probe_cpu_s=2.0**-18,
    compaction_entry_cpu_s=2.0**-20,
)

_TINY = dict(
    size_ratio=3, entry_bytes=1024, page_bytes=4096, write_buffer_bytes=4 * 1024, seed=3
)
PROFILES = {
    # The default cost model; ``load`` draws the Bloom mode (analytical: an
    # RNG draw per probe) and the cache size (none, or 16 pages) apart.
    "default": SystemConfig(**_TINY),
    # Where a per-op read is sim-identical to a batch one: the scalar systems join.
    "exact": SystemConfig(**_TINY, bloom_mode=BloomMode.BIT_ARRAY, costs=DYADIC_COSTS),
}

#: Systems that must stay sim-identical, one group per routing.
GROUPS = (
    ("tree", "reference", "sharded-1", "durable", "scalar"),
    ("sharded-4", "reference-4", "durable-4", "scalar-4"),
    ("served-4", "replay-4"),
)
REFERENCES = {"reference", "reference-4"}
PER_OP = {"scalar", "scalar-4"}
DURABLE = ("durable", "durable-4")
SERVED, REPLAY = "served-4", "replay-4"  # data reach both through Oracle.serve
TIMEOUT = 10.0  # a served request or span that takes longer has hung

#: The tuners ``load`` may put on a system: one per target, seeded ``base + i``.
LERP = LerpConfig(burn_in_missions=0, updates_per_mission=1)  # acts from the first window
TUNERS = {
    "none": lambda config, n: [],
    "static": lambda config, n: [StaticTuner(2) for _ in range(n)],
    "lerp": lambda config, n: per_shard_tuners(Lerp, config, LERP, n),
}

KEYS = st.integers(-8, 300)
PROBES = st.integers(-16, 320)  # a few keys no write reaches
VALUES = st.integers(TOMBSTONE + 1, 2**63 - 1)


def batches(elements, long=64):
    """Short batches (empty ones included) or long ones: a plain list
    strategy averages five elements, too few to grow a tree deep."""
    return st.lists(elements, max_size=8) | st.lists(elements, min_size=24, max_size=long)


ITEMS = batches(st.tuples(KEYS, VALUES))
#: One mission row ``(op, key, value, span)`` of each kind.
MISSION_OPS = st.lists(
    st.tuples(st.just(OP_UPDATE), KEYS, VALUES, st.just(0))
    | st.tuples(st.just(OP_LOOKUP), PROBES, st.just(0), st.just(0))
    | st.tuples(st.just(OP_RANGE), PROBES, st.just(0), st.integers(0, 60)),
    max_size=80,
)
TRANSITIONS = st.sampled_from(list(TransitionKind))
NAMED_POLICIES = st.sampled_from(("leveling", "tiering", "lazy-leveling"))

#: Inputs every engine must refuse, and the methods each applies to: a
#: derived scalar op refuses what its one-element batch does.
_ALL = ("put_batch", "delete_batch", "get_batch", "range_scan_batch", "bulk_load")
SCALAR = ("put", "delete", "get", "range_lookup")
#: The spoiled scalar of each kind (``2**63`` arrives as a uint64).
SCALAR_BAD = {"uint64": 2**63, "float": 1.7, "bool": True}
INVALID = {
    "tombstone": ("put_batch", "bulk_load"),
    "uint64": _ALL + SCALAR,
    "float": _ALL + SCALAR,
    "bool": _ALL + SCALAR,
    "outside-int64": _ALL,
    "2-D": _ALL,
    "unequal": ("put_batch", "range_scan_batch", "bulk_load"),
    "inverted": ("range_scan_batch",),
}

#: Requests a server must refuse, ``(kind, mission op, key, value, span)`` with one
#: field spoiled, as a ``Request`` and as a one-row mission block (a delete has no op).
BAD_REQUESTS = {
    "unknown-kind": (99, 99, 1, 0, 0),
    "float-kind": (1.0, 1.0, 5, 0, 0),
    "tombstone-put": (REQ_PUT, OP_UPDATE, 1, TOMBSTONE, 0),
    "key-high": (REQ_GET, OP_LOOKUP, 2**63, 0, 0),
    "key-low": (REQ_DELETE, None, -(2**63) - 1, 0, 0),
    "range-end": (REQ_RANGE, OP_RANGE, 2**63 - 2, 0, 10),
    "value": (REQ_PUT, OP_UPDATE, 1, 2**63, 0),
    "uint64-key": (REQ_GET, OP_LOOKUP, np.uint64(2**63), 0, 0),
    "float-key": (REQ_GET, OP_LOOKUP, 1.7, 0, 0),  # int() would truncate this and the next 3
    "bool-key": (REQ_PUT, OP_UPDATE, True, 2, 0),
    "float-value": (REQ_PUT, OP_UPDATE, 1, 2.9, 0),
    "float-span": (REQ_RANGE, OP_RANGE, 5, 0, 2.5),
}
OFFERS = [(case, "Request") for case in BAD_REQUESTS] + [
    (case, "mission") for case, row in BAD_REQUESTS.items() if row[1] is not None
]


def offer(server, case, via):
    kind, op, key, value, span = BAD_REQUESTS[case]
    if via == "Request":
        requests = [Request(kind, key, value=value, span=span)]
    else:
        requests = requests_from_mission(Mission([op], [key], [value], [span]))
    for request in requests:
        server.submit(request, timeout=TIMEOUT)


def observables(engine):
    """What sim-identical engines must agree on: ``view()`` plus, per tree,
    what a view summarises away — its levels (``describe()``), cache
    contents (pages in recency order, and the counters), the Bloom RNG
    state and memtable insertion order."""
    trees = engine.tuning_targets()
    return (
        engine.view(),
        [tree.describe() for tree in trees],
        [cache_state(tree.cache) for tree in trees],
        [tree._rng.bit_generator.state for tree in trees],
        [list(tree.memtable._entries.items()) for tree in trees],
    )


def contents(engine):
    """Every live entry as a dict, read without charging anything."""
    out = {}
    for tree in engine.tuning_targets():
        keys, values = live_items(tree)
        out.update(zip(keys.tolist(), values.tolist()))
    return out


def footprint(engine):
    """What a refused call may not change: the observables (the view counts
    every update and entry, the memtable shows every buffered write) and
    the acknowledged WAL seqnos."""
    acked = [getattr(tree, "acked_seqno", None) for tree in engine.tuning_targets()]
    return observables(engine), acked


def close(engine):
    for tree in engine.tuning_targets():
        if isinstance(tree, DurableStore):
            tree.close()


def columns(items):
    keys = np.array([key for key, _ in items], dtype=np.int64)
    return keys, np.array([value for _, value in items], dtype=np.int64)


def answers(found, values):
    return [int(v) if f else None for f, v in zip(found.tolist(), values.tolist())]


def per_range(keys, values, offsets):
    pairs = list(zip(keys.tolist(), values.tolist()))
    bounds = offsets.tolist()
    return [pairs[a:b] for a, b in zip(bounds, bounds[1:])]


def home_groups(keys, trees):
    """``(tree, idx)`` per home tree, ``idx`` in batch order: a
    :class:`ShardedStore`'s routing, restated test-side."""
    homes = shard_of(keys, len(trees))
    return [(tree, np.flatnonzero(homes == s)) for s, tree in enumerate(trees)]


def reference_lookup(engine, keys):
    found = np.zeros(len(keys), dtype=bool)
    values = np.zeros(len(keys), dtype=np.int64)
    for tree, idx in home_groups(keys, engine.tuning_targets()):
        if len(idx):
            found[idx], values[idx] = reference_get_batch(tree, keys[idx])
    return answers(found, values)


def reference_scan(engine, los, his):
    """Every tree scanned by the per-op reference, merged per range (the
    trees are key-disjoint). The reference counts a range on each tree it
    scans; an engine counts it once, on the home tree of its ``lo``."""
    trees = engine.tuning_targets()
    homes = shard_of(los, len(trees))
    parts = []
    for s, tree in enumerate(trees):
        parts.append(per_range(*reference_range_scan_batch(tree, los, his)))
        tree.stats.count_range(-int(np.count_nonzero(homes != s)))
    return [sorted(chain(*ranges)) for ranges in zip(*parts)]


class ReferenceCalls:
    """The batch calls :func:`reference_run_chunks` makes, answered by a
    reference system's per-op references."""

    def __init__(self, engine):
        self.engine = engine

    def put_batch(self, keys, values):
        for key, value in zip(keys.tolist(), values.tolist()):
            reference_put(self.engine, key, value)

    def get_batch(self, keys):
        reference_lookup(self.engine, keys)

    def range_scan_batch(self, los, his):
        reference_scan(self.engine, los, his)


def build(name, config, root):
    """A system of ``name``'s kind; a durable one opens (creates, or
    recovers) its directories under ``root``."""
    if name == "durable":
        return DurableStore(os.path.join(root, name), config)
    if name == "durable-4":
        return ShardedStore(
            config,
            4,
            tree_factory=lambda c, i: DurableStore(
                os.path.join(root, f"{name}-{i}"), c.with_updates(seed=c.seed + i)
            ),
        )
    if name == "sharded-1":
        return ShardedStore(config, 1)
    return ShardedStore(config, 4) if name.endswith("-4") else LSMTree(config)


def serve(engine):
    """The served system's server: a lane per shard, no tuning loop, every batch traced."""
    return KVServer(engine, window_ops=0, tracer=Tracer(sample_every=1))


def served_cuts(tracer, n_requests):
    """``(lane, n_requests)`` of each ``serve.batch`` span, in closing order, once
    they cover ``n_requests`` (a span closes after its requests complete)."""
    deadline = time.monotonic() + TIMEOUT
    while True:
        spans = [span.attrs for span in tracer.spans() if span.name == "serve.batch"]
        if sum(attrs["n_requests"] for attrs in spans) >= n_requests:
            tracer.reset()
            return [(attrs["lane"], attrs["n_requests"]) for attrs in spans]
        assert time.monotonic() < deadline, "a served batch never closed its span"
        time.sleep(0.001)


def replay(engine, cut):
    """One served cut through ``engine``'s batch methods (a rule's block is one kind)."""
    (kind,) = {request.kind for request in cut}
    keys, values, spans = np.array([(r.key, r.value, r.span) for r in cut], np.int64).T.copy()
    if kind == REQ_PUT:
        engine.put_batch(keys, values)
    elif kind == REQ_DELETE:
        engine.delete_batch(keys)
    elif kind == REQ_GET:
        engine.get_batch(keys)
    else:
        engine.range_scan_batch(keys, keys + np.maximum(spans - 1, 0))  # the server's range end


def invalid_args(kind, method, n, at, in_values):
    """Arguments ``method`` must refuse: ``n`` good keys, entry ``at``
    spoiled the way ``kind`` says (in the value column when ``in_values``)."""
    if method in SCALAR:
        bad = SCALAR_BAD[kind]
        if method in ("delete", "get"):
            return (bad,)
        return (at, bad) if in_values else (bad, at)
    good = np.arange(n, dtype=np.int64)
    if kind == "2-D":
        bad = np.arange(6).reshape(2, 3)
    elif kind == "uint64":
        bad = good.astype(np.uint64)
        bad[at] = 2**63 + at  # a cast to int64 would wrap it negative
    elif kind == "float":
        bad = good + 0.7  # a cast to int64 would truncate it
    elif kind == "bool":
        bad = good % 2 == 1  # a cast to int64 would read 0 / 1
    elif kind == "outside-int64":
        bad = good.tolist()
        bad[at] = 2**64 + at if at % 2 else -(2**63) - 1 - at
    else:
        bad = good
    if method in ("delete_batch", "get_batch"):
        return (bad,)
    if kind == "unequal":
        return good, good[1:]
    if method == "range_scan_batch":
        if kind == "inverted":
            his = good.copy()
            his[at] -= 1
            return good, his
        return bad, bad
    if kind == "tombstone":
        values = good.copy()
        values[at] = TOMBSTONE
        return good, values
    return (good, bad) if in_values else (bad, bad)


class Oracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="oracle-")
        self.config = None
        self.systems = {}
        self.server = None  # the running KVServer over SERVED's engine
        self.served_windows = 0  # windows closed by SERVED's earlier servers
        self.tuners = {}  # name -> one tuner per tuning target
        self.model = {}
        self.detached = set()  # reopened durable systems: contents only
        self.in_mission = False

    def build(self, name):
        return build(name, self.config, self.root)

    def groups(self):
        for group in GROUPS:
            members = [n for n in group if n in self.systems and n not in self.detached]
            if members:
                yield members

    def driven(self, name):
        """What ``name``'s calls go to: a reference system's trees one by
        one (its routing is test-side), any other engine whole."""
        engine = self.systems[name]
        return engine.tuning_targets() if name in REFERENCES else [engine]

    def direct(self, name):
        """Held around a direct call on ``name``'s engine: a served one's lane locks."""
        return ordered_lane_locks(self.server.lanes if name == SERVED and self.server else ())

    def observed(self, name):
        """:func:`observables` and each learned tuner's audit events (a baseline keeps none)."""
        tuners = [tuner for tuner in self.tuners[name] if hasattr(tuner, "audit")]
        return observables(self.systems[name]), [tuner.audit.events for tuner in tuners]

    def unserved(self):
        """The systems a data rule calls itself (:meth:`serve` reaches the rest)."""
        return [(name, e) for name, e in self.systems.items() if name not in (SERVED, REPLAY)]

    def serve(self, requests, by_lane=False):
        """Submit ``requests`` to the served system as one ``wait=True`` block, await
        them, and replay each lane's cuts on the twin, routed by ``shard_of``. With
        ``by_lane`` one lane's go at a time: a range reads every shard, so the
        cross-lane order is then the oracle's, not thread timing's."""
        server, twin = self.server, self.systems[REPLAY]
        homes = shard_of(np.array([r.key for r in requests], dtype=np.int64), server.n_lanes)
        lanes = [deque(compress(requests, homes == lane)) for lane in range(server.n_lanes)]
        for block in [list(lane) for lane in lanes] if by_lane else [requests]:
            for request in block:
                assert server.submit(request, timeout=TIMEOUT)
            for request in block:
                assert request.done.wait(TIMEOUT) and request.error is None
            for lane, n_requests in served_cuts(server.tracer, len(block)):
                replay(twin, [lanes[lane].popleft() for _ in range(n_requests)])
        assert not any(lanes)
        return requests

    def assert_refused(self, data, kind):
        """Every engine raises on each call ``kind`` spoils, and
        nothing is applied, counted or journaled."""
        calls = []
        for method in INVALID[kind]:
            n = data.draw(st.integers(1, 40))
            at = data.draw(st.integers(0, n - 1))
            calls.append((method, invalid_args(kind, method, n, at, data.draw(st.booleans()))))
        for name, engine in self.systems.items():
            if name in REFERENCES or name == SERVED:
                continue
            before = footprint(engine)
            occupied = engine.total_entries
            for method, args in calls:
                with pytest.raises(TreeStateError if method == "bulk_load" and occupied else ValueError):
                    getattr(engine, method)(*args)
                assert footprint(engine) == before, (name, method)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def start(self, config, per_op, policy, tuner="none"):
        """Build every system (the scalar ones when ``per_op``) with
        ``tuner`` on each target, pin ``policy`` and start serving."""
        self.config = config
        for group in GROUPS:
            for name in group:
                if per_op or name not in PER_OP:
                    self.systems[name] = engine = self.build(name)
                    self.tuners[name] = TUNERS[tuner](config, len(engine.tuning_targets()))
        for each in chain.from_iterable(self.tuners.values()):
            each.attach_audit(DecisionAuditLog())  # its own log
        if policy is not None:
            self.tune("set_named_policy", policy, TransitionKind.FLEXIBLE)
        self.server = serve(self.systems[SERVED]).start()
        self.systems[REPLAY].begin_mission()

    @initialize(
        profile=st.sampled_from(sorted(PROFILES)),
        bloom_mode=st.sampled_from(list(BloomMode)),
        cache_pages=st.sampled_from((0, 16)),
        policy=st.none() | NAMED_POLICIES,
        tuner=st.sampled_from(sorted(TUNERS)),
        items=batches(st.tuples(KEYS, VALUES), long=300),
        distribute=st.booleans(),
        data=st.data(),
    )
    def load(self, profile, bloom_mode, cache_pages, policy, tuner, items, distribute, data):
        """Build every system, put ``tuner`` on it and pin ``policy``, then
        bulk-load them — after every invalid input, which each must refuse while empty."""
        config = PROFILES[profile]
        if profile == "default":
            config = config.with_updates(bloom_mode=bloom_mode, block_cache_pages=cache_pages)
        self.start(config, profile == "exact", policy, tuner)
        for kind in INVALID:
            self.assert_refused(data, kind)
        self.cut_mission(reopen=False)  # load is two windows, each tuned: the bulk load,
        keys, values = columns(items)
        for name, engine in self.systems.items():
            if name in REFERENCES:
                for tree, idx in home_groups(keys, engine.tuning_targets()):
                    tree.bulk_load(keys[idx], values[idx], distribute=distribute)
            else:
                with self.direct(name):
                    engine.bulk_load(keys, values, distribute=distribute)
        self.model.update(items)
        # and reads up to the int64 edges: nothing refused was admitted, all serve on.
        self.cut_mission(reopen=True)
        self.get(keys=[-(2**63), 2**63 - 1], per_op=False)
        self.range_scan(ranges=[(2**63 - 10, 9)], per_op=False)
        self.cut_mission(reopen=False)

    @rule(items=ITEMS, per_op=st.booleans())
    def put(self, items, per_op):
        keys, values = columns(items)
        self.serve([Request(REQ_PUT, key, value=value, wait=True) for key, value in items])
        for name, engine in self.unserved():
            if name in REFERENCES:
                for key, value in items:
                    reference_put(engine, key, value)
            elif per_op or name in PER_OP:
                for key, value in items:
                    engine.put(key, value)
            else:
                engine.put_batch(keys, values)
        self.model.update(items)

    @rule(keys=batches(KEYS), per_op=st.booleans())
    def delete(self, keys, per_op):
        batch = np.array(keys, dtype=np.int64)
        self.serve([Request(REQ_DELETE, key, value=TOMBSTONE, wait=True) for key in keys])
        for name, engine in self.unserved():
            if name in REFERENCES:
                for key in keys:
                    reference_delete(engine, key)
            elif per_op or name in PER_OP:
                for key in keys:
                    engine.delete(key)
            else:
                engine.delete_batch(batch)
        for key in keys:
            self.model.pop(key, None)

    @rule(keys=batches(PROBES), per_op=st.booleans())
    def get(self, keys, per_op):
        batch = np.array(keys, dtype=np.int64)
        want = [self.model.get(key) for key in keys]
        served = self.serve([Request(REQ_GET, key, wait=True) for key in keys])
        assert [request.result for request in served] == want, SERVED
        for name, engine in self.unserved():
            if name in REFERENCES and per_op:
                got = [reference_lookup(engine, batch[i : i + 1])[0] for i in range(len(keys))]
            elif name in REFERENCES:
                got = reference_lookup(engine, batch)
            elif per_op or name in PER_OP:
                got = [engine.get(key) for key in keys]
            else:
                got = answers(*engine.get_batch(batch))
            assert got == want, name

    @rule(
        ranges=st.lists(st.tuples(PROBES, st.integers(0, 60)), max_size=10),
        per_op=st.booleans(),
    )
    def range_scan(self, ranges, per_op):
        los = np.array([lo for lo, _ in ranges], dtype=np.int64)
        his = np.array([lo + span for lo, span in ranges], dtype=np.int64)
        want = [
            sorted((k, v) for k, v in self.model.items() if lo <= k <= hi)
            for lo, hi in zip(los.tolist(), his.tolist())
        ]
        requests = [Request(REQ_RANGE, lo, span=span + 1, wait=True) for lo, span in ranges]
        served = self.serve(requests, by_lane=True)
        got = [list(zip(*(column.tolist() for column in r.result))) for r in served]
        assert got == want, SERVED
        for name, engine in self.unserved():
            if name in REFERENCES:  # per range whatever the batch
                got = reference_scan(engine, los, his)
            elif per_op or name in PER_OP:
                got = [engine.range_lookup(lo, hi) for lo, hi in zip(los.tolist(), his.tolist())]
            else:
                got = per_range(*engine.range_scan_batch(los, his))
            assert got == want, name

    def tune(self, method, *args, per_tree=False):
        """A tuning call: an engine takes it whole (unless ``per_tree``), a
        reference system fans it out to its trees test-side."""
        for name, engine in self.systems.items():
            with self.direct(name):
                for target in engine.tuning_targets() if per_tree else self.driven(name):
                    getattr(target, method)(*args)

    @rule(level_no=st.integers(1, 5), policy=st.integers(1, 3), transition=TRANSITIONS)
    def set_policy(self, level_no, policy, transition):
        self.tune("set_policy", level_no, policy, transition)

    @rule(policies=st.lists(st.integers(1, 3), min_size=1, max_size=5), transition=TRANSITIONS)
    def set_policies(self, policies, transition):
        self.tune("set_policies", policies, transition)

    @rule(policy=NAMED_POLICIES, transition=TRANSITIONS)
    def set_named_policy(self, policy, transition):
        self.tune("set_named_policy", policy, transition)

    @rule(bits=st.sampled_from((2.0, 5.0, 10.0)))
    def set_bits_per_key(self, bits):
        # A per-tree knob: each tree keeps its own Bloom budget.
        self.tune("set_bits_per_key", bits, per_tree=True)

    def close_windows(self, names, tune):
        """Close each open window in ``names`` — a served one by
        ``KVServer.checkpoint`` into ``<root>/<name>.snap``, a reference's
        tree by tree — and compare the records (merged, and per target)
        group by group; with ``tune``, each tuner then observes its part."""
        records = {}
        for name in names:
            engine = self.systems[name]
            if name == SERVED:
                tracer = engine.tracer
                self.server.checkpoint(os.path.join(self.root, f"{name}.snap"))
                assert engine.tracer is tracer  # left out of the snapshot, not detached
                stats, parts = self.server.windows[-1].stats, self.server.windows[-1].parts
                # A restored server numbers its windows afresh; the twin counts on.
                merged = dataclasses.replace(stats, index=stats.index + self.served_windows)
            elif name in REFERENCES:
                index = engine.tuning_targets()[0].stats.windows_closed  # before the cut
                parts = [tree.end_mission() for tree in engine.tuning_targets()]
                merged = merge_mission_stats(index, parts)
            else:
                merged, parts = engine.end_mission(), engine.last_mission_breakdown()
            records[name] = merged, list(parts)
        self.agree(records, tune)

    def agree(self, records, tune):
        """Closed window records ``name -> (merged, parts)`` agree group by
        group; with ``tune``, each tuner then observes its part."""
        for name, (_, parts) in records.items() if tune else ():
            with self.direct(name):
                engine = self.systems[name]
                for tuner, tree, part in zip(self.tuners[name], engine.tuning_targets(), parts):
                    tuner.observe_mission(tree, part)
        for group in self.groups():
            members = [name for name in group if name in records]
            assert all(records[name] == records[members[0]] for name in members), members

    @rule(reopen=st.booleans())
    def cut_mission(self, reopen):
        """Open a window on every system, or close them all and tune — then,
        with ``reopen``, open the next. The served pair's is always open:
        cut and reopened at once."""
        if self.in_mission:
            self.close_windows(list(self.systems), tune=True)
            self.systems[REPLAY].begin_mission()
        self.in_mission = not self.in_mission or reopen
        if self.in_mission:
            for name, _ in self.unserved():
                for target in self.driven(name):
                    target.begin_mission()

    @precondition(lambda self: not self.in_mission)
    @rule(ops=MISSION_OPS, chunk_size=st.integers(1, 16))
    def mission(self, ops, chunk_size):
        """One mission through ``MissionRunner`` on every unserved system
        (a reference one runs the chunk-at-a-time loop over its per-op
        references), in chunks small enough that flushes land mid-mission:
        its window records agree group by group, and each tuner observes.
        The served pair take the mission's requests one kind at a time."""
        columns = zip(*ops) if ops else ((),) * 4
        mission = Mission(*(np.array(column, dtype=np.int64) for column in columns))
        requests = list(requests_from_mission(mission, wait=True))
        for kind in (REQ_PUT, REQ_GET, REQ_RANGE):
            self.serve([r for r in requests if r.kind == kind], by_lane=kind == REQ_RANGE)
        records = {}
        for name, engine in self.unserved():
            if name in REFERENCES:
                trees = engine.tuning_targets()
                index = trees[0].stats.windows_closed
                for tree in trees:
                    tree.begin_mission()
                reference_run_chunks(ReferenceCalls(engine), mission, chunk_size)
                parts = [tree.end_mission() for tree in trees]
                records[name] = merge_mission_stats(index, parts), parts
            else:
                merged = MissionRunner(engine, chunk_size).run(mission)
                records[name] = merged, list(engine.last_mission_breakdown())
        self.agree(records, tune=True)
        self.model.update((key, value) for op, key, value, _ in ops if op == OP_UPDATE)

    @precondition(lambda self: not self.in_mission)
    @rule(data=st.data())
    def restore(self, data):
        """``save_engine`` → ``load_engine`` (untraced), ``save_tuner`` →
        ``load_tuner`` per tuner: the restored system stays in its group. The
        served pair go together: a new server serves the checkpoint that cut
        their window (tuning nothing); the twin round-trips in between."""
        name = data.draw(st.sampled_from(sorted(self.systems)))
        served = name in (SERVED, REPLAY)
        if served:
            self.close_windows((SERVED, REPLAY), tune=False)
            self.served_windows += len(self.server.windows)
            self.server.stop()
        for name in (SERVED, REPLAY) if served else (name,):
            path = os.path.join(self.root, f"{name}.snap")
            if name != SERVED:
                save_engine(self.systems[name], path)
                close(self.systems[name])
            self.systems[name] = engine = load_engine(path)
            assert {engine.tracer, *(tree.tracer for tree in engine.tuning_targets())} == {None}
            for i, tuner in enumerate(self.tuners[name]):
                save_tuner(tuner, path)
                self.tuners[name][i] = load_tuner(path)
        if served:
            self.server = serve(self.systems[SERVED]).start()
            self.systems[REPLAY].begin_mission()

    @precondition(lambda self: not self.in_mission)
    @rule(name=st.sampled_from(DURABLE))
    def reopen(self, name):
        """Close → reopen: every acknowledged write, the pinned policy, the
        Bloom budget and — unless replaying a batch that straddled a flush
        flushed again — every level's policy survives."""
        def durable_state(tree):
            return tree.acked_seqno, tree.named_policy(), tree.bits_per_key

        def layout(tree):
            return [(level.policy, level.pending_policy) for level in tree.levels]

        trees = self.systems[name].tuning_targets()
        before = [(durable_state(tree), layout(tree)) for tree in trees]
        close(self.systems[name])
        self.systems[name] = self.build(name)
        self.detached.add(name)
        for tree, (state, levels) in zip(self.systems[name].tuning_targets(), before):
            assert durable_state(tree) == state
            if not tree.telemetry["sstables_written"]:
                assert layout(tree) == levels

    @rule(name=st.sampled_from(DURABLE))
    def crash(self, name):
        """Copy the open store's directories — what a kill -9 leaves — and
        recover the copy: it holds every acknowledged write."""
        trees = self.systems[name].tuning_targets()
        paths = [os.path.join(self.root, f"crash-{i}") for i in range(len(trees))]
        copies = []
        try:
            for tree, path in zip(trees, paths):
                shutil.copytree(tree.data_dir, path)
                copies.append(DurableStore(path))
            recovered = {}
            for copy in copies:
                recovered.update(contents(copy))
            assert recovered == self.model
            assert [c.acked_seqno for c in copies] == [t.acked_seqno for t in trees]
        finally:
            for copy in copies:
                copy.close()
            for path in paths:
                shutil.rmtree(path, ignore_errors=True)

    @rule(data=st.data())
    def toggle_tracer(self, data):
        name = data.draw(st.sampled_from(sorted(self.systems)))
        with self.direct(name):  # a served batch's own span is the server's
            engine = self.systems[name]
            engine.set_tracer(Tracer() if engine.tracer is None else None)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def contents_equal_the_model(self):
        for name, engine in self.systems.items():
            engine.check_invariants()
            assert contents(engine) == self.model, name

    @invariant()
    def counts_agree(self):
        views = [e.view() for n, e in self.systems.items() if n not in self.detached]
        counts = {(v.total_lookups, v.total_updates, v.total_ranges) for v in views}
        assert len(counts) <= 1, counts

    @invariant()
    def groups_are_sim_identical(self):
        for first, *rest in self.groups():
            want = self.observed(first)
            for name in rest:
                assert self.observed(name) == want, (first, name)

    def teardown(self):
        for engine in self.systems.values():
            close(engine)
        shutil.rmtree(self.root, ignore_errors=True)
        if self.server is not None:  # last: it raises if a lane failed
            self.server.stop()


#: Tier-1 examples; the ``deep`` profile (tests/conftest.py) runs ten times as many.
MAX_EXAMPLES = 30

Oracle.TestCase.settings = settings(
    max_examples=(
        settings.default.max_examples
        if settings.get_current_profile_name() == "deep"
        else MAX_EXAMPLES
    ),
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestOracle = Oracle.TestCase


@pytest.mark.parametrize(
    "name, kind, method",
    [
        (name, kind, method)
        for name in ("tree", "sharded-1", "sharded-4", "durable", "durable-4")
        for kind, methods in INVALID.items()
        for method in methods
    ]
    + [(SERVED, case, via) for case, via in OFFERS],
    ids=lambda arg: arg,
)
@pytest.mark.parametrize("loaded", (False, True), ids=("empty", "loaded"))
def test_invalid_input_refused(tmp_path, loaded, name, kind, method):
    """``load``'s refusals enumerated rather than drawn, and on populated
    engines too: every engine kind, empty and holding levels plus a buffered
    memtable, refuses every spoiled batch — the bad entry late, past where a
    partial apply would stop — and every spoiled scalar op, and nothing is
    applied, counted or journaled; a server refuses every bad request."""
    engine = build(name, PROFILES["default"].with_updates(block_cache_pages=16), str(tmp_path))
    try:
        if loaded:
            keys = np.arange(0, 900, 3, dtype=np.int64)
            engine.bulk_load(keys, keys)
            engine.put_batch(keys[::2] + 1, keys[::2])
            engine.delete_batch(keys[::5])
        if name == SERVED:
            with serve(engine) as server:
                before = footprint(engine)
                with pytest.raises(ServeError):
                    offer(server, kind, method)
                assert footprint(engine) == before
            return
        for in_values in (False, True):
            before = footprint(engine)
            args = invalid_args(kind, method, 40, 30 + in_values, in_values)
            with pytest.raises(TreeStateError if method == "bulk_load" and loaded else ValueError):
                getattr(engine, method)(*args)
            assert footprint(engine) == before
    finally:
        close(engine)


@pytest.mark.parametrize("cache_pages", (0, 16))
@pytest.mark.parametrize("bloom_mode", list(BloomMode), ids=lambda mode: mode.name.lower())
def test_rules_reach_every_read_path_state(bloom_mode, cache_pages):
    """A fixed rule sequence reaches each state the read paths branch on —
    an empty run, single-run levels (the zero-copy lookup index), tombstones
    on disk, Bloom false positives, stacked runs — and every system is read
    by ``get`` and ``range_scan`` and checked against the invariants there."""
    machine = Oracle()

    def runs():
        return [run for level in tree.levels for run in level.runs]

    def read(keys):
        machine.get(keys=keys, per_op=False)
        machine.range_scan(ranges=[(lo, 60) for lo in range(-16, 320, 40)], per_op=False)
        machine.contents_equal_the_model()
        machine.counts_agree()
        machine.groups_are_sim_identical()

    try:
        config = PROFILES["default"].with_updates(bloom_mode=bloom_mode, block_cache_pages=cache_pages)
        machine.start(config, False, "leveling")
        tree = machine.systems["tree"]
        machine.set_bits_per_key(bits=2.0)  # false positives on most levels
        # Tombstones flushed into an empty tree are dropped: an empty run.
        machine.delete(keys=list(range(8)), per_op=False)
        assert [run.n_entries for run in runs()] == [0]
        read(list(range(-16, 320, 7)))

        machine.put(items=[(key, key) for key in range(0, 300, 2)], per_op=False)
        machine.delete(keys=list(range(0, 300, 6)), per_op=False)
        assert len(tree.levels) >= 3
        assert all(level.lookup_index().rank is None for level in tree.levels if level.runs)
        assert any((run.values == TOMBSTONE).any() for run in runs())
        pages = tree.cache.hits + tree.cache.misses
        machine.get(keys=list(range(1, 300, 2)), per_op=False)  # keys no run holds
        assert tree.cache.hits + tree.cache.misses > pages  # a false positive read a page
        read(list(range(-16, 320, 7)))

        machine.set_named_policy(policy="tiering", transition=TransitionKind.FLEXIBLE)
        machine.put(items=[(key, -key) for key in range(1, 120, 2)], per_op=False)
        assert max(level.n_runs for level in tree.levels) >= 2
        read(list(range(-16, 320, 3)))
    finally:
        machine.teardown()
