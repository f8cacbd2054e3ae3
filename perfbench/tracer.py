"""Outside-in span tracer: benchmark-side wrappers around public methods.

Nothing under ``src/`` is edited or instrumented. :meth:`SpanTracer.install`
replaces the public methods listed in :data:`TARGETS` by timing wrappers
for the length of the traced pass and :meth:`SpanTracer.uninstall` puts
the originals back. A span is ``(id, name, t_start, t_end, parent, thread,
segment, n)``: ``parent`` is the span open on the same thread when this
one started (``-1`` for a thread's root spans), ``n`` the batch size for
``*_batch`` calls. Spans are kept in memory and written out when the run
ends. A span's *self time* is its duration minus its children's.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

#: (module, class or None for a module-level function, attribute, span
#: name, index of the positional argument whose length is the batch size).
TARGETS: List[Tuple[str, Optional[str], str, str, Optional[int]]] = [
    ("repro.core.ruskey", "RusKey", "run_mission", "core.run_mission", None),
    ("repro.core.missions", "MissionRunner", "run", "core.runner", None),
    ("repro.core.lerp", "Lerp", "observe_mission", "core.tuner_step", None),
    ("repro.rl.ddpg", "DDPGAgent", "update", "rl.update", None),
    ("repro.rl.dqn", "DQNAgent", "update", "rl.update", None),
    ("repro.lsm.tree", "LSMTree", "put_batch", "lsm.put_batch", 1),
    ("repro.lsm.tree", "LSMTree", "get_batch", "lsm.get_batch", 1),
    ("repro.lsm.tree", "LSMTree", "range_scan_batch", "lsm.range_scan_batch", 1),
    ("repro.lsm.tree", "LSMTree", "delete", "lsm.delete", None),
    ("repro.lsm.tree", "LSMTree", "end_mission", "lsm.end_mission", None),
    # ShardedStore scans its shards through this function, not through
    # LSMTree.range_scan_batch, so it is the lsm boundary on that path.
    ("repro.engine.sharded", None, "scan_batch", "lsm.range_scan_batch", 1),
    ("repro.engine.sharded", "ShardedStore", "put_batch", "engine.put_batch", 1),
    ("repro.engine.sharded", "ShardedStore", "get_batch", "engine.get_batch", 1),
    (
        "repro.engine.sharded",
        "ShardedStore",
        "range_scan_batch",
        "engine.range_scan_batch",
        1,
    ),
    ("repro.durable.store", "DurableStore", "put_batch", "durable.put_batch", 1),
    ("repro.serve.server", "KVServer", "submit", "serve.submit", None),
]

#: The benchmark's own root span around each traced segment.
ROOT_SPAN = "bench.segment"

Span = Tuple[int, str, float, float, int, str, int, int]


class SpanTracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Index of the measured segment in progress (stamped on spans).
        self.segment = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.thread = threading.current_thread().name
            local.stack = []
            return local.stack

    def wrap(self, original, name: str, size_arg: Optional[int] = None):
        """``original`` with a span of ``name`` recorded around each call."""
        spans = self.spans
        ids = self._ids
        local = self._local
        get_stack = self._stack

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = get_stack()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                n = len(args[size_arg]) if size_arg is not None else 0
                spans.append(
                    (span_id, name, started, ended, parent,
                     local.thread, self.segment, n)
                )

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for module_name, class_name, attr, name, size_arg in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, size_arg))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as out:
            out.writelines(
                '{"id":%d,"name":"%s","t_start":%.9f,"t_end":%.9f,'
                '"parent":%d,"thread":"%s","segment":%d,"n":%d}\n' % span
                for span in self.spans
            )


class SpanTable:
    """Per-name aggregates of a finished trace, in reference-host seconds.

    ``segment_scale[i]`` is the host-calibration factor of segment ``i``;
    every span is scaled by the factor of the segment it ran in."""

    def __init__(self, spans: List[Span], segment_scale: List[float]) -> None:
        n = len(spans)
        ids = np.fromiter((s[0] for s in spans), dtype=np.int64, count=n)
        scale = np.asarray(segment_scale)[
            np.fromiter((s[6] for s in spans), dtype=np.int64, count=n)
        ]
        self.duration = (
            np.fromiter((s[3] - s[2] for s in spans), dtype=float, count=n)
            * scale
        )
        self.parent = np.fromiter((s[4] for s in spans), dtype=np.int64, count=n)
        self.sizes = np.fromiter((s[7] for s in spans), dtype=np.int64, count=n)
        self.names = np.array([s[1] for s in spans], dtype=object)
        self.threads = np.array([s[5] for s in spans], dtype=object)
        # Children's time, summed onto each parent's row.
        row_of = np.full(int(ids.max()) + 1 if n else 0, -1, dtype=np.int64)
        row_of[ids] = np.arange(n)
        children = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(
            children, row_of[self.parent[has_parent]], self.duration[has_parent]
        )
        self.self_time = self.duration - children
        self.count = n

    def _mask(self, name: str) -> np.ndarray:
        return self.names == name

    def total(self, name: str) -> float:
        return float(self.duration[self._mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._mask(name)]

    def mean_size(self, name: str) -> float:
        mask = self._mask(name)
        return float(self.sizes[mask].mean()) if mask.any() else 0.0

    def thread_self_total(self, thread: str) -> float:
        """Self time of every span on ``thread``: with root spans covering
        the thread's timed wall, this sums back to that wall."""
        return float(self.self_time[self.threads == thread].sum())

    def thread_root_total(self, prefix: str) -> float:
        """Busy time of the threads named ``prefix*``: their root spans."""
        on_thread = np.fromiter(
            (t.startswith(prefix) for t in self.threads), dtype=bool,
            count=self.count,
        )
        return float(self.duration[on_thread & (self.parent < 0)].sum())

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer (the span name's prefix)."""
        layers: Dict[str, float] = {}
        for name in set(self.names):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self.self_total(name)
        return layers
