"""Span-based wall-clock tracing for the serve → engine → tree path.

A :class:`Tracer` records *spans* — named wall-clock intervals with
attributes — nested via a per-thread stack, so a serving batch produces a
tree like::

    serve.batch
    └── store.get_batch
        └── lsm.get_batch      stages: memtable, search, bloom, cache

A span that is open can be *lapped*: :meth:`Span.lap` charges the wall
time since the span opened (or since its previous lap) to a named stage,
so a batch entry point attributes its own duration to its pipeline stages
without opening a context manager per stage. The clock is read here, never
at the call site — simulated-path packages hold no host timer at all. A
span built without a ``start`` reads it itself, so a caller outside any
tracer can hold one as a stopwatch and lap it.

Design constraints (the PR 6/7 invariant):

* **Zero simulated impact.** The tracer reads ``time.perf_counter`` only.
  It never charges the :class:`~repro.storage.clock.SimClock`, never
  draws from any RNG (sampling is a deterministic counter, not a coin
  flip), and never touches engine counters — instrumented-on and
  instrumented-off runs are bit-identical in every simulated observable
  (``tests/test_obs.py`` checks this with a twin run).
* **Near-zero cost when absent.** With no tracer attached
  ``open_span`` yields ``None`` and every lap site is one ``is None``
  test.

Threading: the span stack is ``threading.local`` (each serving lane
thread nests its own spans); finished *root* spans land in one bounded,
lock-guarded buffer. Sampling keeps every ``sample_every``-th root span
(children ride along with their root).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import ObsError

#: Default bound on retained root spans (oldest evicted first).
DEFAULT_MAX_SPANS = 4096


class Span:
    """One named wall-clock interval with attributes, child spans and
    per-stage laps."""

    __slots__ = ("name", "start", "end", "attrs", "children", "stages", "_lap_from")

    def __init__(
        self,
        name: str,
        start: Optional[float] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        if start is None:
            start = perf_counter()
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, object] = attrs or {}
        self.children: List[Span] = []
        #: stage name -> ``[seconds, laps]`` accumulated by :meth:`lap`.
        self.stages: Dict[str, List[float]] = {}
        self._lap_from = start

    def lap(self, stage: str) -> float:
        """Charge the wall time since the span opened, or since its
        previous lap, to ``stage``, and return it."""
        now = perf_counter()
        seconds, self._lap_from = now - self._lap_from, now
        cell = self.stages.get(stage)
        if cell is None:
            self.stages[stage] = [seconds, 1]
        else:
            cell[0] += seconds
            cell[1] += 1
        return seconds

    @property
    def duration(self) -> float:
        """Wall seconds the span covered (0.0 while still open)."""
        return max(0.0, self.end - self.start)

    def as_dict(self) -> Dict[str, object]:
        """JSON-able view (durations in seconds, start relative to the
        process ``perf_counter`` epoch)."""
        record: Dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.stages:
            record["stages"] = {
                stage: {"seconds": seconds, "calls": calls}
                for stage, (seconds, calls) in self.stages.items()
            }
        if self.children:
            record["children"] = [c.as_dict() for c in self.children]
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"{len(self.children)} children)"
        )


def stage_totals(spans: Iterable[Span]) -> Dict[str, List[float]]:
    """``{stage: [seconds, laps]}`` summed over every span of the given
    trees (roots and all their descendants)."""
    totals: Dict[str, List[float]] = {}
    pending = list(spans)
    while pending:
        span = pending.pop()
        pending.extend(span.children)
        for stage, (seconds, calls) in span.stages.items():
            cell = totals.setdefault(stage, [0.0, 0])
            cell[0] += seconds
            cell[1] += calls
    return totals


class Tracer:
    """Collects nested spans with deterministic every-Nth root sampling."""

    def __init__(
        self,
        sample_every: int = 1,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        if sample_every < 1:
            raise ObsError(f"sample_every must be >= 1, got {sample_every}")
        if max_spans < 1:
            raise ObsError(f"max_spans must be >= 1, got {max_spans}")
        self.sample_every = int(sample_every)
        self._local = threading.local()
        self._finished: "deque[Span]" = deque(maxlen=int(max_spans))
        self._lock = threading.Lock()
        self._root_seen = 0
        self._root_kept = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a span around the ``with`` body. Nested calls on the same
        thread become children; the root decides (deterministically)
        whether the whole tree is kept."""
        stack = self._stack()
        span = Span(name, perf_counter(), attrs or None)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            if stack:
                stack[-1].children.append(span)
            else:
                self._finish_root(span)

    def _finish_root(self, root: Span) -> None:
        with self._lock:
            index = self._root_seen
            self._root_seen += 1
            if index % self.sample_every == 0:
                self._root_kept += 1
                self._finished.append(root)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @property
    def roots_seen(self) -> int:
        """Root spans opened so far (kept or sampled away)."""
        return self._root_seen

    @property
    def roots_kept(self) -> int:
        """Root spans retained by sampling (before buffer eviction)."""
        return self._root_kept

    def spans(self) -> List[Span]:
        """Retained root spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def reset(self) -> None:
        """Drop retained spans and restart the sampling counter."""
        with self._lock:
            self._finished.clear()
            self._root_seen = 0
            self._root_kept = 0

    def export_jsonl(self, path: str) -> int:
        """Write retained root spans (with their subtrees) as one JSON
        object per line; returns the number of spans written."""
        roots = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for root in roots:
                handle.write(json.dumps(root.as_dict()) + "\n")
        return len(roots)
