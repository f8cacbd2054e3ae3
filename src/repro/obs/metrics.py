"""Labeled metrics registry with Prometheus-text and JSON exposition.

The registry holds *families* — a metric name plus a fixed label schema —
and each family holds one series per distinct label-value tuple. Three
kinds are supported:

* **counter** — monotone non-negative accumulator (``inc``);
* **gauge** — a set-point (``set`` / ``inc``);
* **histogram** — a :class:`~repro.serve.latency.LatencyHistogram` per
  series (``record`` / ``record_many`` / ``merge``), so a serving lane's
  latency histogram folds straight into its series.

A registry is a *view*: :mod:`repro.obs.collect` builds one from live or
restored engines, tuners and servers whenever it is asked, and renders it.
It is never merged, snapshotted or restored — the state it shows already
round-trips through :mod:`repro.persist` snapshots, and a per-shard value
is a ``shard``-labeled series of one view rather than a second registry.

Everything here is host-side bookkeeping: nothing touches the simulated
clock, the Bloom RNG stream, or any engine counter. The registry observes;
it never participates.
"""

from __future__ import annotations

import json
import math
import re
from threading import Lock
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ObsError
from repro.serve.latency import LatencyHistogram

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Per-family series ceiling. High-cardinality labels (request ids, raw
#: keys) are an observability anti-pattern — the guard turns them into a
#: loud error instead of unbounded memory.
MAX_SERIES = 1024


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_text(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class Counter:
    """Monotone accumulator."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A set-point."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class MetricFamily:
    """One metric name + label schema, holding one series per label tuple."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str],
        factory: Callable[[], object],
        lock: Lock,
    ) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ObsError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_NAME_RE.match(label):
                raise ObsError(f"invalid label name {label!r} on {name!r}")
        if len(set(label_names)) != len(label_names):
            raise ObsError(f"duplicate label names on {name!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._factory = factory
        self._series: Dict[Tuple[str, ...], object] = {}
        self._lock = lock

    def labels(self, **labels: object):
        """The series for one label-value assignment (created on first
        use). The label *names* must match the family schema exactly; the
        values are stringified. Raises :class:`ObsError` once the family
        exceeds ``MAX_SERIES`` distinct label tuples."""
        if set(labels) != set(self.label_names):
            raise ObsError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.label_names)}, got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        return self._child(key)

    def _child(self, key: Tuple[str, ...]):
        series = self._series.get(key)
        if series is not None:
            return series
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if len(self._series) >= MAX_SERIES:
                    raise ObsError(
                        f"metric {self.name!r} exceeded its series budget "
                        f"({MAX_SERIES}); a label is likely carrying "
                        "unbounded values (keys, request ids, ...)"
                    )
                series = self._factory()
                self._series[key] = series
        return series

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """All (label-values, metric) pairs in sorted label order."""
        with self._lock:
            return sorted(self._series.items())


class MetricsRegistry:
    """A named collection of metric families with Prometheus-text / JSON
    exposition."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        factory: Callable[[], object],
    ) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.label_names != tuple(labels):
                    raise ObsError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{list(existing.label_names)}; cannot re-register "
                        f"as {kind} with labels {list(labels)}"
                    )
                return existing
            family = MetricFamily(name, kind, help, labels, factory, self._lock)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family. Idempotent for identical
        shape; an incompatible re-registration raises."""
        return self._family(name, "counter", help, labels, Counter)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._family(name, "gauge", help, labels, Gauge)

    def histogram(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a histogram family: each series is a
        :class:`LatencyHistogram`."""
        return self._family(name, "histogram", help, labels, LatencyHistogram)

    def families(self) -> List[MetricFamily]:
        """All families sorted by metric name."""
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def render(self, fmt: str = "prometheus") -> str:
        """The whole registry in Prometheus text format (default) or as an
        indented JSON document (``fmt="json"``)."""
        if fmt == "prometheus":
            return self._render_prometheus()
        if fmt == "json":
            return json.dumps(self.as_dict(), indent=2, sort_keys=True)
        raise ObsError(f"render format must be prometheus or json, got {fmt!r}")

    def _render_prometheus(self) -> str:
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, series in family.series():
                base = _label_text(family.label_names, key)
                if family.kind in ("counter", "gauge"):
                    lines.append(
                        f"{family.name}{base} {_format_value(series.value)}"
                    )
                    continue
                cumulative = 0
                for index in np.flatnonzero(series.counts):
                    cumulative = int(series.counts[: index + 1].sum())
                    _, hi = series.bucket_edges(int(index))
                    le = _label_text(
                        family.label_names + ("le",),
                        key + (_format_value(hi),),
                    )
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                inf = _label_text(
                    family.label_names + ("le",), key + ("+Inf",)
                )
                lines.append(f"{family.name}_bucket{inf} {series.count}")
                lines.append(
                    f"{family.name}_sum{base} {_format_value(series.sum)}"
                )
                lines.append(f"{family.name}_count{base} {series.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> Dict[str, object]:
        """JSON-able view: one entry per family, one record per series
        (histograms expose exact count/sum/min/max plus p50/p99/p99.9)."""
        families: Dict[str, object] = {}
        for family in self.families():
            records: List[Dict[str, object]] = []
            for key, series in family.series():
                record: Dict[str, object] = {
                    "labels": dict(zip(family.label_names, key)),
                }
                if family.kind in ("counter", "gauge"):
                    record["value"] = series.value
                else:
                    record.update(
                        count=series.count,
                        sum=series.sum,
                        min=series.min_seen if series.count else 0.0,
                        max=series.max_seen,
                        mean=series.mean,
                        **{
                            k.rsplit("_", 1)[0]: v
                            for k, v in series.percentile_summary(
                                (50.0, 99.0, 99.9), unit="s"
                            ).items()
                        },
                    )
                records.append(record)
            families[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": records,
            }
        return {"families": families}
