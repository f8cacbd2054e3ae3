"""Static-analysis subsystem: AST rules enforcing the repo's invariants.

The reproduction rests on a handful of load-bearing contracts that runtime
tests can only catch when a twin run happens to exercise the offending
path:

* **SIM-PURITY** — :class:`~repro.storage.clock.SimClock` is the sole time
  source on simulated paths (``lsm/``, ``storage/``, ``cost/``, ``core/``,
  ``engine/``); host wall-clock is telemetry-only and must come from the
  profiler's sanctioned timer (DESIGN.md §2, §10).
* **OBS-ZERO-IMPACT** — nothing in ``obs/`` may advance the clock, draw
  randomness, or mutate an observed engine (DESIGN.md §12).
* **LOCK-ORDER** — multi-lane lock acquisition in ``serve/`` goes through
  :func:`repro.serve.locks.ordered_lane_locks`, never ad-hoc nested
  acquisition (DESIGN.md §7).
* **DURABLE-FSYNC** — file publishes in ``durable/``/``persist/`` go
  through :mod:`repro.durable.atomio` (tmp → fsync → rename → dir fsync);
  bare rename/un-fsynced writes are flagged (DESIGN.md §13).

This package is the linter that reads the code instead: a small rule
engine (:mod:`repro.analysis.core`), the four rules above
(:mod:`repro.analysis.rules`), justified-pragma suppression, and text /
JSON reporters behind a ``python -m repro.analysis`` CLI that exits
non-zero on any unsuppressed finding. CI runs it next to ruff
(DESIGN.md §14).
"""

from repro.analysis.core import Analyzer, AnalysisReport, Finding, ModuleInfo, Rule
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import ALL_RULES, get_rules

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Analyzer",
    "Finding",
    "ModuleInfo",
    "Rule",
    "get_rules",
    "render_json",
    "render_text",
]
