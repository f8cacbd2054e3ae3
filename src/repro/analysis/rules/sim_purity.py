"""SIM-PURITY: SimClock is the only clock on simulated paths.

Simulated-path packages (``lsm/``, ``storage/``, ``cost/``, ``core/``,
``engine/``) must charge time exclusively through
:class:`~repro.storage.clock.SimClock` and draw randomness only from
seeded, explicitly-threaded generators — otherwise benchmark latencies
stop being deterministic and host-independent (DESIGN.md §2).

There is no sanctioned timer and no excluded file: host wall-clock
telemetry on these paths is a lap on an injected trace span
(``span.lap("stage")``), and the clock behind it is read in ``obs/``. Any
wall-clock read — ``time.time``, ``time.perf_counter``, ``datetime.now``
and friends, or a bare ``perf_counter``-looking call however it was
imported — is flagged, as is any unseeded or global-state RNG
(``np.random.default_rng()`` without a seed, the legacy ``np.random.*``
module functions, the stdlib ``random`` module).
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, ModuleInfo, Rule
from repro.analysis.rules.common import build_import_map, resolve

HOST_CLOCK_ORIGINS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Bare call names that look like wall timers; flagged whatever their
#: import origin (conservative: a local rebinding of ``perf_counter`` is
#: still a wall timer).
SUSPECT_BARE_TIMERS = frozenset(
    {
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "time_ns",
        "clock_gettime",
    }
)

#: Legacy module-level numpy RNG entry points (shared global state).
NUMPY_GLOBAL_RNG = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "normal",
        "uniform",
        "shuffle",
        "permutation",
        "choice",
        "standard_normal",
        "exponential",
        "poisson",
        "zipf",
    }
)


class SimPurityRule(Rule):
    name = "SIM-PURITY"
    description = (
        "simulated paths read time only from SimClock (no host clock) and "
        "randomness only from seeded generators"
    )
    scopes = ("lsm/", "storage/", "cost/", "core/", "engine/")

    def check(self, module: ModuleInfo) -> list[Finding]:
        imports = build_import_map(module.tree)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve(node.func, imports)
            if origin in HOST_CLOCK_ORIGINS:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"wall-clock read `{origin}` on a simulated path; charge "
                        "time through SimClock, or for host telemetry lap the "
                        "injected trace span (`span.lap(\"stage\")`)",
                    )
                )
                continue
            if isinstance(node.func, ast.Name) and node.func.id in SUSPECT_BARE_TIMERS:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"call to `{node.func.id}` looks like a host timer; "
                        "simulated paths must not read the host clock",
                    )
                )
                continue
            findings.extend(self._check_rng(module, node, origin))
        return findings

    def _check_rng(
        self, module: ModuleInfo, node: ast.Call, origin: str | None
    ) -> list[Finding]:
        if origin is None:
            return []
        if origin == "numpy.random.default_rng":
            seeded = bool(node.args or node.keywords)
            if node.args and (
                isinstance(node.args[0], ast.Constant) and node.args[0].value is None
            ):
                seeded = False
            if not seeded:
                return [
                    self.finding(
                        module,
                        node,
                        "unseeded `np.random.default_rng()` on a simulated path; "
                        "every generator must be seeded from the config and "
                        "threaded explicitly",
                    )
                ]
            return []
        if origin.startswith("numpy.random."):
            tail = origin.rsplit(".", 1)[1]
            if tail in NUMPY_GLOBAL_RNG:
                return [
                    self.finding(
                        module,
                        node,
                        f"legacy global-state RNG `{origin}` on a simulated "
                        "path; use a seeded np.random.Generator threaded "
                        "through the config",
                    )
                ]
        if origin == "random" or origin.startswith("random."):
            return [
                self.finding(
                    module,
                    node,
                    f"stdlib `{origin}` RNG on a simulated path; use a seeded "
                    "np.random.Generator threaded through the config",
                )
            ]
        return []
