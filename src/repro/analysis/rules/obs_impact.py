"""OBS-ZERO-IMPACT: telemetry must not perturb the simulation.

``obs/`` carries a hard bit-identity guarantee (DESIGN.md §12): running
with instrumentation on must leave every simulated observable — clock,
latencies, policies, IO/cache counters, RNG streams — bit-identical to
running with it off. Runtime twin-run tests pin that for the paths they
exercise; this rule reads the package instead and flags the three ways
the guarantee breaks:

* **clock advances** — any ``.advance*(...)`` call;
* **randomness** — any numpy/stdlib RNG use (the tracer's sampling is
  deliberately a deterministic counter, never an RNG draw);
* **observed-object mutation** — assigning/augmenting an attribute of a
  function *parameter* (that is how engines, tuners and servers arrive
  in the collectors), or calling a known state-mutating engine method
  (``put_batch``, ``end_mission``, ``set_policies``, ...) on one.
  Mutating locals the function itself constructed (registries, spans,
  events) is of course fine.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, ModuleInfo, Rule
from repro.analysis.rules.common import (
    attr_root,
    build_import_map,
    iter_functions,
    param_names,
    resolve,
    walk_function_body,
)

#: Engine/tuner methods that mutate simulated state. (`get`/`get_batch`
#: are mutators too — reads charge the SimClock — but plain `get` is
#: omitted: it collides with `dict.get` on parameter payloads.)
MUTATOR_METHODS = frozenset(
    {
        "advance",
        "advance_repeated",
        "begin_mission",
        "bulk_load",
        "delete",
        "delete_batch",
        "end_mission",
        "get_batch",
        "observe_mission",
        "put",
        "put_batch",
        "range_lookup",
        "range_scan_batch",
        "set_named_policy",
        "set_policies",
        "set_policy",
        "warm_start",
    }
)


class ObsZeroImpactRule(Rule):
    name = "OBS-ZERO-IMPACT"
    description = (
        "obs/ may not advance the SimClock, draw randomness, or mutate an "
        "observed engine/tuner/server"
    )
    scopes = ("obs/",)

    def check(self, module: ModuleInfo) -> list[Finding]:
        imports = build_import_map(module.tree)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(module, node, imports))
        for func in iter_functions(module.tree):
            findings.extend(self._check_param_mutation(module, func))
        findings.sort(key=lambda f: (f.line, f.col))
        return findings

    def _check_call(
        self, module: ModuleInfo, node: ast.Call, imports: dict[str, str]
    ) -> list[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr.startswith("advance"):
            return [
                self.finding(
                    module,
                    node,
                    f"`.{func.attr}(...)` call in obs/ advances a clock; "
                    "telemetry must never touch SimClock",
                )
            ]
        origin = resolve(func, imports)
        if origin is not None:
            if origin.startswith("numpy.random") or origin.endswith("default_rng"):
                return [
                    self.finding(
                        module,
                        node,
                        f"RNG use `{origin}` in obs/; sampling decisions must "
                        "be deterministic (counter-based), never random draws",
                    )
                ]
            if origin == "random" or origin.startswith("random."):
                return [
                    self.finding(
                        module,
                        node,
                        f"stdlib RNG `{origin}` in obs/; sampling decisions "
                        "must be deterministic (counter-based)",
                    )
                ]
        return []

    def _check_param_mutation(
        self, module: ModuleInfo, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[Finding]:
        params = param_names(func)
        if not params:
            return []
        findings: list[Finding] = []
        for node in walk_function_body(func):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target] if getattr(node, "value", None) else []
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                root = attr_root(target)
                if root is not None and root.id in params:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"mutation of observed object `{root.id}` in obs/ "
                            f"function `{func.name}`; collectors must be "
                            "read-only over what they observe",
                        )
                    )
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATOR_METHODS:
                    root = attr_root(node.func.value)
                    if root is not None and root.id in params:
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"`.{node.func.attr}(...)` on observed object "
                                f"`{root.id}` mutates simulated state from "
                                "obs/; collectors must be read-only",
                            )
                        )
        return findings
