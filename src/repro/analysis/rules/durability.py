"""DURABLE-FSYNC: publishes are tmp → fsync → rename → dir-fsync.

The durability chain (DESIGN.md §13) acknowledges a write only after its
bytes are fsync'd, and publishes files by writing a sibling temp file,
fsyncing it, and atomically renaming it into place — followed by an
fsync of the containing directory so the *rename itself* survives a
crash. :mod:`repro.durable.atomio` is the helper that owns this
sequence; ``durable/`` and ``persist/`` code must publish through it.

Flagged shapes:

* ``os.rename`` anywhere in scope — not an atomic overwrite on every
  platform; ``os.replace`` (via the helper) is the portable spelling;
* ``os.replace`` in a function that never calls ``os.fsync`` — the
  renamed file's contents (or the rename) may not be durable;
* a ``with open(..., "w"/"wb"/"a"/...)`` block whose function never
  fsyncs — a complete write-and-close with no durability point. The one
  long-lived handle, :class:`repro.durable.log.LogAppender` (every WAL
  segment and manifest file), is not matched; its fsyncs live in its
  ``sync()`` and ``close()``.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, ModuleInfo, Rule
from repro.analysis.rules.common import build_import_map, iter_functions, resolve

WRITE_MODE_CHARS = ("w", "a", "x", "+")


def _open_write_mode(node: ast.Call, imports: dict[str, str]) -> bool:
    origin = resolve(node.func, imports)
    is_open = origin in ("open", "io.open", "os.fdopen") or (
        isinstance(node.func, ast.Name) and node.func.id == "open"
    )
    if not is_open:
        return False
    mode: ast.AST | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in WRITE_MODE_CHARS)
    return True  # dynamic mode: assume it can write


class DurableFsyncRule(Rule):
    name = "DURABLE-FSYNC"
    description = (
        "durable/persist file publishes go through repro.durable.atomio "
        "(tmp -> fsync -> os.replace -> dir fsync); bare renames and "
        "un-fsynced writes are flagged"
    )
    scopes = ("durable/", "persist/")
    #: The atomic-publish helper owns the raw sequence.
    exclude = ("durable/atomio.py",)

    def check(self, module: ModuleInfo) -> list[Finding]:
        imports = build_import_map(module.tree)
        findings: list[Finding] = []
        for func in iter_functions(module.tree):
            findings.extend(self._check_function(module, func, imports))
        findings.sort(key=lambda f: (f.line, f.col))
        return findings

    def _check_function(
        self,
        module: ModuleInfo,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        imports: dict[str, str],
    ) -> list[Finding]:
        calls: list[tuple[str, ast.Call]] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                origin = resolve(node.func, imports) or ""
                calls.append((origin, node))
        has_fsync = any(origin == "os.fsync" for origin, _ in calls)
        findings: list[Finding] = []
        for origin, node in calls:
            if origin == "os.rename":
                findings.append(
                    self.finding(
                        module,
                        node,
                        "`os.rename` in a durable path; publish through "
                        "repro.durable.atomio (os.replace + fsyncs) instead",
                    )
                )
            elif origin == "os.replace" and not has_fsync:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"`os.replace` in `{func.name}` without any `os.fsync`"
                        "; the published bytes (and the rename) may not "
                        "survive a crash — use repro.durable.atomio",
                    )
                )
        if not has_fsync:
            for node in ast.walk(func):
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                for item in node.items:
                    call = item.context_expr
                    if isinstance(call, ast.Call) and _open_write_mode(call, imports):
                        findings.append(
                            self.finding(
                                module,
                                call,
                                f"file written and closed in `{func.name}` "
                                "with no fsync anywhere in the function; "
                                "durable writes must fsync before they are "
                                "relied upon (repro.durable.atomio)",
                            )
                        )
        return findings
