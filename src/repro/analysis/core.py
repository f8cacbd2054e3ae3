"""Rule engine for the invariant linter.

The moving parts:

* :class:`ModuleInfo` — one parsed source file: its AST, raw lines, and
  the ``# repro: allow[RULE]`` pragmas found in it.
* :class:`Rule` — base class; a rule declares which package-relative
  path prefixes it applies to (``scopes``) and yields raw findings from
  one module's AST.
* :class:`Analyzer` — walks a package tree, runs every rule over every
  in-scope module, then applies the one suppression layer (inline pragmas).

Suppression policy (DESIGN.md §14): a finding may be silenced only by an
inline pragma **with a justification** on (or immediately above) the
offending line::

    t0 = time.perf_counter()  # repro: allow[SIM-PURITY] wall telemetry only

A pragma without a justification does not suppress — it is itself reported
under the ``PRAGMA-FORMAT`` pseudo-rule, so "allow" never silently degrades
into "ignore".
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Pseudo-rule reported for malformed suppression pragmas (not a Rule
#: subclass: it is emitted by the analyzer itself and cannot be
#: pragma-suppressed, only fixed).
PRAGMA_FORMAT = "PRAGMA-FORMAT"

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Za-z0-9_\-, ]+)\]\s*(?P<reason>.*)$"
)


@dataclass
class Pragma:
    """One ``# repro: allow[...]`` comment."""

    line: int  #: physical line the comment sits on (1-based)
    target_line: int  #: line whose findings it suppresses
    rules: tuple[str, ...]
    reason: str

    @property
    def valid(self) -> bool:
        return bool(self.reason.strip())


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    module: str  #: package-relative posix path, e.g. ``lsm/tree.py``
    path: str  #: path as given to the analyzer (reporting only)
    line: int
    col: int
    message: str
    snippet: str = ""
    #: ``None`` (live), or ``"pragma"`` once suppressed.
    suppressed_by: str | None = None
    #: justification text of the suppressing pragma.
    justification: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class Rule:
    """Base class for one invariant check.

    Subclasses set :attr:`name` / :attr:`description`, optionally narrow
    :attr:`scopes` (package-relative path prefixes; ``()`` means every
    module) and :attr:`exclude` (exact package-relative paths that are
    structurally allowlisted — e.g. the helper module a rule funnels
    callers into), and implement :meth:`check`.
    """

    name: str = ""
    description: str = ""
    scopes: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def applies_to(self, module_rel: str) -> bool:
        if module_rel in self.exclude:
            return False
        if not self.scopes:
            return True
        return any(module_rel.startswith(scope) for scope in self.scopes)

    def check(self, module: ModuleInfo) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.name,
            module=module.rel,
            path=module.path,
            line=line,
            col=col,
            message=message,
            snippet=module.line(line),
        )


class ModuleInfo:
    """One parsed module plus its pragma map."""

    def __init__(self, path: str, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel.replace(os.sep, "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.pragmas = self._scan_pragmas()

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _scan_pragmas(self) -> list[Pragma]:
        pragmas: list[Pragma] = []
        for i, text in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            rules = tuple(
                part.strip() for part in match.group("rules").split(",") if part.strip()
            )
            reason = match.group("reason").strip().lstrip("-—:").strip()
            stripped = text.strip()
            if stripped.startswith("#"):
                # Standalone comment line: applies to the next non-blank,
                # non-comment line.
                target = i + 1
                while target <= len(self.lines):
                    nxt = self.lines[target - 1].strip()
                    if nxt and not nxt.startswith("#"):
                        break
                    target += 1
            else:
                target = i
            pragmas.append(Pragma(line=i, target_line=target, rules=rules, reason=reason))
        return pragmas

    def pragma_for(self, rule: str, line: int) -> Pragma | None:
        """The valid pragma suppressing ``rule`` on ``line``, if any."""
        for pragma in self.pragmas:
            if pragma.target_line != line or not pragma.valid:
                continue
            if rule in pragma.rules or "*" in pragma.rules:
                return pragma
        return None


@dataclass
class AnalysisReport:
    """Outcome of one analyzer run."""

    package_root: str
    rules: list[str]
    files: list[str]
    findings: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def unsuppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed_by is None]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed_by is not None]

    @property
    def clean(self) -> bool:
        return not self.unsuppressed and not self.errors


class Analyzer:
    """Runs a rule set over every ``*.py`` under a package root.

    ``package_root`` is the directory that *is* the ``repro`` package —
    rules scope themselves by path relative to it (``lsm/tree.py``).
    """

    def __init__(self, package_root: str, rules: list[Rule]) -> None:
        if not os.path.isdir(package_root):
            raise ConfigError(f"package root is not a directory: {package_root}")
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate rule names: {names}")
        self.package_root = package_root
        self.rules = rules

    def collect_files(self) -> list[str]:
        found: list[str] = []
        for dirpath, dirnames, filenames in os.walk(self.package_root):
            dirnames[:] = sorted(
                d for d in dirnames if d != "__pycache__" and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    found.append(os.path.join(dirpath, name))
        return found

    def load_module(self, path: str) -> ModuleInfo:
        rel = os.path.relpath(path, self.package_root)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        return ModuleInfo(path=path, rel=rel, source=source)

    def run(self, files: list[str] | None = None) -> AnalysisReport:
        paths = files if files is not None else self.collect_files()
        report = AnalysisReport(
            package_root=self.package_root,
            rules=[rule.name for rule in self.rules],
            files=[os.path.relpath(p, self.package_root) for p in paths],
        )
        for path in paths:
            try:
                module = self.load_module(path)
            except (OSError, SyntaxError) as exc:
                report.errors.append(f"{path}: {exc}")
                continue
            module_findings: list[Finding] = []
            for rule in self.rules:
                if not rule.applies_to(module.rel):
                    continue
                module_findings.extend(rule.check(module))
            for pragma in module.pragmas:
                if not pragma.valid:
                    module_findings.append(
                        Finding(
                            rule=PRAGMA_FORMAT,
                            module=module.rel,
                            path=module.path,
                            line=pragma.line,
                            col=0,
                            message=(
                                "suppression pragma has no justification; write "
                                "`# repro: allow[RULE] <why this is safe>` "
                                "(an unjustified pragma suppresses nothing)"
                            ),
                            snippet=module.line(pragma.line),
                        )
                    )
            self._suppress(module, module_findings)
            report.findings.extend(module_findings)
        report.findings.sort(key=lambda f: (f.module, f.line, f.col, f.rule))
        return report

    def _suppress(self, module: ModuleInfo, findings: list[Finding]) -> None:
        for finding in findings:
            if finding.rule == PRAGMA_FORMAT:
                continue  # fix the pragma; it cannot be pragma'd away
            pragma = module.pragma_for(finding.rule, finding.line)
            if pragma is not None:
                finding.suppressed_by = "pragma"
                finding.justification = pragma.reason
