"""SNAPSHOT-COMPLETENESS: ``state_dict()`` accounts for all of ``__init__``.

The bit-exact checkpoint/resume invariant (DESIGN.md §6) dies quietly:
someone adds a mutable attribute in ``__init__``, forgets the snapshot
hooks, and every twin-run test still passes until a resume happens to
cross a window where that attribute mattered. This rule closes the gap
statically: for every class that defines ``state_dict()``, each
attribute assigned to ``self`` in ``__init__`` must be *accounted for* —

* referenced (read or restored) in ``state_dict``, ``load_state_dict``
  or ``from_state_dict`` of the same class, or named there as a string
  key; or
* declared in a class-level ``_snapshot_exempt`` set naming attributes
  that are deliberately not snapshot state (rebuild-from-config caches,
  injected callbacks, host-side profilers), each of which should say why
  in a nearby comment; or
* suppressed with an inline ``# repro: allow[SNAPSHOT-COMPLETENESS]``
  pragma on the assignment.

Dataclass-style classes without an explicit ``__init__`` are out of
static reach and are covered by the runtime round-trip tests instead.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, ModuleInfo, Rule
from repro.analysis.rules.common import self_attr_name, str_constants

SNAPSHOT_METHODS = ("state_dict", "load_state_dict", "from_state_dict")


def _exempt_set(cls: ast.ClassDef) -> set[str]:
    """Parse a class-level ``_snapshot_exempt = {...}`` declaration."""
    for node in cls.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            value = node.value
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id == "_snapshot_exempt"):
            continue
        if value is None:
            continue
        if isinstance(value, ast.Call):  # frozenset({...}) / set([...])
            value = value.args[0] if value.args else None
        if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            return {
                el.value
                for el in value.elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            }
    return set()


def _init_assignments(init: ast.FunctionDef) -> dict[str, int]:
    """``{attr: first assignment line}`` for every ``self.X`` target in
    ``__init__`` (nested functions excluded)."""
    assigned: dict[str, int] = {}

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Tuple):
                inner: list[ast.AST] = list(target.elts)
            else:
                inner = [target]
            for t in inner:
                name = self_attr_name(t)
                if name is not None and name not in assigned:
                    assigned[name] = t.lineno
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in init.body:
        visit(stmt)
    return assigned


def _covered_names(cls: ast.ClassDef) -> set[str]:
    """Attribute names referenced (or named as string keys) inside the
    snapshot methods of ``cls``."""
    covered: set[str] = set()
    for node in cls.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in SNAPSHOT_METHODS:
            continue
        for sub in ast.walk(node):
            name = self_attr_name(sub)
            if name is not None:
                covered.add(name)
        for text in str_constants(node):
            covered.add(text)
            covered.add("_" + text)  # key "now" may restore self._now
    return covered


class SnapshotCompletenessRule(Rule):
    name = "SNAPSHOT-COMPLETENESS"
    description = (
        "a class defining state_dict() must reference, restore, or "
        "explicitly exempt every attribute its __init__ assigns"
    )
    scopes = ()  # snapshot discipline is repo-wide

    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "state_dict" not in methods or "__init__" not in methods:
                continue
            assigned = _init_assignments(methods["__init__"])
            covered = _covered_names(node)
            exempt = _exempt_set(node)
            for attr, lineno in sorted(assigned.items(), key=lambda kv: kv[1]):
                if attr in covered or attr in exempt:
                    continue
                stub = ast.Constant(value=None)
                stub.lineno, stub.col_offset = lineno, 0
                findings.append(
                    self.finding(
                        module,
                        stub,
                        f"`{node.name}.__init__` assigns `self.{attr}` but "
                        "the class's snapshot methods never mention it; "
                        "serialize it, restore it in load_state_dict, or "
                        "declare it in `_snapshot_exempt` with a reason",
                    )
                )
        return findings
