"""Shared AST plumbing for the rule implementations."""

from __future__ import annotations

import ast
from collections.abc import Iterator


def build_import_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to their dotted import origin.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` → ``{"pc": "time.perf_counter"}``.
    Only module-level and nested plain imports are recorded; a name
    re-bound after import simply resolves to its last import origin,
    which is the conservative behaviour the rules want.
    """
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                origin = alias.name if alias.asname else local
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: origin unknowable statically
                continue
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def resolve(node: ast.AST, imports: dict[str, str]) -> str | None:
    """Dotted origin of a Name/Attribute chain, or ``None``.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    under ``import numpy as np``; attribute chains rooted at something
    unresolvable (``self.x``) return ``None``.
    """
    if isinstance(node, ast.Name):
        return imports.get(node.id)
    if isinstance(node, ast.Attribute):
        base = resolve(node.value, imports)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def attr_root(node: ast.AST) -> ast.Name | None:
    """The Name at the root of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node if isinstance(node, ast.Name) else None


def iter_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_function_body(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function's body *excluding* nested function/class bodies
    (those are visited as their own scopes)."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """All parameter names except ``self``/``cls``."""
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return {n for n in names if n not in ("self", "cls")}
