"""Structural invariants that no CI grep and no running test holds
(DESIGN.md §14).

* LOCK-ORDER (``serve/``): multi-lane locking goes through
  ``repro.serve.locks.ordered_lane_locks``. Anywhere else in ``serve/``,
  an explicit ``.acquire()`` / ``.release()``, one ``with`` over two
  locks, or a ``with`` on one lock nested in a ``with`` on another is a
  finding. A lock is a name or attribute called ``lock`` or ending in
  ``_lock``.
* OBS-ZERO-IMPACT's read-only half (``obs/``): a function may not assign
  to, delete from, or call a simulated-state mutator on an object it was
  handed as a parameter (``self`` / ``cls`` aside). The clock and RNG
  halves are CI greps; the twin runs of ``tests/test_obs.py`` and the
  oracle's ``toggle_tracer`` rule check the behaviour itself.

Every bad shape must fire, every good one stay silent, and the real
packages must be clean.
"""

import ast
from pathlib import Path

import pytest

REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Engine / tuner methods that move simulated state.
MUTATORS = frozenset({
    "advance", "advance_repeated", "begin_mission", "bulk_load", "delete",
    "delete_batch", "end_mission", "get_batch", "observe_mission", "put",
    "put_batch", "range_lookup", "range_scan_batch", "run_chunks", "set_named_policy",
    "set_policies", "set_policy", "warm_start",
})


def _lock_text(node):
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return ast.unparse(node) if name == "lock" or name.endswith("_lock") else None


def lock_order_findings(tree):
    """Lines of one ``serve/`` module that take a lock ad hoc."""
    found = []

    def visit(node, held):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("acquire", "release"):
                found.append(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            held = ()  # a nested body does not run under the enclosing lock
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            locks = [t for t in (_lock_text(i.context_expr) for i in node.items) if t]
            if len(locks) > 1 or (locks and any(h not in locks for h in held)):
                found.append(node.lineno)
            held += tuple(locks)
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    visit(tree, ())
    return found


def _root(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def obs_mutation_findings(tree):
    """Lines of one ``obs/`` module that mutate a function parameter."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        every = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
        params = {p.arg for p in every if p} - {"self", "cls"}
        pending = list(func.body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue  # walked as its own scope
            pending.extend(ast.iter_child_nodes(node))
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = [t for t in node.targets if not isinstance(t, ast.Name)]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [] if isinstance(node.target, ast.Name) else [node.target]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                targets = [node.func.value] if node.func.attr in MUTATORS else []
            else:
                continue
            found.extend(node.lineno for t in targets if _root(t) in params)
    return sorted(found)


CHECKS = {"serve": lock_order_findings, "obs": obs_mutation_findings}
#: The ordered helper is the one place that calls ``acquire`` / ``release``.
EXEMPT = {REPRO / "serve" / "locks.py"}

BAD = [  # (id, package, source, findings)
    ("nested-with", "serve", "with a.lock:\n    with b.lock:\n        pass\n", 1),
    ("acquire-release", "serve", "lane.lock.acquire()\nlane.lock.release()\n", 2),
    ("two-locks-one-with", "serve", "with a.lock, b.box_lock:\n    pass\n", 1),
    ("obs-param-assign", "obs",
     "def f(engine):\n    engine.total_gets += 1\n    engine.stats['gets'] = 0\n", 2),
    ("obs-param-mutator-call", "obs",
     "def f(engine, clock):\n    engine.put(1, 2)\n    clock.advance(3.0)\n", 2),
]
GOOD = [  # (id, package, source)
    ("ordered-helper", "serve",
     "with ordered_lane_locks(lanes) as held:\n    pass\nwith lane.lock:\n    pass\n"),
    ("sequential-locks", "serve",
     "with lane.lock:\n    pass\nwith other.lock:\n    pass\n"),
    ("obs-read-only", "obs",
     "def f(engine):\n    return engine.stats_snapshot(), engine.cache_hits\n"),
    ("obs-local-mutation", "obs",
     "def f(engine):\n    acc = {'gets': engine.gets}\n    acc['gets'] += 0\n    return acc\n"),
]


@pytest.mark.parametrize("package,source,n", [b[1:] for b in BAD], ids=[b[0] for b in BAD])
def test_bad_shape_fires(package, source, n):
    assert len(CHECKS[package](ast.parse(source))) == n


@pytest.mark.parametrize("package,source", [g[1:] for g in GOOD], ids=[g[0] for g in GOOD])
def test_good_shape_is_silent(package, source):
    assert CHECKS[package](ast.parse(source)) == []


def test_repo_is_clean():
    found = {
        str(path.relative_to(REPRO)): lines
        for package, check in CHECKS.items()
        for path in sorted((REPRO / package).rglob("*.py"))
        if path not in EXEMPT and (lines := check(ast.parse(path.read_text())))
    }
    assert found == {}
