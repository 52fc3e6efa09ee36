"""The benchmark's tracer (perfbench/spans.py) wraps functions by module attribute.

Some of those names have no caller left in src (potential.yosida_eval,
noise.resolvent, grid.norms); this test keeps a cleanup from deleting one
and breaking `perfbench/run.py --trace 1`.  The dead-code guard allows those names and
no other top-level definition (a function, a class or a module-level
assignment) that src never reads.
"""

import ast
import runpy
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
# run_path compiles the source without writing bytecode beside it; nothing is installed
TARGETS = [(module, attr) for module, attr, _ in runpy.run_path(str(SPANS))["TARGETS"]]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m.__name__}.{a}" for m, a in TARGETS])
def test_traced_name_exists_and_is_callable(module, attr):
    assert callable(getattr(module, attr, None))


def _names_used(node) -> Counter:
    """How often each identifier is read in node's subtree, as a name, an attribute or an imported name."""
    used = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            used[n.attr] += 1
        elif isinstance(n, ast.alias):
            used[n.name] += 1
    return used


def _defined_names(node) -> list[str]:
    """The names a top-level statement defines: a function's or a class's, or each name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def test_every_top_level_definition_is_used():
    # cli.default_config is the scripts' entry point; the tracer's names are kept for the benchmark
    allowed = {("cli", "default_config")} | {(m.__name__.rsplit(".", 1)[-1], a) for m, a in TARGETS}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "logac").glob("*.py"))}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined_names(node)
        if used[name] == _names_used(node)[name]  # no read outside its own definition
        and (module, name) not in allowed
    ]
    assert unused == []
