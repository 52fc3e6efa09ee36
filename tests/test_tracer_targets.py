"""The benchmark's tracer (perfbench/spans.py) wraps functions by module attribute.

Some of those names have no caller left in src (potential.yosida_eval,
noise.resolvent); this test keeps a cleanup from deleting one and breaking
`perfbench/run.py --trace 1`.  The dead-code guard allows those names and
no other top-level definition without a reference in src.
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
        if isinstance(n, ast.Name):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.alias):
            used[n.name] += 1
    return used


def test_every_top_level_definition_is_used():
    # cli.default_config is the scripts' entry point; the tracer's names are kept for the benchmark
    allowed = {("cli", "default_config")} | {(m.__name__.rsplit(".", 1)[-1], a) for m, a in TARGETS}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "logac").glob("*.py"))}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and used[node.name] == _names_used(node)[node.name]  # no reference outside its own definition
        and (module, node.name) not in allowed
    ]
    assert unused == []
