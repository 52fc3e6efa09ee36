"""The benchmark's tracer (perfbench/spans.py) wraps functions by module attribute.

Some of those names have no caller left in src (potential.yosida_eval,
noise.resolvent); this test keeps a cleanup from deleting one and breaking
`perfbench/run.py --trace 1`.
"""

import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# run_path compiles the source without writing bytecode beside it; nothing is installed
TARGETS = [(module, attr) for module, attr, _ in runpy.run_path(str(SPANS))["TARGETS"]]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m.__name__}.{a}" for m, a in TARGETS])
def test_traced_name_exists_and_is_callable(module, attr):
    assert callable(getattr(module, attr, None))
