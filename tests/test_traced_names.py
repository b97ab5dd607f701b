"""The benchmark's traced run (perfbench/tracing.py) wraps every function
its LAYERS table names and crashes on a name that no longer exists. This
reads that table without importing the benchmark as a package, and checks
that each name still resolves in its ovml module.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module() -> types.ModuleType:
    # exec the source instead of importing it, so no bytecode is written next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("span", _tracing_module().SPAN_NAMES)
def test_traced_name_resolves(span):
    mod_name, attr_path = span.split(".", 1)
    target = importlib.import_module(f"ovml.{mod_name}")
    for attr in attr_path.split("."):
        assert hasattr(target, attr), f"{span}: ovml.{mod_name} has no {attr_path}"
        target = getattr(target, attr)
    assert callable(target), span
