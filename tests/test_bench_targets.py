"""Every function the benchmark's tracer wraps still exists under the name
it wraps, so a rename in the program fails here and not only in a traced
benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


@pytest.mark.parametrize("target", [target for target, _, _ in spans.TARGETS])
def test_trace_target_resolves_to_a_callable(target):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    assert Path(module.__file__).parent.name == "diver"
    owner = module
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
