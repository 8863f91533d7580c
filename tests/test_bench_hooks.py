"""The benchmark's tracer wraps delaytree functions by name; a rename or
removal would silently make its per-layer metrics absent."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
HOOKS = [(module, attr) for module, attr, *_ in _tracer.RUN_WRAPS + _tracer.SETUP_WRAPS]
HOOKS.append(("delaytree.cli", "parse_rule"))  # perfbench/run.py builds its corpora with it


@pytest.mark.parametrize("module, attr", HOOKS)
def test_benchmark_hook_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
