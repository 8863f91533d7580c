"""The benchmark's tracer wraps delaytree functions by name; a rename or
removal would silently make its per-layer metrics absent."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


_WEEK_CFG = """
[pipeline]
out-dir = out

[synth]
start = 2016-09-05
end = 2016-09-11
seed = 7
direction = to_us
vehicle = passenger
base-pb = 5
base-rb = 5
base-lq = 5
jitter = 1.0
"""


def test_traced_commands_give_every_per_layer_metric(tmp_path):
    # perfbench/run.py computes cli.self_s and trace.* itself, and synth.* come from its set-up.
    (tmp_path / "pipe.cfg").write_text(_WEEK_CFG)
    commands = [
        ["pipeline", "--config", "pipe.cfg"],
        ["train", "--data", "out/observations.csv", "--vehicle", "passenger", "--direction", "to_us",
         "--out", "tree.json"],
        ["render", "--tree", "tree.json", "--format", "dot", "--out", "tree.dot"],
    ]
    dumps = []
    for k, args in enumerate(commands):
        spans = tmp_path / f"{k}.json"
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(spans), str(ROOT / "src"),
                        "--", *args], cwd=tmp_path, check=True)
        dumps.append(json.loads(spans.read_text(encoding="utf-8")))
        assert dumps[-1]["absent"] == [], args[0]
    metrics, _ = _tracer.metrics_from_dumps(dumps)
    declared = {metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    wanted = {name for name in declared - {"cli.self_s", "trace.wall_s", "trace.overhead_s"}
              if not name.startswith("synth.")}
    assert sorted(wanted - metrics.keys()) == []
