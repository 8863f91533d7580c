"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _write(root: Path, files: dict) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def test_output_gate_rejects_tampered_artifact(tmp_path):
    _write(tmp_path, {"out/tree.json": "{}\n", "out/observations.csv": "a,b\n1,2\n"})
    artifacts = ["out/tree.json", "out/observations.csv"]
    reference = run.digest_tree(tmp_path, "run")
    assert run.check_outputs([0], artifacts, reference, None) == []
    assert run.check_outputs([0], artifacts, run.digest_tree(tmp_path, "run"), reference) == []

    (tmp_path / "out/observations.csv").write_text("a,b\n1,3\n", encoding="utf-8")
    tampered = run.digest_tree(tmp_path, "run")
    assert run.check_outputs([0], artifacts, tampered, reference) == ["digest mismatch run/out/observations.csv"]

    (tmp_path / "out/tree.json").unlink()
    problems = run.check_outputs([0, 2], artifacts, run.digest_tree(tmp_path, "run"), reference)
    assert "command 2 exited 2" in problems
    assert "missing artifact run/out/tree.json" in problems


def test_tracer_reports_missing_function_as_absent():
    module = types.SimpleNamespace(join_weather=lambda hours, weather: list(zip(hours, weather)))
    tracer = tracing.Tracer()
    assert not tracer.wrap(module, "parse_wait_times", "ingest.parse_wait_times")
    assert tracer.wrap(module, "join_weather", "ingest.join_weather")
    assert module.join_weather([1, 2], [3, 4]) == [(1, 3), (2, 4)]

    metrics, roots = tracing.metrics_from_dumps([json.loads(json.dumps(tracer.dump()))])
    assert tracer.absent == ["ingest.parse_wait_times"]
    assert not any(name.startswith("ingest.parse_wait_times.") for name in metrics)
    assert metrics["ingest.join_weather.s"] > 0
    assert metrics["ingest.self_s"] == metrics["ingest.join_weather.s"] == roots


def test_tracer_self_time_subtracts_children():
    spans = [["cart.grow_tree", 0.0, 10.0, None], ["cart.best_split", 1.0, 4.0, 0], ["ingest.join_weather", 5.0, 7.0, 0]]
    total, self_time, roots = tracing.span_totals(spans)
    assert total["cart.grow_tree"] == 10.0
    assert self_time["cart.grow_tree"] == 5.0
    assert roots == 10.0


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracing.METRICS)
    workloads = json.loads(run.WORKLOADS.read_text(encoding="utf-8"))["workloads"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads)
