"""Spans and counts around calls into delaytree's public functions.

The tracer replaces a function under the name its caller looks it up by
(`delaytree.cli.parse_wait_times`, `delaytree.cart.best_split`, ...), so
nothing under src/ changes. Each call records a span (name, start, end,
parent) in memory; counts are taken from the call's arguments and result
after the span has closed. A function that a later version renames or
removes is reported absent, with every metric derived from it.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# Per-layer metrics in reporting order: (name, unit, better).
METRICS = (
    ("ingest.parse_wait_times.s", "s", "lower"),
    ("ingest.parse_wait_times.rows", "count", "higher"),
    ("ingest.parse_wait_times.calls", "count", "lower"),
    ("ingest.aggregate_hourly.s", "s", "lower"),
    ("ingest.aggregate_hourly.groups", "count", "higher"),
    ("ingest.aggregate_hourly.dropped_window", "count", "lower"),
    ("ingest.join_weather.s", "s", "lower"),
    ("ingest.self_s", "s", "lower"),
    ("features.label_hours.s", "s", "lower"),
    ("features.label_hours.rows", "count", "higher"),
    ("features.self_s", "s", "lower"),
    ("patterns.assemble_rows.s", "s", "lower"),
    ("patterns.assemble_rows.rows", "count", "higher"),
    ("patterns.assemble_rows.skipped_incomplete", "count", "lower"),
    ("patterns.assemble_rows.dropped_all_zero", "count", "lower"),
    ("patterns.write_observations.s", "s", "lower"),
    ("patterns.write_observations.bytes", "bytes", "lower"),
    ("patterns.read_observations.s", "s", "lower"),
    ("patterns.read_observations.calls", "count", "lower"),
    ("patterns.read_observations.rows", "count", "higher"),
    ("patterns.self_s", "s", "lower"),
    ("cart.grow_tree.s", "s", "lower"),
    ("cart.grow_tree.nodes", "count", "lower"),
    ("cart.grow_tree.leaves", "count", "lower"),
    ("cart.grow_tree.depth", "count", "lower"),
    ("cart.best_split.s", "s", "lower"),
    ("cart.best_split.calls", "count", "lower"),
    ("cart.enumerate_splits.categorical.s", "s", "lower"),
    ("cart.enumerate_splits.categorical.candidates", "count", "lower"),
    ("cart.enumerate_splits.continuous.s", "s", "lower"),
    ("cart.enumerate_splits.continuous.candidates", "count", "lower"),
    ("cart.self_s", "s", "lower"),
    ("report.export_tree.s", "s", "lower"),
    ("report.export_tree.bytes", "bytes", "lower"),
    ("report.import_tree.s", "s", "lower"),
    ("report.import_tree.calls", "count", "lower"),
    ("report.hourly_distribution.s", "s", "lower"),
    ("report.self_s", "s", "lower"),
    ("synth.generate.s", "s", "lower"),
    ("synth.generate.rows", "count", "higher"),
    ("synth.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

LAYERS = ("ingest", "features", "patterns", "cart", "report", "synth")

# Counts that combine across calls and processes by max instead of sum.
MAX_COUNTS = frozenset({"cart.grow_tree.depth"})


def _combine(counts: dict, name: str, value) -> None:
    if name in MAX_COUNTS:
        counts[name] = max(counts.get(name, value), value)
    else:
        counts[name] = counts.get(name, 0) + value


class Tracer:
    """Spans and counts of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = {}
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, value) -> None:
        _combine(self.counts, name, value)

    def wrap(self, module, attr: str, prefix: str, count=None, span_name=None) -> bool:
        """Replace `module.attr` by a traced wrapper; False if it is gone.

        `count(tracer, args, kwargs, result)` records counts once the span
        has closed; `span_name(args, kwargs)` picks a span name per call.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(prefix)
            return False

        def traced(*args, **kwargs):
            with self.span(span_name(args, kwargs) if span_name else prefix):
                result = fn(*args, **kwargs)
            if count is not None:
                try:
                    count(self, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, ValueError, IndexError):
                    if prefix not in self.absent:
                        self.absent.append(prefix)
            return result

        setattr(module, attr, traced)
        self.wrapped.append(prefix)
        return True

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "wrapped": self.wrapped, "absent": self.absent}


# --------------------------------------------------------------- counters


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_calls(prefix):
    def count(tracer, args, kwargs, result):
        tracer.add(f"{prefix}.calls", 1)
    return count


def _count_parse_wait_times(tracer, args, kwargs, result):
    tracer.add("ingest.parse_wait_times.calls", 1)
    tracer.add("ingest.parse_wait_times.rows", len(result))


def _count_aggregate_hourly(tracer, args, kwargs, result):
    records = _arg(args, kwargs, 0, "records")
    tracer.add("ingest.aggregate_hourly.groups", len(result))
    tracer.add("ingest.aggregate_hourly.dropped_window", len(records) - sum(hw.sample_count for hw in result))


def _count_label_hours(tracer, args, kwargs, result):
    tracer.add("features.label_hours.rows", len(result))


def _count_assemble_rows(tracer, args, kwargs, result):
    tracer.add("patterns.assemble_rows.rows", len(result.rows))
    tracer.add("patterns.assemble_rows.skipped_incomplete", result.skipped_incomplete)
    tracer.add("patterns.assemble_rows.dropped_all_zero", result.dropped_all_zero)


def _count_write_observations(tracer, args, kwargs, result):
    tracer.add("patterns.write_observations.bytes", len(result.encode("utf-8")))


def _count_read_observations(tracer, args, kwargs, result):
    tracer.add("patterns.read_observations.calls", 1)
    tracer.add("patterns.read_observations.rows", sum(len(ds.rows) for ds in result.values()))


def _count_grow_tree(tracer, args, kwargs, result):
    nodes = leaves = depth = 0
    stack = [(result.root, 0)]
    while stack:
        node, level = stack.pop()
        nodes += 1
        depth = max(depth, level)
        if hasattr(node, "left"):
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
        else:
            leaves += 1
    tracer.add("cart.grow_tree.nodes", nodes)
    tracer.add("cart.grow_tree.leaves", leaves)
    tracer.add("cart.grow_tree.depth", depth)


def _split_kind(args, kwargs) -> str:
    feature = _arg(args, kwargs, 1, "feature")
    schema = _arg(args, kwargs, 2, "schema")
    return "continuous" if schema.spec(feature).kind == "continuous" else "categorical"


def _span_enumerate_splits(args, kwargs) -> str:
    return f"cart.enumerate_splits.{_split_kind(args, kwargs)}"


def _count_enumerate_splits(tracer, args, kwargs, result):
    tracer.add(f"cart.enumerate_splits.{_split_kind(args, kwargs)}.candidates", len(result))


def _count_export_tree(tracer, args, kwargs, result):
    tracer.add("report.export_tree.bytes", len(result.encode("utf-8")))


def _count_generate(tracer, args, kwargs, result):
    with open(result.wait_times, encoding="utf-8") as fh:
        tracer.add("synth.generate.rows", sum(1 for _ in fh) - 1)


# (module, attribute, metric prefix, counter, span namer). The module is
# the one whose namespace the caller looks the function up in.
RUN_WRAPS = (
    ("delaytree.cli", "parse_wait_times", "ingest.parse_wait_times", _count_parse_wait_times, None),
    ("delaytree.cli", "aggregate_hourly", "ingest.aggregate_hourly", _count_aggregate_hourly, None),
    ("delaytree.cli", "join_weather", "ingest.join_weather", None, None),
    ("delaytree.cli", "label_hours", "features.label_hours", _count_label_hours, None),
    ("delaytree.cli", "assemble_rows", "patterns.assemble_rows", _count_assemble_rows, None),
    ("delaytree.cli", "write_observations", "patterns.write_observations", _count_write_observations, None),
    ("delaytree.cli", "read_observations", "patterns.read_observations", _count_read_observations, None),
    ("delaytree.cart", "grow_tree", "cart.grow_tree", _count_grow_tree, None),
    ("delaytree.cart", "best_split", "cart.best_split", _count_calls("cart.best_split"), None),
    ("delaytree.cart", "enumerate_splits", "cart.enumerate_splits", _count_enumerate_splits, _span_enumerate_splits),
    ("delaytree.report", "export_tree", "report.export_tree", _count_export_tree, None),
    ("delaytree.report", "import_tree", "report.import_tree", _count_calls("report.import_tree"), None),
    ("delaytree.report", "hourly_distribution", "report.hourly_distribution", None, None),
)
SETUP_WRAPS = (
    ("delaytree.synth", "generate", "synth.generate", _count_generate, None),
)


def install(tracer: Tracer, wraps) -> None:
    for module_name, attr, prefix, count, span_name in wraps:
        tracer.wrap(importlib.import_module(module_name), attr, prefix, count, span_name)


# ------------------------------------------------------------- reduction


def span_totals(spans) -> tuple[dict, dict, float]:
    """Per span name: summed duration and summed self time (duration minus
    the part its direct children cover); plus the summed root-span time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    roots = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        if parent is None:
            roots += end - start
    return total, self_time, roots


def metrics_from_dumps(dumps) -> tuple[dict, float]:
    """Combine the dumps of one traced workload run into per-layer metrics.

    Returns the metrics of every wrapped function and its layer (a wrapped
    function that was never called reads 0), and the summed time of the
    root spans, which the caller needs for cli.self_s.
    """
    spans_total: dict[str, float] = {}
    spans_self: dict[str, float] = {}
    counts: dict[str, float] = {}
    wrapped: set[str] = set()
    absent: set[str] = set()
    roots = 0.0
    for dump in dumps:
        total, self_time, root_time = span_totals(dump["spans"])
        roots += root_time
        for name, value in total.items():
            spans_total[name] = spans_total.get(name, 0.0) + value
        for name, value in self_time.items():
            spans_self[name] = spans_self.get(name, 0.0) + value
        for name, value in dump["counts"].items():
            _combine(counts, name, value)
        wrapped.update(dump["wrapped"])
        absent.update(dump["absent"])
    wrapped -= absent

    metrics: dict[str, float] = {}
    if "cli.import" in spans_total:
        metrics["cli.import_s"] = spans_total["cli.import"]
    for name, _unit, _better in METRICS:
        layer = name.split(".", 1)[0]
        if name == f"{layer}.self_s" and layer in LAYERS:
            if any(prefix.startswith(f"{layer}.") for prefix in wrapped):
                metrics[name] = sum(v for span, v in spans_self.items() if span.startswith(f"{layer}."))
            continue
        prefix = next((p for p in wrapped if name.startswith(f"{p}.")), None)
        if prefix is None:
            continue
        if name.endswith(".s"):
            metrics[name] = spans_total.get(name[: -len(".s")], 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    return metrics, roots
