"""Rendering: tree serialization (json/dot/text), hourly delay-type
distributions, pattern-frequency tables, and influential-factor summaries.

Every export is a deterministic function of its inputs: node ids are
assigned breadth-first, dict keys have a fixed order, and floats render via
repr so they round-trip exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .cart import (
    ClassDistribution,
    DecisionTree,
    Leaf,
    Split,
    SubsetRule,
    ThresholdRule,
    bfs_nodes,
    internal_features,
)
from .errors import DataError, UsageError
from .features import FeatureSchema, FeatureSpec
from .ingest import Bridge, Direction, HourlyWait, Vehicle
from .patterns import DelayCategory4, categorize

TREE_FORMATS = ("json", "dot", "text")


def _rule_doc(rule) -> dict:
    if isinstance(rule, ThresholdRule):
        return {"feature": rule.feature, "kind": "threshold", "threshold": rule.threshold}
    return {
        "feature": rule.feature,
        "kind": "subset",
        "left": list(rule.left_levels),
        "right": list(rule.right_levels),
    }


def tree_format(format: str) -> str:
    """format itself if export_tree supports it; otherwise a UsageError."""
    if format not in TREE_FORMATS:
        raise UsageError(f"unknown tree format {format!r}; expected one of {TREE_FORMATS}")
    return format


def export_tree(tree: DecisionTree, format: str) -> str:
    """Serialize a tree to the requested format.

    json: flat breadth-first node array (keys: id, kind, rule, gain, n,
    counts, label, children) plus the schema, so import_tree can rebuild
    the exact prediction function. dot: Graphviz digraph, left edge "yes".
    text: indented outline.
    """
    if tree_format(format) == "json":
        return _to_json(tree)
    if format == "dot":
        return _to_dot(tree)
    return _to_text(tree)


def _to_json(tree: DecisionTree) -> str:
    nodes = bfs_nodes(tree.root)
    ids = {id(node): i for i, node in enumerate(nodes)}
    docs = []
    for i, node in enumerate(nodes):
        is_leaf = isinstance(node, Leaf)
        docs.append(
            {
                "id": i,
                "kind": "leaf" if is_leaf else "split",
                "rule": None if is_leaf else _rule_doc(node.rule),
                "gain": None if is_leaf else node.gain,
                "n": node.distribution.total,
                "counts": {k: node.distribution.counts[k] for k in sorted(node.distribution.counts)},
                "label": node.label if is_leaf else None,
                "children": None if is_leaf else [ids[id(node.left)], ids[id(node.right)]],
            }
        )
    doc = {
        "vehicle": tree.vehicle.label if tree.vehicle is not None else None,
        "direction": tree.direction.label if tree.direction is not None else None,
        "schema": [
            {"name": s.name, "kind": s.kind, "levels": list(s.levels) if s.levels else None}
            for s in tree.schema
        ],
        "nodes": docs,
    }
    return json.dumps(doc, indent=2) + "\n"


def _typed(value, types, what: str):
    """`value` if it is one of `types` (never a bool), else a data error."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise DataError(f"malformed tree json: {what} {value!r} has the wrong type")
    return value


def _finite(value, what: str):
    """`value` if it is a finite number, else a data error."""
    if not math.isfinite(_typed(value, (int, float), what)):
        raise DataError(f"malformed tree json: {what} {value!r} is not finite")
    return value


def import_tree(text: str) -> DecisionTree:
    """Rebuild a DecisionTree from its json export. A field that the
    exports and reports read and that has the wrong type is a data error,
    as are a node kind other than leaf or split and a non-finite threshold
    or gain."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"malformed tree json: {exc}") from None
    try:
        schema = FeatureSchema(
            [
                FeatureSpec(s["name"], s["kind"], tuple(s["levels"]) if s["levels"] else None)
                for s in doc["schema"]
            ]
        )
        by_id = {node["id"]: node for node in doc["nodes"]}
        # Breadth-first from the root, so every node is listed after its
        # parent; each id may be reached once, which rules out cycles and
        # shared subtrees.
        order = [0]
        reached = {0}
        for node_id in order:
            node = by_id[node_id]
            if node["kind"] not in ("leaf", "split"):
                raise DataError(f"malformed tree json: node kind {node['kind']!r} is neither leaf nor split")
            if node["kind"] == "split":
                for child in node["children"]:
                    if child in reached:
                        raise DataError(f"malformed tree json: node {child!r} is reached twice")
                    if child not in by_id:
                        raise DataError(f"malformed tree json: no node has id {child!r}")
                    reached.add(child)
                    order.append(child)
        built: dict = {}
        for node_id in reversed(order):
            node = by_id[node_id]
            counts = {label: _typed(c, int, "count") for label, c in _typed(node["counts"], dict, "counts").items()}
            dist = ClassDistribution(counts, _typed(node["n"], int, "n"))
            if node["kind"] == "leaf":
                built[node_id] = Leaf(_typed(node["label"], str, "label"), dist)
                continue
            rule_doc = node["rule"]
            feature = _typed(rule_doc["feature"], str, "feature")
            if rule_doc["kind"] == "threshold":
                rule = ThresholdRule(feature, _finite(rule_doc["threshold"], "threshold"))
            else:
                rule = SubsetRule(feature, tuple(rule_doc["left"]), tuple(rule_doc["right"]))
            left, right = node["children"]
            gain = _finite(node["gain"], "gain")
            built[node_id] = Split(rule, gain, dist, built.pop(left), built.pop(right))

        vehicle = _typed(doc.get("vehicle"), (str, type(None)), "vehicle")
        direction = _typed(doc.get("direction"), (str, type(None)), "direction")
        return DecisionTree(
            built[0], schema,
            vehicle=Vehicle[vehicle.upper()] if vehicle else None,
            direction=Direction[direction.upper()] if direction else None,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed tree json: {exc}") from None


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _to_dot(tree: DecisionTree) -> str:
    nodes = bfs_nodes(tree.root)
    ids = {id(node): i for i, node in enumerate(nodes)}
    lines = ["digraph delay_tree {", "  node [shape=box];"]
    for i, node in enumerate(nodes):
        if isinstance(node, Leaf):
            label = f"{node.label}\\nn={node.distribution.total}"
        else:
            label = f"{node.rule.describe()}\\ngain={node.gain!r} n={node.distribution.total}"
        lines.append(f'  n{i} [label="{_dot_escape(label)}"];')
    for i, node in enumerate(nodes):
        if isinstance(node, Split):
            lines.append(f'  n{i} -> n{ids[id(node.left)]} [label="yes"];')
            lines.append(f'  n{i} -> n{ids[id(node.right)]} [label="no"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_text(tree: DecisionTree) -> str:
    lines: list[str] = []
    stack = [(tree.root, 0, "")]
    while stack:
        node, indent, prefix = stack.pop()
        pad = "  " * indent
        if isinstance(node, Leaf):
            lines.append(f"{pad}{prefix}leaf {node.label!r} [n={node.distribution.total}]")
            continue
        lines.append(
            f"{pad}{prefix}split {node.rule.describe()} "
            f"[gain={node.gain!r}, n={node.distribution.total}]"
        )
        stack.append((node.right, indent + 1, "no: "))
        stack.append((node.left, indent + 1, "yes: "))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class HourlyDistribution:
    """Per-hour shares of the four delay categories for one stream."""

    bridge: Bridge
    direction: Direction
    vehicle: Vehicle
    shares: dict  # hour -> {DelayCategory4: proportion}; hours with no data absent


def hourly_distribution(
    hours: list[HourlyWait], bridge: Bridge, direction: Direction, vehicle: Vehicle
) -> HourlyDistribution:
    """Share of each (unmerged) delay category per hour of day, computed on
    the full hourly data, before any filtering or merging."""
    tallies: dict[int, dict] = {}
    for hw in hours:
        if hw.bridge is not bridge or hw.direction is not direction or hw.vehicle is not vehicle:
            continue
        cat = categorize(hw.mean_wait_minutes)
        per_hour = tallies.setdefault(hw.hour_start.hour, {})
        per_hour[cat] = per_hour.get(cat, 0) + 1
    shares = {}
    for hour in sorted(tallies):
        total = sum(tallies[hour].values())
        shares[hour] = {cat: tallies[hour].get(cat, 0) / total for cat in DelayCategory4}
    return HourlyDistribution(bridge, direction, vehicle, shares)


def hourly_distribution_csv(dist: HourlyDistribution) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["hour"] + [cat.name.lower() for cat in DelayCategory4])
    for hour in range(7, 22):
        if hour in dist.shares:
            writer.writerow([hour] + [repr(dist.shares[hour][cat]) for cat in DelayCategory4])
        else:
            writer.writerow([hour, "", "", "", ""])
    return buf.getvalue()


def pattern_frequencies_csv(freqs) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pattern", "count"])
    for pattern, count in freqs:
        writer.writerow([pattern, count])
    return buf.getvalue()


@dataclass(frozen=True)
class FactorSummary:
    vehicle: Optional[Vehicle]
    direction: Optional[Direction]
    patterns: tuple  # (pattern label, leaf sample count), descending count
    factors: tuple  # influential feature names, breadth-first


def factor_summary(trees: Mapping) -> list[FactorSummary]:
    """One summary per (vehicle, direction) tree: leaf patterns with their
    aggregated sample counts, plus the features used at split nodes."""
    summaries = []
    for vehicle, direction in sorted(trees, key=lambda k: (k[0], k[1])):
        tree = trees[(vehicle, direction)]
        counts: dict[str, int] = {}
        for node in bfs_nodes(tree.root):
            if isinstance(node, Leaf):
                counts[node.label] = counts.get(node.label, 0) + node.distribution.total
        patterns = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
        summaries.append(
            FactorSummary(vehicle, direction, patterns, tuple(internal_features(tree)))
        )
    return summaries


def factor_summary_csv(summaries: list[FactorSummary]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["vehicle", "direction", "pattern", "leaf_samples", "influential_factors"])
    for summary in summaries:
        factors = ";".join(summary.factors)
        for label, count in summary.patterns:
            writer.writerow(
                [summary.vehicle.label, summary.direction.label, label, count, factors]
            )
    return buf.getvalue()
