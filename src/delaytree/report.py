"""Rendering: tree serialization (json/dot/text), hourly delay-type
distributions, pattern-frequency tables, and influential-factor summaries.

Every export is a deterministic function of its inputs: node ids are
assigned breadth-first, dict keys have a fixed order, and floats render via
repr so they round-trip exactly.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping, NamedTuple, Optional

from .cart import (
    ClassDistribution, DecisionTree, Leaf, Split, SubsetRule, ThresholdRule, bfs_nodes, information_gain,
    internal_features,
)
from .errors import DataError, UsageError, cut
from .features import CONTINUOUS, FeatureSchema, FeatureSpec
from .ingest import HOUR_MAX, HOUR_MIN, Bridge, Direction, HourlyMeans, Vehicle, _parse_enum, bridges_for, csv_text
from .patterns import DelayCategory4, all_patterns, categorize

TREE_FORMATS = ("json", "dot", "text")
_canonical = json.JSONEncoder(sort_keys=True).encode  # json text with sorted keys, so `true` is not `1`


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
        raise UsageError(f"unknown tree format {cut(repr(format))}; expected one of {TREE_FORMATS}")
    return format


def export_tree(tree: DecisionTree, format: str) -> str:
    """Serialize a tree to the requested format.

    json: flat breadth-first node array (keys: id, kind, rule, gain, n,
    counts, label, children) plus the schema, so import_tree can rebuild
    the exact prediction function. dot: Graphviz digraph, left edge "yes".
    text: indented outline.
    """
    if tree_format(format) == "json":
        return json.dumps(_json_doc(tree), indent=2) + "\n"
    if format == "dot":
        return _to_dot(tree)
    return _to_text(tree)


def _json_doc(tree: DecisionTree) -> dict:
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
    return {
        "vehicle": tree.vehicle.label if tree.vehicle is not None else None,
        "direction": tree.direction.label if tree.direction is not None else None,
        "schema": [
            {"name": s.name, "kind": s.kind, "levels": list(s.levels) if s.levels else None}
            for s in tree.schema
        ],
        "nodes": docs,
    }


def _typed(value, types, what: str):
    """`value` if it is one of `types` (never a bool), else a data error."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise DataError(f"{what} {cut(repr(value))} has the wrong type")
    return value


def _tag(doc: dict, enum_cls, key: str):
    """The member that the tree's `key` tag names, or None if it has none."""
    name = _typed(doc.get(key), (str, type(None)), key)
    try:
        return _parse_enum(enum_cls, name, key) if name else None
    except DataError as exc:  # cut as a whole, as the generic message is
        raise DataError(cut(str(exc))) from None


def import_tree(lines: Iterable[str]) -> DecisionTree:
    """The inverse of export_tree, on json text or its lines (joined: a tree
    is small). The tree is built from the node structure, the rules and the
    leaf counts; the rest is derived as grow_tree derives it (counts and `n`
    as sums, leaf labels as majorities, gains by information_gain). Wrong
    types, bad node kinds, ids reached twice or missing, negative counts,
    rules the schema does not allow, leaf labels that are not a pattern of
    the tree's vehicle, gains that are not positive and any field that
    differs from the export of the tree built are data errors."""
    try:
        try:
            doc = json.loads(lines if isinstance(lines, str) else "".join(lines))
        except (ValueError, RecursionError) as exc:  # ValueError: also an int past 4,300 digits
            raise DataError(str(exc)) from None
        return _tree_of(doc)
    except DataError as exc:
        raise DataError(f"malformed tree json: {exc}") from None


def _tree_of(doc) -> DecisionTree:
    """The tree that the json document `doc` describes (see import_tree); a
    data error, without the "malformed tree json" prefix, if it is none."""
    try:
        schema = FeatureSchema(
            [
                FeatureSpec(s["name"], s["kind"], tuple(s["levels"]) if s["levels"] else None)
                for s in doc["schema"]
            ]
        )
        vehicle = _tag(doc, Vehicle, "vehicle")
        patterns = set(all_patterns(bridges_for(vehicle))) if vehicle else None
        by_id = {node["id"]: node for node in doc["nodes"]}
        # Breadth-first from the root, so every node is listed after its
        # parent; each id may be reached once, which rules out cycles and
        # shared subtrees.
        order = [0]
        reached = {0}
        for node_id in order:
            if node_id not in by_id:
                raise DataError(f"no node has id {cut(repr(node_id))}")
            node = by_id[node_id]
            if node["kind"] not in ("leaf", "split"):
                raise DataError(f"node kind {cut(repr(node['kind']))} is neither leaf nor split")
            if node["kind"] == "split":
                for child in node["children"]:
                    if child in reached:
                        raise DataError(f"node {cut(repr(child))} is reached twice")
                    reached.add(child)
                    order.append(child)
        built: dict = {}
        for node_id in reversed(order):
            node = by_id[node_id]
            if node["kind"] == "leaf":
                counts = {}
                for label, c in _typed(node["counts"], dict, "counts").items():
                    if _typed(c, int, "count") < 0:
                        raise DataError(f"count {cut(repr(c))} is negative")
                    if c:  # grow_tree writes no count of 0 (cart._distribution)
                        counts[label] = c
                dist = ClassDistribution(counts, sum(counts.values()))
                label = dist.majority_label()
                if patterns is not None and label not in patterns:
                    raise DataError(f"leaf label {cut(repr(label))} is not a {vehicle.label} pattern")
                built[node_id] = Leaf(label, dist)
                continue
            left, right = (built.pop(child) for child in node["children"])
            rule_doc = node["rule"]
            feature = _typed(rule_doc["feature"], str, "feature")
            if feature not in schema.names:
                raise DataError(f"rule feature {cut(repr(feature))} is not in the schema")
            kind = schema.spec(feature).kind
            if rule_doc["kind"] != ("threshold" if kind == CONTINUOUS else "subset"):
                raise DataError(f"{cut(repr(rule_doc['kind']))} rule on {kind} feature {cut(repr(feature))}")
            if kind == CONTINUOUS:
                rule = ThresholdRule(feature, _typed(rule_doc["threshold"], (int, float), "threshold"))
                if not math.isfinite(rule.threshold):
                    raise DataError(f"threshold {rule.threshold!r} is not finite")
            else:
                rule = SubsetRule(feature, tuple(rule_doc["left"]), tuple(rule_doc["right"]))
                levels = {(type(v), v) for v in schema.spec(feature).levels}  # so True is not the level 1
                left_set, right_set = ({(type(v), v) for v in side} for side in (rule.left_levels, rule.right_levels))
                if not (left_set and right_set and left_set.isdisjoint(right_set) and left_set | right_set <= levels):
                    raise DataError(f"subset sides {cut(repr(rule_doc['left']))} and {cut(repr(rule_doc['right']))} "
                                    f"are not two nonempty disjoint sets of levels of {cut(repr(feature))}")
            lc, rc = left.distribution, right.distribution
            dist = ClassDistribution({k: lc.counts.get(k, 0) + rc.counts.get(k, 0) for k in lc.counts | rc.counts},
                                     lc.total + rc.total)
            gain = information_gain(dist, lc, rc)
            if not gain > 0:
                raise DataError(f"node {cut(repr(node_id))} splits its counts with a gain of {gain!r}")
            built[node_id] = Split(rule, gain, dist, left, right)

        tree = DecisionTree(built[0], schema, vehicle=vehicle, direction=_tag(doc, Direction, "direction"))
        _same_as_export(doc, _json_doc(tree))
        return tree
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(cut(str(exc))) from None


def _same_as_export(doc: dict, export: dict) -> None:
    """A data error at the first field where the tree json `doc` differs from
    `export`, the json of its tree: nodes children first, then the tags and
    the schema."""
    nodes = doc["nodes"]
    if len(nodes) != len(export["nodes"]):
        raise DataError(f"{len(nodes)} nodes are listed but node 0 reaches {len(export['nodes'])}")
    pairs = [(f"node {i} ", nodes[i], export["nodes"][i]) for i in reversed(range(len(nodes)))]
    for where, stated, derived in pairs + [("", {**doc, "nodes": None}, {**export, "nodes": None})]:
        if _canonical(stated) != _canonical(derived):
            for key in sorted(stated.keys() | derived.keys()):
                was, want = (_canonical(d[key]) if key in d else "absent" for d in (stated, derived))
                if was != want:
                    raise DataError(f"{where}{key} is {cut(was)}, derived {cut(want)}")


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


def hourly_distribution(hours: HourlyMeans, bridge: Bridge, direction: Direction, vehicle: Vehicle) -> dict:
    """Share of each (unmerged) delay category per hour of day of one
    stream, {hour: {DelayCategory4: share}}, computed on the full hourly
    data, before any filtering or merging; hours with no data are absent."""
    tallies: dict[int, dict] = {}
    for hour_start, mean in hours.get((bridge, direction, vehicle), {}).items():
        cat = categorize(mean)
        per_hour = tallies.setdefault(hour_start.hour, {})
        per_hour[cat] = per_hour.get(cat, 0) + 1
    shares = {}
    for hour in sorted(tallies):
        total = sum(tallies[hour].values())
        shares[hour] = {cat: tallies[hour].get(cat, 0) / total for cat in DelayCategory4}
    return shares


def hourly_distribution_csv(shares: dict) -> str:
    return csv_text(
        ["hour"] + [cat.name.lower() for cat in DelayCategory4],
        (
            [hour] + [repr(shares[hour][cat]) if hour in shares else "" for cat in DelayCategory4]
            for hour in range(HOUR_MIN, HOUR_MAX + 1)
        ),
    )


def pattern_frequencies_csv(freqs) -> str:
    return csv_text(["pattern", "count"], freqs)


class FactorSummary(NamedTuple):
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
    return csv_text(
        ["vehicle", "direction", "pattern", "leaf_samples", "influential_factors"],
        (
            [summary.vehicle.label, summary.direction.label, label, count, ";".join(summary.factors)]
            for summary in summaries
            for label, count in summary.patterns
        ),
    )
