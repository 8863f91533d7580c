"""Greedy binary classification-tree induction with Gini information gain.

Continuous features split at midpoints of adjacent distinct values;
categorical features enumerate every canonical level subset. A node stops
splitting when it is pure, holds fewer than min_samples rows, sits at
max_depth, or no candidate reaches min_gain.

Training encodes the rows once, on entry: each class label (as a string,
e.g. a delay pattern label) becomes its index in the sorted distinct
labels, so index order is the lexicographic tie-break order; each
categorical feature becomes a column of declared-level indexes and each
continuous feature a column of floats. A node is a list of row indexes
plus a per-class count list. Thresholds are scanned over the node's rows
sorted by value, with running sums of squared class counts; level subsets
are scanned in lexicographic order, each subset's counts built from its
prefix subset's plus one level's. Rules and class distributions (keyed by
the labels) are built only for the chosen split and for the leaves.

Impurities are evaluated as exact integer ratios rounded once to float:
gini = 1 - sum(counts^2)/N^2 and the gain's closed form over a common
denominator. Equal true gains therefore compare equal, so the tie-break
order (schema feature order, then ascending threshold / lexicographic
subset) is deterministic and matches the brute-force oracle bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .features import CATEGORICAL, CONTINUOUS, FeatureSchema


@dataclass(frozen=True)
class ClassDistribution:
    counts: dict
    total: int

    @classmethod
    def from_labels(cls, labels: Sequence[str]) -> "ClassDistribution":
        return cls(dict(Counter(labels)), len(labels))

    def majority_label(self) -> str:
        if self.total == 0:
            raise ValueError("empty distribution has no majority label")
        return min(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def gini(d: ClassDistribution) -> float:
    """Gini impurity 1 - sum_i p(i)^2, exact to one float rounding."""
    if d.total <= 0:
        raise ValueError("gini of an empty distribution")
    sq = sum(c * c for c in d.counts.values())
    return 1.0 - sq / (d.total * d.total)


def _gain_from_squares(sp: int, sl: int, sr: int, np: int, nl: int, nr: int) -> float:
    # Weighted impurity decrease over the common denominator nl*nr*np^2;
    # the numerator is non-negative by concavity, so the sign is exact.
    num = sl * nr * np + sr * nl * np - sp * nl * nr
    return num / (nl * nr * np * np)


def information_gain(
    parent: ClassDistribution, left: ClassDistribution, right: ClassDistribution
) -> float:
    """Parent impurity minus the sample-weighted child impurities."""
    if left.total + right.total != parent.total:
        raise ValueError("child totals do not sum to the parent's")
    for label in set(parent.counts) | set(left.counts) | set(right.counts):
        if left.counts.get(label, 0) + right.counts.get(label, 0) != parent.counts.get(label, 0):
            raise ValueError(f"child counts for {label!r} do not sum to the parent's")
    if left.total == 0 or right.total == 0:
        raise ValueError("split sides must be nonempty")
    sp = sum(c * c for c in parent.counts.values())
    sl = sum(c * c for c in left.counts.values())
    sr = sum(c * c for c in right.counts.values())
    return _gain_from_squares(sp, sl, sr, parent.total, left.total, right.total)


@dataclass(frozen=True)
class ThresholdRule:
    feature: str
    threshold: float

    def goes_left(self, value) -> bool:
        return value <= self.threshold

    def describe(self) -> str:
        return f"{self.feature} <= {self.threshold!r}"


@dataclass(frozen=True)
class SubsetRule:
    feature: str
    left_levels: tuple
    right_levels: tuple
    _left_set: frozenset = field(init=False, repr=False, compare=False)
    _right_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_left_set", frozenset(self.left_levels))
        object.__setattr__(self, "_right_set", frozenset(self.right_levels))

    def goes_left(self, value) -> Optional[bool]:
        """True/False for levels seen at the node; None for unseen levels."""
        if value in self._left_set:
            return True
        if value in self._right_set:
            return False
        return None

    def describe(self) -> str:
        levels = ", ".join(str(v) for v in self.left_levels)
        return f"{self.feature} in {{{levels}}}"


SplitRule = Union[ThresholdRule, SubsetRule]


@dataclass(frozen=True)
class SplitCandidate:
    rule: SplitRule
    gain: float
    left: ClassDistribution
    right: ClassDistribution


@dataclass(frozen=True)
class TrainConfig:
    min_samples: int = 100
    min_gain: float = 0.005
    max_depth: Optional[int] = None

    def __post_init__(self):
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.min_gain < 0:
            raise ValueError("min_gain must be >= 0")


@dataclass(frozen=True)
class Leaf:
    label: str
    distribution: ClassDistribution


@dataclass(frozen=True)
class Split:
    rule: SplitRule
    gain: float
    distribution: ClassDistribution
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Split]


@dataclass(frozen=True)
class DecisionTree:
    root: TreeNode
    schema: FeatureSchema
    vehicle: Optional[object] = None
    direction: Optional[object] = None


class TrainingSet(NamedTuple):
    """Minimal dataset shape the learner needs: a schema plus rows whose
    first two items are (features, label). PatternDataset satisfies it."""

    schema: FeatureSchema
    rows: list


class _Encoded(NamedTuple):
    """Rows encoded once for training.

    classes: the distinct labels, sorted; y: each row's index into
    classes; columns: per spec, the rows' declared-level indexes
    (categorical) or floats (continuous).
    """

    specs: tuple
    classes: list
    y: list
    columns: list


def _encode(rows, specs) -> _Encoded:
    specs = tuple(specs)
    labels = [str(row[1]) for row in rows]
    classes = sorted(set(labels))
    code = {label: i for i, label in enumerate(classes)}
    columns = [_encode_column(spec, [row[0][spec.name] for row in rows]) for spec in specs]
    return _Encoded(specs, classes, [code[label] for label in labels], columns)


def _encode_column(spec, values) -> list:
    if spec.kind == CONTINUOUS:
        column = [float(value) for value in values]
        for value in column:
            if not math.isfinite(value):
                raise ValueError(f"value {value!r} of {spec.name!r} is not finite")
        return column
    level_index = {level: i for i, level in enumerate(spec.levels)}
    for value in values:
        if value not in level_index:
            raise ValueError(f"value {value!r} is not a declared level of {spec.name!r}")
    return [level_index[value] for value in values]


def _class_counts(y, idx, k: int) -> list:
    counts = [0] * k
    for i in idx:
        counts[y[i]] += 1
    return counts


def _distribution(classes, counts) -> ClassDistribution:
    return ClassDistribution({classes[c]: n for c, n in enumerate(counts) if n}, sum(counts))


def _threshold_scan(column, y, idx, counts):
    """(gain, threshold, left counts) at every midpoint between consecutive
    distinct values of the node's rows, ascending. The sums of squared
    counts on each side are kept as running totals."""
    order = sorted(idx, key=column.__getitem__)
    values = [column[i] for i in order]
    n = len(order)
    sp = sum(c * c for c in counts)
    left = [0] * len(counts)
    right = list(counts)
    sl, sr = 0, sp
    for nl, c, here, after in zip(range(1, n), [y[i] for i in order], values, values[1:]):
        sl += 2 * left[c] + 1
        left[c] += 1
        right[c] -= 1
        sr -= 2 * right[c] + 1
        if here != after:
            yield _gain_from_squares(sp, sl, sr, n, nl, n - nl), (here + after) / 2.0, left


def _subset_scan(column, y, idx, counts):
    """(gain, level-index subset, left counts) for every canonical subset of
    the levels present at the node, in lexicographic order. A subset's left
    counts are those of its prefix subset[:-1], which sorts earlier, plus
    one level's."""
    k = len(counts)
    per_level: dict[int, list] = {}
    for i in idx:
        level_counts = per_level.get(column[i])
        if level_counts is None:
            level_counts = per_level[column[i]] = [0] * k
        level_counts[y[i]] += 1
    head = sorted(per_level)[:-1]
    subsets = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(head, size) for size in range(1, len(head) + 1)
        )
    )
    n = sum(counts)
    sp = sum(c * c for c in counts)
    sizes = {level: sum(level_counts) for level, level_counts in per_level.items()}
    lefts = {(): ([0] * k, 0)}
    for subset in subsets:
        prefix, nl = lefts[subset[:-1]]
        left = [a + b for a, b in zip(prefix, per_level[subset[-1]])]
        nl += sizes[subset[-1]]
        lefts[subset] = (left, nl)
        sl = sum(c * c for c in left)
        sr = sum((p - c) * (p - c) for p, c in zip(counts, left))
        yield _gain_from_squares(sp, sl, sr, n, nl, n - nl), subset, left


_SCANS = {CONTINUOUS: _threshold_scan, CATEGORICAL: _subset_scan}


def _rule(spec, key, present) -> SplitRule:
    """The rule for a scanned candidate; present: the node's level indexes."""
    if spec.kind == CONTINUOUS:
        return ThresholdRule(spec.name, key)
    return SubsetRule(
        spec.name,
        tuple(spec.levels[i] for i in key),
        tuple(spec.levels[i] for i in present if i not in key),
    )


def enumerate_splits(rows, feature: str, schema: FeatureSchema) -> list[SplitCandidate]:
    """All binary split candidates for one feature at this node.

    Continuous: one candidate per midpoint between consecutive distinct
    values. Categorical: every canonical nonempty proper subset of the
    levels present (canonical = the subset omits the last declared level
    present, so a partition appears exactly once), in lexicographic order
    of declared level indexes. A constant feature yields no candidates.
    """
    spec = schema.spec(feature)
    data = _encode(rows, [spec])
    column = data.columns[0]
    idx = range(len(column))
    counts = _class_counts(data.y, idx, len(data.classes))
    present = sorted(set(column))
    return [
        SplitCandidate(
            _rule(spec, key, present),
            gain,
            _distribution(data.classes, left),
            _distribution(data.classes, [p - c for p, c in zip(counts, left)]),
        )
        for gain, key, left in _SCANS[spec.kind](column, data.y, idx, counts)
    ]


def _best_candidate(data: _Encoded, idx, counts):
    """(gain, feature position, key) of the node's best candidate, or None
    if no candidate has strictly positive gain.

    Candidates are scanned in tie-break order (schema feature order, then
    ascending threshold / lexicographic subset), and only a strictly
    greater gain displaces the incumbent, so the first of any equal-gain
    group wins.
    """
    best = None
    top = 0.0
    for f, spec in enumerate(data.specs):
        for gain, key, _ in _SCANS[spec.kind](data.columns[f], data.y, idx, counts):
            if gain > top:
                top = gain
                best = (gain, f, key)
    return best


def _apply(data: _Encoded, f: int, key, idx):
    """The rule of a scanned candidate and the node's row indexes on its
    left and right side."""
    spec = data.specs[f]
    column = data.columns[f]
    if spec.kind == CONTINUOUS:
        left = [i for i in idx if column[i] <= key]
        right = [i for i in idx if column[i] > key]
        return _rule(spec, key, None), left, right
    chosen = frozenset(key)
    left = [i for i in idx if column[i] in chosen]
    right = [i for i in idx if column[i] not in chosen]
    return _rule(spec, key, sorted({column[i] for i in idx})), left, right


def best_split(rows, schema: FeatureSchema) -> Optional[SplitCandidate]:
    """The maximum-gain candidate across all features, or None if no
    candidate has strictly positive gain; ties go to the first candidate in
    tie-break order (schema feature order, then ascending threshold /
    lexicographic subset)."""
    data = _encode(rows, schema)
    k = len(data.classes)
    idx = range(len(data.y))
    found = _best_candidate(data, idx, _class_counts(data.y, idx, k))
    if found is None:
        return None
    gain, f, key = found
    rule, left, right = _apply(data, f, key, idx)
    return SplitCandidate(
        rule,
        gain,
        _distribution(data.classes, _class_counts(data.y, left, k)),
        _distribution(data.classes, _class_counts(data.y, right, k)),
    )


def grow_tree(ds, cfg: TrainConfig = TrainConfig()) -> DecisionTree:
    """Grow a tree on ds (anything with .schema and .rows).

    A node becomes a leaf when it is pure, has fewer than cfg.min_samples
    rows, sits at cfg.max_depth, or its best split gains less than
    cfg.min_gain. Leaf labels are the majority class, ties resolved to the
    lexicographically smallest label.

    Growth uses an explicit stack, so depth is not bounded by the
    interpreter's recursion limit: a node's children are grown left then
    right, and its Split is built once both are on `done`.
    """
    rows = list(ds.rows)
    if not rows:
        raise ValueError("cannot grow a tree on an empty dataset")
    schema = ds.schema
    data = _encode(rows, schema)
    k = len(data.classes)
    done: list[TreeNode] = []
    # (row indexes, depth) of a node to grow, or (rule, gain, distribution)
    # of a split whose two children are the last two entries of `done`.
    work: list[tuple] = [(list(range(len(rows))), 0)]
    while work:
        item = work.pop()
        if len(item) == 3:
            right = done.pop()
            left = done.pop()
            done.append(Split(*item, left, right))
            continue
        idx, depth = item
        counts = _class_counts(data.y, idx, k)
        dist = _distribution(data.classes, counts)
        found = None
        if (
            len(dist.counts) > 1
            and len(idx) >= cfg.min_samples
            and (cfg.max_depth is None or depth < cfg.max_depth)
        ):
            found = _best_candidate(data, idx, counts)
        if found is None or found[0] < cfg.min_gain:
            done.append(Leaf(dist.majority_label(), dist))
            continue
        gain, f, key = found
        rule, left, right = _apply(data, f, key, idx)
        work.append((rule, gain, dist))
        work.append((right, depth + 1))
        work.append((left, depth + 1))
    return DecisionTree(
        done.pop(),
        schema,
        vehicle=getattr(ds, "vehicle", None),
        direction=getattr(ds, "direction", None),
    )


def predict(tree: DecisionTree, features) -> str:
    """Route a feature vector to a leaf and return its label.

    A categorical value unseen at a subset split goes to the child that
    held more training samples (ties go left).
    """
    node = tree.root
    while isinstance(node, Split):
        side = node.rule.goes_left(features[node.rule.feature])
        if side is None:
            side = node.left.distribution.total >= node.right.distribution.total
        node = node.left if side else node.right
    return node.label


def bfs_nodes(root: TreeNode) -> list[TreeNode]:
    """Every node under root, breadth-first, left child before right."""
    nodes = [root]
    for node in nodes:
        if isinstance(node, Split):
            nodes.append(node.left)
            nodes.append(node.right)
    return nodes


def internal_features(tree: DecisionTree) -> list[str]:
    """Distinct split features in breadth-first first-appearance order."""
    return list(dict.fromkeys(node.rule.feature for node in bfs_nodes(tree.root) if isinstance(node, Split)))
