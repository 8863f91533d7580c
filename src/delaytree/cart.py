"""Greedy binary classification-tree induction with Gini information gain.

Continuous features split at midpoints of adjacent distinct values;
categorical features enumerate every canonical level subset. A node stops
splitting when it is pure, holds fewer than min_samples rows, sits at
max_depth, or no candidate reaches min_gain.

Class labels are kept as their rendered string form (delay patterns render
to their hyphenated labels), which makes the lexicographic tie-breaks and
the JSON export unambiguous.

Impurities are evaluated as exact integer ratios rounded once to float:
gini = 1 - sum(counts^2)/N^2 and the gain's closed form over a common
denominator. Equal true gains therefore compare equal, so the tie-break
order (schema feature order, then ascending threshold / lexicographic
subset) is deterministic and matches the brute-force oracle bit for bit.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .features import CONTINUOUS, FeatureSchema


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


def _values_labels(rows, feature: str):
    values = [row[0][feature] for row in rows]
    labels = [str(row[1]) for row in rows]
    return values, labels


def enumerate_splits(rows, feature: str, schema: FeatureSchema) -> list[SplitCandidate]:
    """All binary split candidates for one feature at this node.

    Continuous: one candidate per midpoint between consecutive distinct
    values. Categorical: every canonical nonempty proper subset of the
    levels present (canonical = the subset omits the last declared level
    present, so a partition appears exactly once), in lexicographic order
    of declared level indexes. A constant feature yields no candidates.
    """
    spec = schema.spec(feature)
    values, labels = _values_labels(rows, feature)
    parent = ClassDistribution.from_labels(labels)
    if spec.kind == CONTINUOUS:
        return list(_continuous_candidates(feature, values, labels, parent))
    return list(_subset_candidates(spec, values, labels, parent))


def _continuous_candidates(
    feature: str, values, labels, parent: ClassDistribution
) -> Iterator[SplitCandidate]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    left_counts: Counter = Counter()
    n = len(values)
    for pos, idx in enumerate(order):
        left_counts[labels[idx]] += 1
        if pos + 1 == n:
            break
        here, after = values[idx], values[order[pos + 1]]
        if here == after:
            continue
        threshold = (here + after) / 2.0
        left = ClassDistribution(dict(left_counts), pos + 1)
        right = _remainder(parent, left)
        yield SplitCandidate(
            ThresholdRule(feature, threshold),
            information_gain(parent, left, right),
            left,
            right,
        )


def _subset_candidates(spec, values, labels, parent: ClassDistribution) -> Iterator[SplitCandidate]:
    level_index = {level: i for i, level in enumerate(spec.levels)}
    per_level: dict[int, Counter] = {}
    for value, label in zip(values, labels):
        if value not in level_index:
            raise ValueError(f"value {value!r} is not a declared level of {spec.name!r}")
        per_level.setdefault(level_index[value], Counter())[label] += 1
    present = sorted(per_level)
    if len(present) < 2:
        return
    head = present[:-1]
    subsets = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(head, size) for size in range(1, len(head) + 1)
        )
    )
    for subset in subsets:
        left_counts: Counter = Counter()
        for level_idx in subset:
            left_counts.update(per_level[level_idx])
        left = ClassDistribution(dict(left_counts), sum(left_counts.values()))
        right = _remainder(parent, left)
        left_levels = tuple(spec.levels[i] for i in subset)
        right_levels = tuple(
            spec.levels[i] for i in present if i not in subset
        )
        yield SplitCandidate(
            SubsetRule(spec.name, left_levels, right_levels),
            information_gain(parent, left, right),
            left,
            right,
        )


def _remainder(parent: ClassDistribution, left: ClassDistribution) -> ClassDistribution:
    counts = {}
    for label, count in parent.counts.items():
        rest = count - left.counts.get(label, 0)
        if rest:
            counts[label] = rest
    return ClassDistribution(counts, parent.total - left.total)


def best_split(rows, schema: FeatureSchema) -> Optional[SplitCandidate]:
    """The maximum-gain candidate across all features, or None if no
    candidate has strictly positive gain.

    Candidates are scanned in tie-break order (schema feature order, then
    ascending threshold / lexicographic subset), and only a strictly
    greater gain displaces the incumbent, so the first of any equal-gain
    group wins.
    """
    best: Optional[SplitCandidate] = None
    for spec in schema:
        for cand in enumerate_splits(rows, spec.name, schema):
            if best is None or cand.gain > best.gain:
                best = cand
    if best is None or not best.gain > 0.0:
        return None
    return best


def grow_tree(ds, cfg: TrainConfig = TrainConfig()) -> DecisionTree:
    """Recursively grow a tree on ds (anything with .schema and .rows).

    A node becomes a leaf when it is pure, has fewer than cfg.min_samples
    rows, sits at cfg.max_depth, or its best split gains less than
    cfg.min_gain. Leaf labels are the majority class, ties resolved to the
    lexicographically smallest label.
    """
    rows = list(ds.rows)
    if not rows:
        raise ValueError("cannot grow a tree on an empty dataset")
    schema = ds.schema
    root = _grow(rows, schema, cfg, 0)
    return DecisionTree(
        root,
        schema,
        vehicle=getattr(ds, "vehicle", None),
        direction=getattr(ds, "direction", None),
    )


def _grow(rows, schema: FeatureSchema, cfg: TrainConfig, depth: int) -> TreeNode:
    dist = ClassDistribution.from_labels([str(row[1]) for row in rows])
    if (
        len(dist.counts) == 1
        or len(rows) < cfg.min_samples
        or (cfg.max_depth is not None and depth >= cfg.max_depth)
    ):
        return Leaf(dist.majority_label(), dist)
    cand = best_split(rows, schema)
    if cand is None or cand.gain < cfg.min_gain:
        return Leaf(dist.majority_label(), dist)
    left_rows = []
    right_rows = []
    for row in rows:
        if cand.rule.goes_left(row[0][cand.rule.feature]):
            left_rows.append(row)
        else:
            right_rows.append(row)
    return Split(
        cand.rule,
        cand.gain,
        dist,
        _grow(left_rows, schema, cfg, depth + 1),
        _grow(right_rows, schema, cfg, depth + 1),
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
