"""Shared test builders: canned feature vectors, random training sets for
oracle-equivalence checks, the engineered stopping-rule datasets, and the
brute-force split-search oracle the learner is checked against.

Everything here is deterministic given its seed; no use of hash(), whose
salt changes per process.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from delaytree import cart
from delaytree.cart import TrainingSet
from delaytree.errors import UsageError
from delaytree.features import (
    CATEGORICAL,
    CONTINUOUS,
    FEATURE_SCHEMA,
    FeatureSchema,
    FeatureSpec,
    FeatureVector,
)

PATTERN_A = "delay-slight delay-slight delay"
PATTERN_B = "slight delay-slight delay-slight delay"


def make_fv(**overrides) -> FeatureVector:
    base = dict(
        month=9,
        season="Fall",
        hour_interval="Morning",
        weekend=0,
        us_holiday=0,
        canada_holiday=0,
        temperature_f=60.0,
        visibility=10,
        precipitation_in=0.0,
        condition="Clear",
    )
    base.update(overrides)
    return FeatureVector(**base)


def _bucket(value, n: int) -> int:
    """Deterministic stand-in for hash(): stable across processes."""
    return sum(str(value).encode()) % n


def random_training_set(
    seed: int,
    max_rows: int = 200,
    max_features: int = 4,
    max_levels: int = 6,
    distinct_continuous: int = 10,
) -> TrainingSet:
    """A random mixed-feature dataset whose labels partially follow one
    anchor feature, so grown trees have real structure to verify."""
    rng = random.Random(seed)
    n_features = rng.randint(1, max_features)
    specs = []
    for i in range(n_features):
        if rng.random() < 0.5:
            specs.append(FeatureSpec(f"f{i}", CONTINUOUS))
        else:
            k = rng.randint(2, max_levels)
            specs.append(FeatureSpec(f"f{i}", CATEGORICAL, tuple("abcdef"[:k])))
    schema = FeatureSchema(specs)
    classes = [f"c{j}" for j in range(rng.randint(2, 4))]
    anchor = specs[rng.randrange(n_features)]
    noise = rng.uniform(0.1, 0.6)
    rows = []
    for _ in range(rng.randint(20, max_rows)):
        feats = {}
        for spec in specs:
            if spec.kind == CONTINUOUS:
                feats[spec.name] = float(rng.randint(0, distinct_continuous - 1))
            else:
                feats[spec.name] = rng.choice(spec.levels)
        if rng.random() < noise:
            label = rng.choice(classes)
        else:
            label = classes[_bucket(feats[anchor.name], len(classes))]
        rows.append((feats, label))
    return TrainingSet(schema, rows)


def weekend_split_set(left_counts: dict, right_counts: dict) -> TrainingSet:
    """Full-schema dataset where only `weekend` varies: weekend=0 rows get
    left_counts labels, weekend=1 rows right_counts. The single available
    split therefore has an exactly computable gain."""
    rows = []
    for weekend, counts in ((0, left_counts), (1, right_counts)):
        for label in sorted(counts):
            rows.extend((make_fv(weekend=weekend), label) for _ in range(counts[label]))
    return TrainingSet(FEATURE_SCHEMA, rows)


def exact_binary_gain(left_counts: dict, right_counts: dict) -> Fraction:
    """Direct rational evaluation of the split gain for weekend_split_set."""

    def gini_fraction(counts: dict) -> Fraction:
        n = sum(counts.values())
        return 1 - sum(Fraction(c, n) ** 2 for c in counts.values())

    parent = {
        k: left_counts.get(k, 0) + right_counts.get(k, 0)
        for k in set(left_counts) | set(right_counts)
    }
    nl = sum(left_counts.values())
    nr = sum(right_counts.values())
    n = nl + nr
    return (
        gini_fraction(parent)
        - Fraction(nl, n) * gini_fraction(left_counts)
        - Fraction(nr, n) * gini_fraction(right_counts)
    )


# Engineered stopping-rule fixtures: the lone candidate split's true gain is
# exactly 1/250 = 0.004 and 3/500 = 0.006 respectively.
GAIN_0004_SIDES = ({PATTERN_A: 0, PATTERN_B: 80}, {PATTERN_A: 9, PATTERN_B: 91})
GAIN_0006_SIDES = ({PATTERN_A: 4, PATTERN_B: 96}, {PATTERN_A: 18, PATTERN_B: 102})


BRUTE_FORCE_MAX_ROWS = 10_000


def _gini_fraction(labels: Sequence[str]) -> Fraction:
    n = len(labels)
    return 1 - sum(Fraction(c, n) ** 2 for c in Counter(labels).values())


def brute_force_best_split(rows, schema: FeatureSchema) -> Optional[cart.SplitCandidate]:
    """Reference split search: score every candidate rule by materializing
    its partition and evaluating the impurity formulas in exact rational
    arithmetic, rounding to float only at the end.

    Same candidate space and tie-break order as the learner; serves as the
    independent oracle for cart.best_split.
    """
    if len(rows) > BRUTE_FORCE_MAX_ROWS:
        raise UsageError(f"brute force capped at {BRUTE_FORCE_MAX_ROWS} rows")
    all_labels = [str(row[1]) for row in rows]
    parent_gini = _gini_fraction(all_labels) if rows else None
    n = len(rows)
    best: Optional[cart.SplitCandidate] = None
    for spec in schema:
        for cand in cart.enumerate_splits(rows, spec.name, schema):
            rule = cand.rule
            left_labels = []
            right_labels = []
            for row in rows:
                if rule.goes_left(row[0][rule.feature]):
                    left_labels.append(str(row[1]))
                else:
                    right_labels.append(str(row[1]))
            gain_exact = (
                parent_gini
                - Fraction(len(left_labels), n) * _gini_fraction(left_labels)
                - Fraction(len(right_labels), n) * _gini_fraction(right_labels)
            )
            gain = float(gain_exact)
            if best is None or gain > best.gain:
                best = cart.SplitCandidate(
                    rule,
                    gain,
                    cart.ClassDistribution.from_labels(left_labels),
                    cart.ClassDistribution.from_labels(right_labels),
                )
    if best is None or not best.gain > 0.0:
        return None
    return best
