"""Shared test builders: canned feature vectors, hourly-means tables,
random training sets for oracle-equivalence checks, the engineered
stopping-rule datasets, and the brute-force split-search oracle the learner
is checked against.

Everything here is deterministic given its seed; no use of hash(), whose
salt changes per process.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from datetime import datetime
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from delaytree import cart
from delaytree.cart import TrainingSet
from delaytree.errors import DataError, UsageError, cut
from delaytree.features import (
    CATEGORICAL,
    CONTINUOUS,
    FEATURE_SCHEMA,
    FeatureSchema,
    FeatureSpec,
    FeatureVector,
    hour_calendar,
)
from delaytree.ingest import (
    HOUR_MAX, HOUR_MIN, WAIT_TIMES_HEADER, Bridge, Direction, RawWaitTimeRecord, Vehicle, _parse_enum, _parse_float,
    _parse_timestamp, _window_hour, bridges_for, csv_rows, fromisoformat, number,
)
from delaytree.patterns import _PARTS, OBSERVATIONS_HEADER, PatternDataset, PatternRow, pattern_of

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


def hourly_table(entries) -> dict:
    """The hourly-means table, stream (bridge, direction, vehicle) -> hour ->
    mean with each stream's hours ascending, of (hour, bridge, direction,
    vehicle, mean) tuples given in any order."""
    table: dict = {}
    for hour, bridge, direction, vehicle, mean in sorted(entries, key=lambda e: e[0]):
        table.setdefault((bridge, direction, vehicle), {})[hour] = mean
    return table


def hourly_keys(table: dict) -> set:
    """The (stream, hour) keys of an hourly-means table."""
    return {(stream, hour) for stream, series in table.items() for hour in series}


def _bucket(value, n: int) -> int:
    """Deterministic stand-in for hash(): stable across processes."""
    return sum(str(value).encode()) % n


def random_training_set(
    seed: int,
    max_rows: int = 200,
    max_features: int = 4,
    max_levels: int = 6,
    distinct_continuous: int = 10,
    min_levels: int = 2,
    n_classes: tuple = (2, 4),
) -> TrainingSet:
    """A random mixed-feature dataset whose labels partially follow one
    anchor feature, so grown trees have real structure to verify.

    Categorical features get min_levels..max_levels (at most 12) levels;
    the class count is drawn from the inclusive range n_classes."""
    rng = random.Random(seed)
    n_features = rng.randint(1, max_features)
    specs = []
    for i in range(n_features):
        if rng.random() < 0.5:
            specs.append(FeatureSpec(f"f{i}", CONTINUOUS))
        else:
            k = rng.randint(min_levels, max_levels)
            specs.append(FeatureSpec(f"f{i}", CATEGORICAL, tuple("abcdefghijkl"[:k])))
    schema = FeatureSchema(specs)
    classes = [f"c{j}" for j in range(rng.randint(*n_classes))]
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


def alternating_chain_set(n: int = 3000) -> TrainingSet:
    """One continuous feature x = 0..n-1 with labels alternating A/B. Grown
    with min_samples=1 and min_gain=0, every split peels a single row off
    one end, so the tree is n - 1 splits deep."""
    schema = FeatureSchema([FeatureSpec("x", CONTINUOUS)])
    return TrainingSet(schema, [({"x": float(i)}, "AB"[i % 2]) for i in range(n)])


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


def read_observations_row_by_row(lines: Iterable[str]) -> dict:
    """Reference for patterns.read_observations: the reader as it was before
    it parsed each hour text and each tuple of feature texts once. Every row
    is parsed and checked on its own and gets its own FeatureVector; the
    checks, their order and their messages are the ones read_observations
    must keep."""
    datasets: dict = {}
    first_lines: dict = {}
    for line, row in csv_rows(lines, OBSERVATIONS_HEADER):
        try:
            hour_start = fromisoformat(datetime, row[0])
            direction = _parse_enum(Direction, row[1], "direction", line)
            vehicle = _parse_enum(Vehicle, row[2], "vehicle", line)
            bridges = bridges_for(vehicle)
            wait_cols = dict(zip(Bridge, row[3:6]))
            waits = tuple(number(float, wait_cols[b]) for b in bridges)
        except ValueError as exc:
            raise DataError(f"bad observation row: {cut(str(exc))}", line=line) from None
        if Bridge.RB not in bridges and wait_cols[Bridge.RB] != "":
            raise DataError(f"wait_rb {cut(repr(wait_cols[Bridge.RB]))} of a commercial row is not blank", line=line)
        if hour_start.tzinfo is not None or _window_hour(hour_start) != hour_start:
            raise DataError(f"hour_start {row[0]!r} is not a naive whole hour in {HOUR_MIN}..{HOUR_MAX}", line=line)
        pattern = row[6]
        parts = pattern.split("-")
        for part in parts:
            if part not in _PARTS:
                raise DataError(f"pattern {cut(repr(pattern))} has unknown part {cut(repr(part))}", line=line)
        if len(parts) != len(bridges):
            raise DataError(f"pattern {cut(repr(pattern))} does not fit {vehicle.label}", line=line)
        try:
            values = list(map(FeatureSpec.parse, FEATURE_SCHEMA, row[7:]))
        except ValueError as exc:
            raise DataError(str(exc), line=line) from None
        for spec, value, want in zip(FEATURE_SCHEMA, values, hour_calendar(hour_start)):
            if value != want:
                raise DataError(f"{spec.name} {value!r} contradicts hour_start {row[0]!r}: want {want!r}", line=line)
        if not all(map(math.isfinite, waits)):
            raise DataError(f"waits {waits!r} are not all finite numbers", line=line)
        if any(w < 0 for w in waits):
            raise DataError(f"waits {waits!r} include a negative wait", line=line)
        if pattern != pattern_of(waits):
            raise DataError(f"pattern {pattern!r} is not the label of waits {waits!r}", line=line)
        key = (vehicle, direction, hour_start)
        if key in first_lines:
            raise DataError(f"{vehicle.label} {direction.label} {row[0]!r} repeats line {first_lines[key]}", line=line)
        first_lines[key] = line
        if (vehicle, direction) not in datasets:
            datasets[(vehicle, direction)] = PatternDataset([], direction, vehicle)
        datasets[(vehicle, direction)].rows.append(PatternRow(FeatureVector(*values), pattern, hour_start, waits))
    return datasets


def parse_wait_times_row_by_row(lines: Iterable[str]) -> list:
    """Reference for ingest.parse_wait_times and ingest.hourly_waits: the
    wait parser without its memos of timestamp and stream texts. Every row
    is parsed and checked on its own; the checks, their order and their
    messages are the ones the wait parser must keep."""
    records = []
    for line, row in csv_rows(lines, WAIT_TIMES_HEADER):
        ts = _parse_timestamp(row[0], line)
        bridge = _parse_enum(Bridge, row[1], "bridge", line)
        direction = _parse_enum(Direction, row[2], "direction", line)
        vehicle = _parse_enum(Vehicle, row[3], "vehicle_type", line)
        wait = _parse_float(row[4], "wait_minutes", line)
        if not wait >= 0:
            raise DataError(f"negative wait_minutes {cut(repr(row[4]))}", line=line)
        if bridge not in bridges_for(vehicle):
            raise DataError("RB carries no commercial vehicles", line=line)
        records.append(RawWaitTimeRecord(ts, bridge, direction, vehicle, wait))
    return records
