"""Shared test builders: canned feature vectors, hourly-means tables,
random training sets for oracle-equivalence checks, the engineered
stopping-rule datasets, the brute-force split-search oracle the learner
is checked against, and the row-by-row references of the fast paths.

Everything here is deterministic given its seed; no use of hash(), whose
salt changes per process.
"""

from __future__ import annotations

import io
import math
import random
from collections import Counter
from datetime import date, datetime, time
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

from delaytree import cart
from delaytree.cart import TrainingSet
from delaytree.errors import DataError, UsageError, cut
from delaytree.features import (
    CATEGORICAL,
    CONTINUOUS,
    FEATURE_SCHEMA,
    HOLIDAYS_HEADER,
    FeatureSchema,
    FeatureSpec,
    FeatureVector,
    build_feature_vector,
    hour_calendar,
)
from delaytree.ingest import (
    HOUR_MAX, HOUR_MIN, WAIT_TIMES_HEADER, WEATHER_HEADER, Bridge, Condition, Direction, RawWaitTimeRecord, Vehicle,
    WeatherRecord, _parse_enum, _parse_float, _parse_timestamp, _window_hour, bridges_for, csv_rows, csv_text,
    fromisoformat, number,
)
from delaytree.patterns import _PARTS, COMBOS, OBSERVATIONS_HEADER, PatternDataset, PatternRow, pattern_of
from delaytree.synth import _NV_MAGICCONST, SynthConfig, SynthOutput, _shifted_waits

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


def assemble_rows_row_by_row(hours: dict, features: dict, direction: Direction, vehicle: Vehicle) -> PatternDataset:
    """Reference for patterns.assemble_rows: the loop over the sorted union of
    the bridges' hours, one hour at a time. An hour that lacks a bridge is
    skipped and one whose every wait is 0.0 is dropped, each tallied; any
    other hour is a row."""
    series = [hours.get((b, direction, vehicle), {}) for b in bridges_for(vehicle)]
    rows = []
    skipped = 0
    dropped = 0
    for hour_start in sorted(set().union(*series)):
        if any(hour_start not in s for s in series):
            skipped += 1
            continue
        waits = tuple(s[hour_start] for s in series)
        if all(w == 0.0 for w in waits):
            dropped += 1
            continue
        rows.append(PatternRow(features[hour_start], pattern_of(waits), hour_start, waits))
    return PatternDataset(rows, direction, vehicle, skipped, dropped)


def write_observations_row_by_row(datasets: list) -> str:
    """Reference for patterns.write_observations: every row is a list of
    field texts that csv.writer joins and quotes. Each bridge's wait goes to
    its column through a dict of the dataset's bridges, and a bridge the
    dataset lacks gets a blank."""
    def rows():
        for ds in sorted(datasets, key=lambda d: COMBOS.index((d.vehicle, d.direction))):
            for row in ds.rows:
                waits = dict(zip(ds.bridges, row.waits))
                yield [row.hour_start.isoformat(timespec="minutes"), ds.direction.label, ds.vehicle.label,
                       *[repr(waits[bridge]) if bridge in waits else "" for bridge in Bridge], row.pattern,
                       *map(FeatureSpec.format, FEATURE_SCHEMA, row.features)]

    return csv_text(OBSERVATIONS_HEADER, rows())


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


def _temperature(day: date, hour: int, rng: random.Random) -> float:
    doy = day.timetuple().tm_yday
    seasonal = 45.0 - 25.0 * math.cos(2.0 * math.pi * (doy - 15) / 365.0)
    diurnal = 8.0 * math.sin(math.pi * (hour - 7) / 14.0)
    return round(seasonal + diurnal + rng.normalvariate(0.0, 3.0), 1)


def generate_row_by_row(cfg: SynthConfig, out_dir) -> SynthOutput:
    """Reference for synth.generate: every row formatted on its own, every
    hour's temperature, features and waits worked out afresh, and each file
    held whole in memory, then written in one go. The rng draws, their order
    and the bytes are the ones generate must keep."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = random.Random(cfg.seed)
    uniform, log, magic = rng.random, math.log, _NV_MAGICCONST
    base = cfg.base_pattern()
    jitter = cfg.jitter
    # Each bridge's row tail after the timestamp, and its minute texts.
    streams = [
        (bridge, f",{bridge.name},{cfg.direction.label},{cfg.vehicle.label},",
         (":00",) if bridge is Bridge.RB else tuple(f":{minute:02d}" for minute in range(0, 60, 5)))
        for bridge in cfg.bridges
    ]

    wait_buf = io.StringIO()
    weather_buf = io.StringIO()
    log_buf = io.StringIO()
    write_wait = wait_buf.write
    write_wait(",".join(WAIT_TIMES_HEADER) + "\n")
    weather_buf.write(",".join(WEATHER_HEADER) + "\n")
    log_buf.write("hour_start,intended_pattern,flipped\n")

    for ordinal in range(cfg.start.toordinal(), cfg.end.toordinal() + 1):
        day = date.fromordinal(ordinal)
        day_text = day.isoformat()
        for hour in range(HOUR_MIN, HOUR_MAX + 1):
            hour_start = datetime.combine(day, time(hour))
            temp = _temperature(day, hour, rng)
            wet = rng.random() < 0.15
            precip = round(rng.uniform(0.01, 0.30), 2) if wet else 0.0
            if precip > 0:
                condition = Condition.SNOW if temp <= 32.0 else Condition.RAIN
                visibility = rng.randint(4, 9)
            else:
                condition = Condition.CLEAR
                visibility = 10
            prefix = f"{day_text}T{hour:02d}"
            weather_buf.write(f"{prefix}:00,{temp:.1f},{visibility},{precip:.2f},{condition.label}\n")

            weather_rec = WeatherRecord(hour_start, temp, visibility, precip, condition)
            fv = build_feature_vector(hour_start, weather_rec, cfg.us_holidays, cfg.ca_holidays)
            rule = next((r for r in cfg.rules if r.matches(fv)), None)
            intended = rule.target if rule else base
            flipped = rng.random() < cfg.label_flip and bool(cfg.rules)
            if flipped:
                waits = _shifted_waits(cfg, None) if rule else _shifted_waits(cfg, cfg.rules[0])
            else:
                waits = _shifted_waits(cfg, rule)
            log_buf.write(f"{prefix}:00,{intended},{int(flipped)}\n")

            for bridge, tail, minutes in streams:
                level = waits[bridge]
                for minute in minutes:
                    value = level
                    if jitter > 0:  # max(0.0, level + rng.normalvariate(0.0, jitter)), its loop owned and inline
                        while True:
                            u1 = uniform()
                            u2 = 1.0 - uniform()
                            z = magic * (u1 - 0.5) / u2
                            if z * z / 4.0 <= -log(u2):
                                break
                        value = max(0.0, level + (0.0 + z * jitter))
                    write_wait(f"{prefix}{minute}{tail}{value:.2f}\n")

    holidays = [(d.isoformat(), "US") for d in cfg.us_holidays] + [(d.isoformat(), "CA") for d in cfg.ca_holidays]
    holiday_buf = io.StringIO(csv_text(HOLIDAYS_HEADER, sorted(holidays)))
    out = SynthOutput(*(out_dir / f"{name}.csv" for name in SynthOutput._fields))
    for path, buf in zip(out, (wait_buf, weather_buf, holiday_buf, log_buf)):
        path.write_text(buf.getvalue(), encoding="utf-8")
    return out
