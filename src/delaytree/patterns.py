"""Delay discretization and multi-bridge pattern encoding.

Wait minutes map to four categories with closed-right boundaries at 0, 15
and 30. For the classification target the no-delay category is merged into
slight delay (after hours where every bridge is at zero are dropped), and
the per-bridge categories are concatenated into one pattern label, e.g.
"delay-slight delay-slight delay" over (PB, RB, LQ).
"""

from __future__ import annotations

import itertools
import math
from datetime import datetime
from enum import IntEnum
from functools import cache
from typing import Iterable, NamedTuple

from .errors import DataError, cut
from .features import FEATURE_SCHEMA, FeatureSpec, FeatureVector, hour_calendar
from .ingest import (
    HOUR_MAX, HOUR_MIN, Bridge, Direction, HourlyMeans, Vehicle, _parse_enum, _window_hour, bridges_for,
    csv_rows, csv_text, fromisoformat, number,
)

SLIGHT_MAX = 15.0
DELAY_MAX = 30.0


class DelayCategory4(IntEnum):
    NO_DELAY = 0
    SLIGHT_DELAY = 1
    DELAY = 2
    HEAVY_DELAY = 3


# The part of a pattern label each category gives: no delay folds into slight.
_PARTS = ("slight delay", "slight delay", "delay", "heavy delay")


def categorize(wait_minutes: float) -> DelayCategory4:
    """0 -> no delay; (0,15] -> slight; (15,30] -> delay; (30,inf) -> heavy."""
    if not wait_minutes >= 0:
        raise DataError(f"negative wait {wait_minutes!r}")
    if wait_minutes == 0:
        return DelayCategory4.NO_DELAY
    if wait_minutes <= SLIGHT_MAX:
        return DelayCategory4.SLIGHT_DELAY
    if wait_minutes <= DELAY_MAX:
        return DelayCategory4.DELAY
    return DelayCategory4.HEAVY_DELAY


def pattern_of(waits) -> str:
    """The pattern label of per-bridge waits, e.g. (20, 5, 0) over (PB, RB,
    LQ) -> "delay-slight delay-slight delay"."""
    return "-".join([_PARTS[categorize(w)] for w in waits])


def all_patterns(bridges: tuple[Bridge, ...]) -> list[str]:
    """The full pattern space: 27 labels over three bridges, 9 over two."""
    return ["-".join(parts) for parts in itertools.product(dict.fromkeys(_PARTS), repeat=len(bridges))]


class PatternRow(NamedTuple):
    features: FeatureVector
    pattern: str
    hour_start: datetime
    waits: tuple  # mean wait per bridge, aligned with the dataset's bridges


class PatternDataset(NamedTuple):
    """The rows of one (vehicle, direction), and the hours that assembly
    skipped or dropped. Its schema is FEATURE_SCHEMA."""

    rows: list[PatternRow]
    direction: Direction
    vehicle: Vehicle
    skipped_incomplete: int = 0
    dropped_all_zero: int = 0
    schema = FEATURE_SCHEMA

    @property
    def bridges(self) -> tuple[Bridge, ...]:
        return bridges_for(self.vehicle)


# Presentation order for the four datasets, used by every multi-tree artifact.
COMBOS = (
    (Vehicle.PASSENGER, Direction.TO_US),
    (Vehicle.PASSENGER, Direction.TO_CAN),
    (Vehicle.COMMERCIAL, Direction.TO_US),
    (Vehicle.COMMERCIAL, Direction.TO_CAN),
)


def assemble_rows(
    hours: HourlyMeans, features: dict[datetime, FeatureVector], direction: Direction, vehicle: Vehicle
) -> PatternDataset:
    """Build the classification dataset for one (direction, vehicle) from
    its bridges' hourly means and the feature vector of each hour.

    Per hour with a complete bridge tuple: drop it if every bridge sat at
    zero, otherwise categorize each bridge, merge no delay into slight, and
    concatenate into the pattern label. Hours missing a bridge are skipped
    and tallied, not fatal.
    """
    series = [hours.get((b, direction, vehicle), {}) for b in bridges_for(vehicle)]
    rows: list[PatternRow] = []
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


def pattern_frequencies(ds: PatternDataset) -> list[tuple[str, int]]:
    """Histogram of patterns, descending count then label; zero counts omitted."""
    counts: dict[str, int] = {}
    for row in ds.rows:
        counts[row.pattern] = counts.get(row.pattern, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


OBSERVATIONS_HEADER = [
    "hour_start", "direction", "vehicle", "wait_pb", "wait_rb", "wait_lq", "pattern", *FEATURE_SCHEMA.names,
]


def write_observations(datasets: list[PatternDataset]) -> str:
    """Render assembled datasets as observations.csv text (wait_rb blank for
    trucks). Datasets are emitted in COMBOS order; rows by hour."""
    texts: dict[int, list[str]] = {}  # by the vector's id, as 1 == 1.0 == True print differently

    def rows():
        for ds in sorted(datasets, key=lambda d: COMBOS.index((d.vehicle, d.direction))):
            for row in ds.rows:
                waits = dict(zip(ds.bridges, row.waits))
                if id(row.features) not in texts:
                    texts[id(row.features)] = [*map(FeatureSpec.format, FEATURE_SCHEMA, row.features)]
                yield [row.hour_start.isoformat(timespec="minutes"), ds.direction.label, ds.vehicle.label,
                       *[repr(waits[bridge]) if bridge in waits else "" for bridge in Bridge], row.pattern,
                       *texts[id(row.features)]]

    return csv_text(OBSERVATIONS_HEADER, rows())


def read_observations(lines: Iterable[str]) -> dict[tuple[Vehicle, Direction], PatternDataset]:
    """Parse observations.csv `lines` (see ingest.csv_rows) back into
    per-combo datasets.

    hour_start must be a naive whole hour in HOUR_MIN..HOUR_MAX, and each
    (vehicle, direction, hour) may appear once. Each feature column is read
    by its FEATURE_SCHEMA spec, and the calendar features must be the ones
    hour_start gives (see hour_calendar). wait_rb is blank for commercial
    rows. Waits must be finite and not negative, and the pattern label must
    have one merged part name per bridge of the row's vehicle and be the
    label of the row's waits. The rows of an hour share one hour_start and
    one FeatureVector, as from label_hours: each hour text and each tuple of
    feature texts is parsed once.
    """
    @cache
    def hour(text):  # hour_start, and its calendar if it is a naive whole hour in the window, else None
        hour_start = fromisoformat(datetime, text)
        whole = hour_start.tzinfo is None and _window_hour(hour_start) == hour_start
        return hour_start, hour_calendar(hour_start) if whole else None

    features = cache(lambda texts: FeatureVector(*map(FeatureSpec.parse, FEATURE_SCHEMA, texts)))
    rows: dict[tuple[Vehicle, Direction], list[PatternRow]] = {}
    first_lines: dict[tuple, int] = {}
    for line, row in csv_rows(lines, OBSERVATIONS_HEADER):
        try:
            hour_start, calendar = hour(row[0])
            direction = _parse_enum(Direction, row[1], "direction", line)
            vehicle = _parse_enum(Vehicle, row[2], "vehicle", line)
            waits = tuple(number(float, row[2 + bridge]) for bridge in bridges_for(vehicle))  # wait_pb is row[3]
        except ValueError as exc:
            raise DataError(f"bad observation row: {cut(str(exc))}", line=line) from None
        if vehicle is Vehicle.COMMERCIAL and row[4]:
            raise DataError(f"wait_rb {cut(repr(row[4]))} of a commercial row is not blank", line=line)
        if calendar is None:
            raise DataError(f"hour_start {row[0]!r} is not a naive whole hour in {HOUR_MIN}..{HOUR_MAX}", line=line)
        pattern = row[6]
        parts = pattern.split("-")
        for part in parts:
            if part not in _PARTS:
                raise DataError(f"pattern {cut(repr(pattern))} has unknown part {cut(repr(part))}", line=line)
        if len(parts) != len(waits):
            raise DataError(f"pattern {cut(repr(pattern))} does not fit {vehicle.label}", line=line)
        try:
            fv = features(tuple(row[7:]))
        except ValueError as exc:
            raise DataError(str(exc), line=line) from None
        for spec, value, want in zip(FEATURE_SCHEMA, fv, calendar):
            if value != want:
                raise DataError(f"{spec.name} {value!r} contradicts hour_start {row[0]!r}: want {want!r}", line=line)
        if not all(map(math.isfinite, waits)):
            raise DataError(f"waits {waits!r} are not all finite numbers", line=line)
        if any(w < 0 for w in waits):
            raise DataError(f"waits {waits!r} include a negative wait", line=line)
        if pattern != pattern_of(waits):
            raise DataError(f"pattern {pattern!r} is not the label of waits {waits!r}", line=line)
        first = first_lines.setdefault((vehicle, direction, hour_start), line)
        if first != line:
            raise DataError(f"{vehicle.label} {direction.label} {row[0]!r} repeats line {first}", line=line)
        rows.setdefault((vehicle, direction), []).append(PatternRow(fv, pattern, hour_start, waits))
    return {(v, d): PatternDataset(r, d, v) for (v, d), r in rows.items()}
