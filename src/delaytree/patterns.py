"""Delay discretization and multi-bridge pattern encoding.

Wait minutes map to four categories with closed-right boundaries at 0, 15
and 30. For the classification target the no-delay category is merged into
slight delay (after hours where every bridge is at zero are dropped), and
the per-bridge categories are concatenated into one pattern label, e.g.
"delay-slight delay-slight delay" over (PB, RB, LQ).
"""

from __future__ import annotations

import csv
import itertools
import math
from bisect import bisect_left
from datetime import datetime
from enum import IntEnum
from functools import cache
from types import SimpleNamespace
from typing import Iterable, NamedTuple

from .errors import DataError, cut
from .features import FEATURE_SCHEMA, FeatureSpec, FeatureVector, hour_calendar
from .ingest import (
    HOUR_MAX, HOUR_MIN, Bridge, Direction, HourlyMeans, Vehicle, _parse_enum, _window_hour, bridges_for,
    csv_rows, fromisoformat, number,
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

# The closed-right upper bound of each category but the last, so a wait's
# category is the count of bounds below it; and the categories by number.
_UPPER_BOUNDS = (0.0, SLIGHT_MAX, DELAY_MAX)
_CATEGORIES = tuple(DelayCategory4)


def categorize(wait_minutes: float) -> DelayCategory4:
    """0 -> no delay; (0,15] -> slight; (15,30] -> delay; (30,inf) -> heavy."""
    if not wait_minutes >= 0:
        raise DataError(f"negative wait {wait_minutes!r}")
    return _CATEGORIES[bisect_left(_UPPER_BOUNDS, wait_minutes)]


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
    and tallied, not fatal. The complete hours are the sorted intersection
    of the bridges' hours, and each bridge's means are taken in one pass.
    """
    first, *rest = series = [hours.get((b, direction, vehicle), {}) for b in bridges_for(vehicle)]
    common = set(first).intersection(*rest)
    # The first series' own hour objects, as equal aware hours of other zones print differently.
    complete = sorted(filter(common.__contains__, first))
    columns = [[s[hour_start] for hour_start in complete] for s in series]
    rows = [PatternRow(features[hour_start], pattern_of(waits), hour_start, waits)
            for hour_start, waits in zip(complete, zip(*columns)) if any(waits)]
    skipped = len(set().union(*series)) - len(complete)
    return PatternDataset(rows, direction, vehicle, skipped, len(complete) - len(rows))


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
    trucks). Datasets are emitted in COMBOS order; rows by hour. A row whose
    waits do not match its dataset's bridges one for one is a ValueError.

    Each row is one formatted line. The `,direction,vehicle,` text and the
    layout of the waits are made once per dataset, the hour_start text once
    per hour, and the text of each pattern and each feature vector once. A
    pattern or feature text is quoted as csv.writer quotes it, by csv.writer
    itself; the hour_start text, the labels and the repr of a wait never
    need quoting."""
    # csv.writer's row as csv_text writes it: writerow gives back what its file's write returns, here the line.
    csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow

    def csv_fields(fields) -> str:  # a last empty field, cut with the line end, keeps a lone "" field unquoted
        return csv_line([*fields, ""])[:-2]

    hours: dict[int, str] = {}  # by the hour's id, as equal aware hours of two zones print differently
    vectors: dict[int, str] = {}  # by the vector's id, as 1 == 1.0 == True print differently
    patterns: dict[str, str] = {}
    lines = [csv_line(OBSERVATIONS_HEADER)]
    for ds in sorted(datasets, key=lambda d: COMBOS.index((d.vehicle, d.direction))):
        combo = f",{ds.direction.label},{ds.vehicle.label},"
        bridges = ds.bridges
        waits_text = ",".join("{!r}" if bridge in bridges else "" for bridge in Bridge).format
        for features, pattern, hour_start, waits in ds.rows:
            if len(waits) != len(bridges):
                raise ValueError(f"{ds.vehicle.label} {ds.direction.label} {hour_start.isoformat(timespec='minutes')}:"
                                 f" {len(waits)} waits for the {len(bridges)} bridges "
                                 f"{', '.join(bridge.name for bridge in bridges)}")
            hour = hours.get(id(hour_start)) or hours.setdefault(
                id(hour_start), hour_start.isoformat(timespec="minutes"))
            vector = vectors.get(id(features)) or vectors.setdefault(
                id(features), csv_fields(map(FeatureSpec.format, FEATURE_SCHEMA, features)))
            label = patterns.get(pattern) or patterns.setdefault(pattern, csv_fields([pattern]))
            lines.append(f"{hour}{combo}{waits_text(*waits)},{label},{vector}\n")
    return "".join(lines)


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
