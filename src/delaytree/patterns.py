"""Delay discretization and multi-bridge pattern encoding.

Wait minutes map to four categories with closed-right boundaries at 0, 15
and 30. For the classification target the no-delay category is merged into
slight delay (after hours where every bridge is at zero are dropped), and
the per-bridge categories are concatenated into one pattern label, e.g.
"delay-slight delay-slight delay" over (PB, RB, LQ).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from datetime import datetime
from enum import IntEnum
from typing import NamedTuple

from .errors import DataError
from .features import CONTINUOUS, FEATURE_SCHEMA, FeatureSchema, FeatureVector, HourObservation
from .ingest import Bridge, Direction, Vehicle, bridges_for, csv_rows

SLIGHT_MAX = 15.0
DELAY_MAX = 30.0


class DelayCategory4(IntEnum):
    NO_DELAY = 0
    SLIGHT_DELAY = 1
    DELAY = 2
    HEAVY_DELAY = 3

    @property
    def label(self) -> str:
        return _LABELS[self.value]


class DelayCategory3(IntEnum):
    SLIGHT_DELAY = 1
    DELAY = 2
    HEAVY_DELAY = 3

    @property
    def label(self) -> str:
        return _LABELS[self.value]


_LABELS = {0: "no delay", 1: "slight delay", 2: "delay", 3: "heavy delay"}
_LABEL_TO_3 = {c.label: c for c in DelayCategory3}


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


def merge_no_delay(category: DelayCategory4) -> DelayCategory3:
    """Fold no delay into slight delay; other categories pass through."""
    return DelayCategory3(max(category.value, DelayCategory3.SLIGHT_DELAY.value))


@dataclass(frozen=True, order=True)
class DelayPattern:
    levels: tuple[DelayCategory3, ...]
    bridges: tuple[Bridge, ...] = field(compare=False)

    def __post_init__(self):
        if len(self.levels) != len(self.bridges):
            raise ValueError("one level per bridge required")

    @property
    def label(self) -> str:
        return "-".join(level.label for level in self.levels)

    def __str__(self) -> str:
        return self.label

    @classmethod
    def from_waits(cls, waits, bridges: tuple[Bridge, ...]) -> "DelayPattern":
        levels = tuple(merge_no_delay(categorize(w)) for w in waits)
        return cls(levels, bridges)

    @classmethod
    def from_label(cls, label: str) -> "DelayPattern":
        parts = label.split("-")
        try:
            levels = tuple(_LABEL_TO_3[p] for p in parts)
        except KeyError:
            raise DataError(f"unknown delay pattern label {label!r}") from None
        if len(levels) == 3:
            bridges = bridges_for(Vehicle.PASSENGER)
        elif len(levels) == 2:
            bridges = bridges_for(Vehicle.COMMERCIAL)
        else:
            raise DataError(f"pattern label {label!r} has {len(levels)} parts, want 2 or 3")
        return cls(levels, bridges)


def all_patterns(bridges: tuple[Bridge, ...]) -> list[DelayPattern]:
    """The full pattern space: 27 values over three bridges, 9 over two."""
    return [
        DelayPattern(levels, bridges)
        for levels in itertools.product(tuple(DelayCategory3), repeat=len(bridges))
    ]


class PatternRow(NamedTuple):
    features: FeatureVector
    pattern: DelayPattern
    hour_start: datetime
    waits: tuple  # mean wait per bridge, aligned with the dataset's bridges


@dataclass
class PatternDataset:
    schema: FeatureSchema
    rows: list[PatternRow]
    direction: Direction
    vehicle: Vehicle
    skipped_incomplete: int = 0
    dropped_all_zero: int = 0

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
    observations: list[HourObservation],
    direction: Direction,
    vehicle: Vehicle,
    schema: FeatureSchema = FEATURE_SCHEMA,
) -> PatternDataset:
    """Build the classification dataset for one (direction, vehicle).

    Per hour with a complete bridge tuple: drop it if every bridge sat at
    zero, otherwise categorize each bridge, merge no delay into slight, and
    concatenate into the pattern label. Hours missing a bridge are skipped
    and tallied, not fatal.
    """
    bridges = bridges_for(vehicle)
    by_hour: dict[datetime, dict[Bridge, HourObservation]] = {}
    for obs in observations:
        hw = obs.hour
        if hw.direction is not direction or hw.vehicle is not vehicle:
            continue
        if hw.bridge not in bridges:
            continue
        by_hour.setdefault(hw.hour_start, {})[hw.bridge] = obs

    rows: list[PatternRow] = []
    skipped = 0
    dropped = 0
    for hour_start in sorted(by_hour):
        per_bridge = by_hour[hour_start]
        if any(b not in per_bridge for b in bridges):
            skipped += 1
            continue
        waits = tuple(per_bridge[b].hour.mean_wait_minutes for b in bridges)
        if all(w == 0.0 for w in waits):
            dropped += 1
            continue
        pattern = DelayPattern.from_waits(waits, bridges)
        rows.append(PatternRow(per_bridge[bridges[0]].features, pattern, hour_start, waits))
    return PatternDataset(schema, rows, direction, vehicle, skipped, dropped)


def pattern_frequencies(ds: PatternDataset) -> list[tuple[DelayPattern, int]]:
    """Histogram of patterns, descending count then label; zero counts omitted."""
    counts: dict[DelayPattern, int] = {}
    for row in ds.rows:
        counts[row.pattern] = counts.get(row.pattern, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].label))


OBSERVATIONS_HEADER = [
    "hour_start", "direction", "vehicle", "wait_pb", "wait_rb", "wait_lq", "pattern",
    "month", "season", "hour_interval", "weekend", "us_holiday", "canada_holiday",
    "temperature_f", "visibility", "precipitation_in", "condition",
]


def write_observations(datasets: list[PatternDataset]) -> str:
    """Render assembled datasets as observations.csv text (wait_rb blank for
    trucks). Datasets are emitted in COMBOS order; rows by hour."""
    order = {combo: i for i, combo in enumerate(COMBOS)}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(OBSERVATIONS_HEADER)
    for ds in sorted(datasets, key=lambda d: order[(d.vehicle, d.direction)]):
        for row in ds.rows:
            waits = dict(zip(ds.bridges, row.waits))
            fv = row.features
            writer.writerow(
                [
                    row.hour_start.isoformat(timespec="minutes"),
                    ds.direction.label,
                    ds.vehicle.label,
                    _fmt_wait(waits.get(Bridge.PB)),
                    _fmt_wait(waits.get(Bridge.RB)),
                    _fmt_wait(waits.get(Bridge.LQ)),
                    row.pattern.label,
                    fv.month,
                    fv.season,
                    fv.hour_interval,
                    fv.weekend,
                    fv.us_holiday,
                    fv.canada_holiday,
                    repr(fv.temperature_f),
                    fv.visibility,
                    repr(fv.precipitation_in),
                    fv.condition,
                ]
            )
    return buf.getvalue()


def _fmt_wait(value) -> str:
    return "" if value is None else repr(value)


def read_observations(text: str) -> dict[tuple[Vehicle, Direction], PatternDataset]:
    """Parse observations.csv back into per-combo datasets.

    Every feature value must be a declared level of FEATURE_SCHEMA or, for
    a continuous feature, a finite number; waits must be finite too.
    """
    datasets: dict[tuple[Vehicle, Direction], PatternDataset] = {}
    for line, row in csv_rows(text, OBSERVATIONS_HEADER):
        try:
            hour_start = datetime.fromisoformat(row[0])
            direction = Direction[row[1].upper()]
            vehicle = Vehicle[row[2].upper()]
            pattern = DelayPattern.from_label(row[6])
            fv = FeatureVector(
                month=int(row[7]),
                season=row[8],
                hour_interval=row[9],
                weekend=int(row[10]),
                us_holiday=int(row[11]),
                canada_holiday=int(row[12]),
                temperature_f=float(row[13]),
                visibility=int(row[14]),
                precipitation_in=float(row[15]),
                condition=row[16],
            )
            bridges = bridges_for(vehicle)
            wait_cols = {Bridge.PB: row[3], Bridge.RB: row[4], Bridge.LQ: row[5]}
            waits = tuple(float(wait_cols[b]) for b in bridges)
        except (ValueError, KeyError) as exc:
            raise DataError(f"bad observation row: {exc}", line=line) from None
        for spec in FEATURE_SCHEMA:
            value = fv[spec.name]
            if spec.kind == CONTINUOUS:
                if not math.isfinite(value):
                    raise DataError(f"{spec.name} {value!r} is not a finite number", line=line)
            elif value not in spec.levels:
                raise DataError(f"{spec.name} {value!r} is not a declared level", line=line)
        if not all(map(math.isfinite, waits)):
            raise DataError(f"waits {waits!r} are not all finite numbers", line=line)
        key = (vehicle, direction)
        if key not in datasets:
            datasets[key] = PatternDataset(FEATURE_SCHEMA, [], direction, vehicle)
        datasets[key].rows.append(PatternRow(fv, pattern, hour_start, waits))
    return datasets
