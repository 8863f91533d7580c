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
from dataclasses import dataclass
from datetime import datetime
from enum import IntEnum
from typing import NamedTuple

from .errors import DataError
from .features import CONTINUOUS, FEATURE_SCHEMA, FeatureSchema, FeatureVector
from .ingest import Bridge, Direction, HourlyWait, Vehicle, bridges_for, csv_rows

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
    hours: list[HourlyWait],
    features: dict[datetime, FeatureVector],
    direction: Direction,
    vehicle: Vehicle,
    schema: FeatureSchema = FEATURE_SCHEMA,
) -> PatternDataset:
    """Build the classification dataset for one (direction, vehicle) from
    the hourly means and the feature vector of each hour.

    Per hour with a complete bridge tuple: drop it if every bridge sat at
    zero, otherwise categorize each bridge, merge no delay into slight, and
    concatenate into the pattern label. Hours missing a bridge are skipped
    and tallied, not fatal.
    """
    bridges = bridges_for(vehicle)
    by_hour: dict[datetime, dict[Bridge, float]] = {}
    for hw in hours:
        if hw.direction is direction and hw.vehicle is vehicle and hw.bridge in bridges:
            by_hour.setdefault(hw.hour_start, {})[hw.bridge] = hw.mean_wait_minutes

    rows: list[PatternRow] = []
    skipped = 0
    dropped = 0
    for hour_start in sorted(by_hour):
        per_bridge = by_hour[hour_start]
        if any(b not in per_bridge for b in bridges):
            skipped += 1
            continue
        waits = tuple(per_bridge[b] for b in bridges)
        if all(w == 0.0 for w in waits):
            dropped += 1
            continue
        rows.append(PatternRow(features[hour_start], pattern_of(waits), hour_start, waits))
    return PatternDataset(schema, rows, direction, vehicle, skipped, dropped)


def pattern_frequencies(ds: PatternDataset) -> list[tuple[str, int]]:
    """Histogram of patterns, descending count then label; zero counts omitted."""
    counts: dict[str, int] = {}
    for row in ds.rows:
        counts[row.pattern] = counts.get(row.pattern, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


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
                    row.pattern,
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
    a continuous feature, a finite number; waits must be finite too, and the
    pattern label must have one merged part name per bridge of the row's
    vehicle.
    """
    datasets: dict[tuple[Vehicle, Direction], PatternDataset] = {}
    for line, row in csv_rows(text, OBSERVATIONS_HEADER):
        try:
            hour_start = datetime.fromisoformat(row[0])
            direction = Direction[row[1].upper()]
            vehicle = Vehicle[row[2].upper()]
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
        pattern = row[6]
        parts = pattern.split("-")
        for part in parts:
            if part not in _PARTS:
                raise DataError(f"pattern {pattern!r} has unknown part {part!r}", line=line)
        if len(parts) != len(bridges):
            raise DataError(f"pattern {pattern!r} does not fit {vehicle.label}", line=line)
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
