"""Raw feed ingestion: wait-time and weather CSV parsing, hourly aggregation,
weather joining.

Timestamps are naive local civil time throughout; neither feed carries a
zone and no conversion is performed. Only hours 7..21 survive aggregation.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import IntEnum
from typing import Iterator

from .errors import DataError

HOUR_MIN = 7
HOUR_MAX = 21

WAIT_TIMES_HEADER = ["timestamp", "bridge", "direction", "vehicle_type", "wait_minutes"]
WEATHER_HEADER = ["timestamp", "temperature_f", "visibility", "precipitation_in", "condition"]

# Staleness bound for the weather join: the most recent earlier record is
# accepted up to this far back.
WEATHER_JOIN_WINDOW = timedelta(hours=3)


class Bridge(IntEnum):
    PB = 1
    RB = 2
    LQ = 3


class Direction(IntEnum):
    TO_US = 1
    TO_CAN = 2

    @property
    def label(self) -> str:
        return self.name.lower()


class Vehicle(IntEnum):
    PASSENGER = 1
    COMMERCIAL = 2

    @property
    def label(self) -> str:
        return self.name.lower()


class Condition(IntEnum):
    SNOW = 1
    RAIN = 2
    CLEAR = 3

    @property
    def label(self) -> str:
        return self.name.capitalize()


# Bridges carrying each vehicle type, in pattern order. RB has no truck lanes.
PASSENGER_BRIDGES = (Bridge.PB, Bridge.RB, Bridge.LQ)
COMMERCIAL_BRIDGES = (Bridge.PB, Bridge.LQ)


def bridges_for(vehicle: Vehicle) -> tuple[Bridge, ...]:
    return COMMERCIAL_BRIDGES if vehicle is Vehicle.COMMERCIAL else PASSENGER_BRIDGES


@dataclass(frozen=True)
class RawWaitTimeRecord:
    timestamp: datetime
    bridge: Bridge
    direction: Direction
    vehicle: Vehicle
    wait_minutes: float


@dataclass(frozen=True)
class WeatherRecord:
    timestamp: datetime
    temperature_f: float
    visibility: int
    precipitation_in: float
    condition: Condition


@dataclass(frozen=True)
class HourlyWait:
    hour_start: datetime
    bridge: Bridge
    direction: Direction
    vehicle: Vehicle
    mean_wait_minutes: float
    sample_count: int


def _parse_enum(enum_cls, raw: str, what: str, line: int):
    try:
        return enum_cls[raw.strip().upper()]
    except KeyError:
        raise DataError(f"unknown {what} {raw!r}", line=line) from None


def _parse_timestamp(raw: str, line: int) -> datetime:
    try:
        ts = datetime.fromisoformat(raw.strip())
    except ValueError:
        raise DataError(f"malformed timestamp {raw!r}", line=line) from None
    if ts.tzinfo is not None:
        raise DataError(f"timestamp {raw!r} carries a zone; feeds are naive local time", line=line)
    return ts


def _parse_float(raw: str, what: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"malformed {what} {raw!r}", line=line) from None
    if not math.isfinite(value):
        raise DataError(f"non-finite {what} {raw!r}", line=line)
    return value


def csv_rows(text: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, fields) for each data row of CSV text whose first row
    is `header`. Blank lines are skipped; every other row must have exactly
    len(header) fields."""
    rows = csv.reader(io.StringIO(text))
    first = next(rows, None)
    if first is None or [c.strip() for c in first] != header:
        raise DataError(f"expected header {','.join(header)!r}", line=1)
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"expected {len(header)} fields, got {len(row)}", line=line)
        yield line, row


def parse_wait_times(text: str) -> list[RawWaitTimeRecord]:
    """Parse wait_times.csv content into records, in file order.

    Enum fields match case-insensitively. Rejects negative waits and
    RB+commercial rows (trucks are not allowed on RB); errors carry the
    1-based line number.
    """
    records = []
    for line, row in csv_rows(text, WAIT_TIMES_HEADER):
        ts = _parse_timestamp(row[0], line)
        bridge = _parse_enum(Bridge, row[1], "bridge", line)
        direction = _parse_enum(Direction, row[2], "direction", line)
        vehicle = _parse_enum(Vehicle, row[3], "vehicle_type", line)
        wait = _parse_float(row[4], "wait_minutes", line)
        if not wait >= 0:
            raise DataError(f"negative wait_minutes {row[4]!r}", line=line)
        if bridge is Bridge.RB and vehicle is Vehicle.COMMERCIAL:
            raise DataError("RB carries no commercial vehicles", line=line)
        records.append(RawWaitTimeRecord(ts, bridge, direction, vehicle, wait))
    return records


def parse_weather(text: str) -> list[WeatherRecord]:
    """Parse weather.csv content, in file order.

    Visibility must be an integer in 1..10 and precipitation non-negative.
    Temperatures below 0 degF are accepted (the frontier sees them).
    """
    records = []
    for line, row in csv_rows(text, WEATHER_HEADER):
        ts = _parse_timestamp(row[0], line)
        temp = _parse_float(row[1], "temperature_f", line)
        try:
            visibility = int(row[2])
        except ValueError:
            raise DataError(f"malformed visibility {row[2]!r}", line=line) from None
        if not 1 <= visibility <= 10:
            raise DataError(f"visibility {visibility} outside 1..10", line=line)
        precip = _parse_float(row[3], "precipitation_in", line)
        if not precip >= 0:
            raise DataError(f"negative precipitation_in {row[3]!r}", line=line)
        condition = _parse_enum(Condition, row[4], "condition", line)
        records.append(WeatherRecord(ts, temp, visibility, precip, condition))
    return records


def floor_hour(ts: datetime) -> datetime:
    return ts.replace(minute=0, second=0, microsecond=0)


def aggregate_hourly(records: list[RawWaitTimeRecord]) -> list[HourlyWait]:
    """Average wait samples per (calendar hour, bridge, direction, vehicle).

    Hours outside 7..21 are dropped. Output is sorted by the group key and
    independent of input order: sums use math.fsum, which is exact, so
    shuffling the input cannot change any mean.
    """
    groups: dict[tuple, list[float]] = {}
    for rec in records:
        hour = floor_hour(rec.timestamp)
        if not HOUR_MIN <= hour.hour <= HOUR_MAX:
            continue
        groups.setdefault((hour, rec.bridge, rec.direction, rec.vehicle), []).append(rec.wait_minutes)
    out = []
    for key in sorted(groups):
        values = groups[key]
        hour, bridge, direction, vehicle = key
        mean = math.fsum(values) / len(values)
        out.append(HourlyWait(hour, bridge, direction, vehicle, mean, len(values)))
    return out


def join_weather(
    hours: list[HourlyWait], weather: list[WeatherRecord]
) -> list[tuple[HourlyWait, WeatherRecord]]:
    """Pair each hourly wait with its weather record.

    The match is the most recent record timestamped before the end of the
    hour; a record inside the hour itself counts as the exact match.
    Anything staler than WEATHER_JOIN_WINDOW is an error naming the hour.
    """
    recs = sorted(weather, key=lambda w: w.timestamp)
    stamps = [w.timestamp for w in recs]
    pairs = []
    for hw in hours:
        idx = bisect_right(stamps, hw.hour_start + timedelta(hours=1) - timedelta(microseconds=1))
        if idx == 0:
            raise DataError(f"no weather within {WEATHER_JOIN_WINDOW} of {hw.hour_start.isoformat()}")
        rec = recs[idx - 1]
        if hw.hour_start - rec.timestamp > WEATHER_JOIN_WINDOW:
            raise DataError(f"no weather within {WEATHER_JOIN_WINDOW} of {hw.hour_start.isoformat()}")
        pairs.append((hw, rec))
    return pairs
