"""Raw feed ingestion: wait-time and weather CSV parsing, hourly aggregation,
and the weather join of each hour.

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
from typing import Iterator, Optional

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


def _lines(text: str, piece: int = 1 << 20) -> Iterator[str]:
    """The lines of `text`, each with its "\\n", as iterating
    io.StringIO(text) gives them. io.StringIO copies its text at four bytes
    per character, so it gets whole lines of about `piece` characters at a
    time rather than the whole text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + piece) + 1 or len(text)
        yield from io.StringIO(text[start:end])
        start = end


def csv_rows(text: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, fields) for each data row of CSV text whose first row
    is `header`; `line` is the first physical line of the row, which a
    quoted field may carry over several lines. Blank lines are skipped;
    every other row must have exactly len(header) fields. Text the csv
    module cannot read is a data error."""
    rows = csv.reader(_lines(text))
    try:
        first = next(rows, None)
        if first is None or [c.strip() for c in first] != header:
            raise DataError(f"expected header {','.join(header)!r}", line=1)
        width = len(header)
        line = rows.line_num + 1
        for row in rows:
            if len(row) == width:
                yield line, row
            elif row:
                raise DataError(f"expected {width} fields, got {len(row)}", line=line)
            line = rows.line_num + 1
    except csv.Error as exc:
        raise DataError(f"malformed CSV: {exc}", line=rows.line_num) from None


def _wait_rows(text: str) -> Iterator[tuple[int, datetime, Optional[datetime], tuple, float]]:
    """Yield (line, timestamp, hour, stream, wait) for each row of
    wait_times.csv text, in file order.

    `hour` is the timestamp's calendar hour, or None outside
    HOUR_MIN..HOUR_MAX; `stream` is (bridge, direction, vehicle). Enum
    fields match case-insensitively. Each row is checked in field order:
    timestamp, bridge, direction, vehicle_type, wait_minutes (finite, not
    negative), then the RB+commercial rule (trucks are not allowed on RB);
    errors carry the 1-based line number. Each distinct timestamp text and
    each distinct (bridge, direction, vehicle_type) text is parsed once.
    """
    stamps: dict[str, tuple[datetime, Optional[datetime]]] = {}
    streams: dict[tuple[str, str, str], tuple[tuple, bool]] = {}
    for line, (raw_ts, raw_bridge, raw_direction, raw_vehicle, raw_wait) in csv_rows(text, WAIT_TIMES_HEADER):
        stamp = stamps.get(raw_ts)
        if stamp is None:
            ts = _parse_timestamp(raw_ts, line)
            stamps[raw_ts] = stamp = (ts, _window_hour(ts))
        raw_stream = (raw_bridge, raw_direction, raw_vehicle)
        stream = streams.get(raw_stream)
        if stream is None:
            bridge = _parse_enum(Bridge, raw_bridge, "bridge", line)
            direction = _parse_enum(Direction, raw_direction, "direction", line)
            vehicle = _parse_enum(Vehicle, raw_vehicle, "vehicle_type", line)
            no_trucks = bridge is Bridge.RB and vehicle is Vehicle.COMMERCIAL
            streams[raw_stream] = stream = ((bridge, direction, vehicle), no_trucks)
        wait = _parse_float(raw_wait, "wait_minutes", line)
        if not wait >= 0:
            raise DataError(f"negative wait_minutes {raw_wait!r}", line=line)
        if stream[1]:
            raise DataError("RB carries no commercial vehicles", line=line)
        yield line, stamp[0], stamp[1], stream[0], wait


def parse_wait_times(text: str) -> list[RawWaitTimeRecord]:
    """Parse wait_times.csv content into records, in file order, with the
    row checks of `_wait_rows`. The pipeline uses `hourly_waits` instead,
    which builds no per-row record."""
    return [RawWaitTimeRecord(ts, *stream, wait) for _, ts, _, stream, wait in _wait_rows(text)]


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


def _window_hour(ts: datetime) -> Optional[datetime]:
    """The calendar hour of `ts`, or None if it lies outside HOUR_MIN..HOUR_MAX."""
    return floor_hour(ts) if HOUR_MIN <= ts.hour <= HOUR_MAX else None


def hourly_waits(text: str) -> list[HourlyWait]:
    """wait_times.csv content straight to its hourly means, in one pass:
    equal to aggregate_hourly(parse_wait_times(text)), with the same errors,
    but each row is grouped as it is read and no per-row record is kept."""
    groups: dict[tuple, list[float]] = {}
    first_lines: dict[tuple, int] = {}
    for line, _, hour, stream, wait in _wait_rows(text):
        if hour is None:
            continue
        key = (hour, stream)
        values = groups.get(key)
        if values is None:
            groups[key] = [wait]
            first_lines[key] = line
        else:
            values.append(wait)
    return _hourly_means(groups, first_lines)


def aggregate_hourly(records: list[RawWaitTimeRecord]) -> list[HourlyWait]:
    """Average wait samples per (calendar hour, bridge, direction, vehicle).

    Hours outside 7..21 are dropped. Output is sorted by the group key and
    independent of input order (see `_hourly_means`).
    """
    groups: dict[tuple, list[float]] = {}
    for rec in records:
        hour = _window_hour(rec.timestamp)
        if hour is not None:
            groups.setdefault((hour, (rec.bridge, rec.direction, rec.vehicle)), []).append(rec.wait_minutes)
    return _hourly_means(groups)


def _hourly_means(groups: dict[tuple, list[float]], first_lines: Optional[dict] = None) -> list[HourlyWait]:
    """One HourlyWait per (hour, (bridge, direction, vehicle)) key, sorted by
    key. Sums use math.fsum, which is exact, so the order of the samples
    cannot change any mean. The rounded sum and the division are two
    roundings, which can put a mean just outside its samples' range, so it
    is clamped into [min, max]. A sum past the float range is a data error
    at the line of the group's first sample, when `first_lines` knows it.
    """
    out = []
    for key in sorted(groups):
        values = groups[key]
        hour, (bridge, direction, vehicle) = key
        try:
            total = math.fsum(values)
        except OverflowError:
            raise DataError(
                f"the {len(values)} wait_minutes of {bridge.name} {direction.label} {vehicle.label} "
                f"in hour {hour.isoformat(timespec='minutes')} overflow their sum",
                line=first_lines.get(key) if first_lines else None,
            ) from None
        mean = min(max(total / len(values), min(values)), max(values))
        out.append(HourlyWait(hour, bridge, direction, vehicle, mean, len(values)))
    return out


def join_weather(hours: list[HourlyWait], weather: list[WeatherRecord]) -> dict[datetime, WeatherRecord]:
    """The weather record of each distinct hour of `hours`, in hour order.

    The match is the most recent record timestamped before the end of the
    hour; a record inside the hour itself counts as the exact match.
    Anything staler than WEATHER_JOIN_WINDOW is an error naming the first
    such hour.
    """
    recs = sorted(weather, key=lambda w: w.timestamp)
    stamps = [w.timestamp for w in recs]
    joined = {}
    for hour in sorted({hw.hour_start for hw in hours}):
        idx = bisect_right(stamps, hour + timedelta(hours=1) - timedelta(microseconds=1))
        if idx == 0 or hour - recs[idx - 1].timestamp > WEATHER_JOIN_WINDOW:
            raise DataError(f"no weather within {WEATHER_JOIN_WINDOW} of {hour.isoformat()}")
        joined[hour] = recs[idx - 1]
    return joined
