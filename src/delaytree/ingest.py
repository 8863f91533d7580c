"""Raw feed ingestion: reading input files, wait-time and weather CSV parsing,
hourly aggregation (a large wait file on every CPU) and the weather join.

Timestamps are naive local civil time throughout; neither feed carries a
zone and no conversion is performed. Only hours 7..21 survive aggregation.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from array import array
from bisect import bisect_right
from collections import defaultdict
from datetime import datetime, timedelta
from enum import IntEnum
from itertools import tee
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import DataError, cut

HOUR_MIN = 7
HOUR_MAX = 21
VISIBILITY = range(1, 11)

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


class RawWaitTimeRecord(NamedTuple):
    timestamp: datetime
    bridge: Bridge
    direction: Direction
    vehicle: Vehicle
    wait_minutes: float


class WeatherRecord(NamedTuple):
    timestamp: datetime
    temperature_f: float
    visibility: int
    precipitation_in: float
    condition: Condition


# Stream (bridge, direction, vehicle) -> hour start -> mean wait, hours ascending.
HourlyMeans = dict[tuple[Bridge, Direction, Vehicle], dict[datetime, float]]


def _parse_enum(enum_cls, raw: str, what: str, line: Optional[int] = None):
    """The member of enum_cls that `raw` names, in any case, between any
    whitespace. Names are ASCII: str.upper() would fold 'ſ' to 'S'."""
    name = raw.strip().upper()
    if raw.isascii() and name in enum_cls.__members__:
        return enum_cls[name]
    raise DataError(f"unknown {what} {cut(repr(raw))}", line=line)


# The texts Python 3.10's fromisoformat reads; 3.11 reads more, such as
# 20160822, 2016-W34-1 and T0705. A date is YYYY-MM-DD; a datetime is a
# date alone, or a date, any one character and HH[:MM[:SS]], then maybe a
# 3- or 6-digit fraction (after "." or, past SS, ":") and a zone
# ±HH:MM[:SS[.ffffff]]. Without a fraction 3.10 also takes one more
# character before a zone, or a NUL at the end when there is no zone.
_ISO_DATE = "[0-9]{4}-[0-9]{2}-[0-9]{2}"
_ISO_TIME = "[0-9]{2}(?::[0-9]{2}){0,2}"
_ISO_FRACTION = r"[0-9]{2}(?:\.|:[0-9]{2}(?:\.|:[0-9]{2}[.:]))(?:[0-9]{3}|[0-9]{6})"
_ISO_DATETIME = re.compile(
    rf"{_ISO_DATE}(?:.(?:{_ISO_TIME}\x00?|{_ISO_FRACTION}|(?:{_ISO_FRACTION}|{_ISO_TIME}[^+-]?)"
    r"[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:[.:][0-9]{6})?)?))?",
    re.DOTALL,
)


def fromisoformat(cls, text: str):
    """cls.fromisoformat(text), cls a date or a datetime, on the texts that
    Python 3.10 reads; any other text is a ValueError on every version."""
    if (_ISO_DATETIME.fullmatch(text) if cls is datetime else re.fullmatch(_ISO_DATE, text)) is None:
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return cls.fromisoformat(text)


def number(cls, text: str):
    """cls(text), cls int or float, on ASCII text without "_", else a ValueError:
    int and float alone also read other scripts' digits and "_" as in "1_0"."""
    if text.isascii() and "_" not in text:
        return cls(text)
    raise ValueError(f"{text!r} is not an ASCII number")


def _parse_timestamp(raw: str, line: int) -> datetime:
    try:
        ts = fromisoformat(datetime, raw.strip())
    except ValueError:
        raise DataError(f"malformed timestamp {cut(repr(raw))}", line=line) from None
    if ts.tzinfo is not None:
        raise DataError(f"timestamp {cut(repr(raw))} carries a zone; feeds are naive local time", line=line)
    return ts


def _parse_float(raw: str, what: str, line: int) -> float:
    try:  # number's test inline, on the path of every row of a wait file
        value = float(raw) if raw.isascii() and "_" not in raw else number(float, raw)
    except ValueError:
        raise DataError(f"malformed {what} {cut(repr(raw))}", line=line) from None
    if not math.isfinite(value):
        raise DataError(f"non-finite {what} {cut(repr(raw))}", line=line)
    return value


def csv_rows(lines: Iterable[str], header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, fields) for each data row of CSV `lines` whose first row
    is `header`. `lines` is CSV text, or its lines each ended by "\\n" (a
    file opened with newline="\\n"), read one at a time. `line` is the first
    physical line of the row, which a quoted field may carry over several
    lines. Blank lines are skipped; every other row must have exactly
    len(header) fields. Text the csv module cannot read is a data error."""
    rows = csv.reader(io.StringIO(lines) if isinstance(lines, str) else lines)
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


def csv_text(header: list[str], rows) -> str:
    """CSV text of `header` and then each of `rows`, every row ended by
    "\\n": the text csv_rows reads back."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _utf8_lines(file):
    """The lines of a binary file, each decoded as UTF-8 when it is read. A
    UTF-8 sequence never holds the byte of "\\n", so these are the lines of
    the file's decoded text, split where io.StringIO splits them."""
    for line, raw in enumerate(file, 1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError("not UTF-8 text", line=line) from None


def _parse_file(parser, path):
    """Parse a file one line at a time, prefixing any data error with the
    path. A line that is not UTF-8 is a data error when the parser reaches it."""
    try:
        with open(path, "rb") as file:
            return parser(_utf8_lines(file))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def parse_wait_times(lines: Iterable[str]) -> list[RawWaitTimeRecord]:
    """Parse wait_times.csv `lines` (see csv_rows) into records, in file order: `_wait_groups`
    checks every row, then each becomes a record, so `lines` is read twice. The pipeline uses
    `hourly_waits` instead, which builds no per-row record."""
    lines, checked = (lines, lines) if isinstance(lines, str) else tee(lines)
    _wait_groups(lines)
    return [RawWaitTimeRecord(_parse_timestamp(ts, line), Bridge[b.strip().upper()], Direction[d.strip().upper()],
                              Vehicle[v.strip().upper()], float(w))
            for line, (ts, b, d, v, w) in csv_rows(checked, WAIT_TIMES_HEADER)]


def parse_weather(lines: Iterable[str]) -> list[WeatherRecord]:
    """Parse weather.csv `lines` (see csv_rows), in file order.

    Visibility must be an integer in 1..10 and precipitation non-negative.
    Temperatures below 0 degF are accepted (the frontier sees them).
    """
    records = []
    for line, row in csv_rows(lines, WEATHER_HEADER):
        ts = _parse_timestamp(row[0], line)
        temp = _parse_float(row[1], "temperature_f", line)
        try:
            visibility = number(int, row[2])
        except ValueError:
            raise DataError(f"malformed visibility {cut(repr(row[2]))}", line=line) from None
        if visibility not in VISIBILITY:
            raise DataError(f"visibility {cut(str(visibility))} outside {VISIBILITY[0]}..{VISIBILITY[-1]}", line=line)
        precip = _parse_float(row[3], "precipitation_in", line)
        if not precip >= 0:
            raise DataError(f"negative precipitation_in {cut(repr(row[3]))}", line=line)
        condition = _parse_enum(Condition, row[4], "condition", line)
        records.append(WeatherRecord(ts, temp, visibility, precip, condition))
    return records


def floor_hour(ts: datetime) -> datetime:
    return ts.replace(minute=0, second=0, microsecond=0)


def _window_hour(ts: datetime) -> Optional[datetime]:
    """The calendar hour of `ts`, or None if it lies outside HOUR_MIN..HOUR_MAX."""
    return floor_hour(ts) if HOUR_MIN <= ts.hour <= HOUR_MAX else None


def hourly_waits(lines: Iterable[str]) -> HourlyMeans:
    """wait_times.csv `lines` (see csv_rows) straight to their hourly means:
    aggregate_hourly(parse_wait_times(lines)), with the same errors."""
    return _hourly_means(_wait_groups(lines))


def _wait_groups(lines: Iterable[str]) -> defaultdict[tuple, dict[datetime, array]]:
    """The window's samples of wait_times.csv `lines` (see csv_rows) as {stream: {hour: array of
    doubles}}, stream (bridge, direction, vehicle); a file's parts merge array by array. Each row is
    checked in field order: timestamp, bridge, direction, vehicle_type (in any case), wait_minutes
    (finite, not negative), then that the vehicle uses the bridge (no trucks on RB); the first error
    names its 1-based line. A row outside HOUR_MIN..HOUR_MAX is checked, then dropped. Each distinct
    (bridge, direction, vehicle_type) text is parsed once, and so is each timestamp text, but a date,
    any one character, an hour 00..23 and minutes 00..59 is keyed by its first 13 characters, which
    fix its hour. A timestamp keeps only its calendar hour, shared by its hour's texts."""
    hour_minute = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}.(?:[01][0-9]|2[0-3]):[0-5][0-9]", re.DOTALL).fullmatch
    stamps: dict[str, Optional[datetime]] = {}
    hours: dict[Optional[datetime], Optional[datetime]] = {}
    streams: dict[tuple[str, str, str], tuple[tuple, bool]] = {}
    groups: defaultdict[tuple, dict[datetime, array]] = defaultdict(dict)
    for line, (raw_ts, raw_bridge, raw_direction, raw_vehicle, raw_wait) in csv_rows(lines, WAIT_TIMES_HEADER):
        key = raw_ts[:13] if hour_minute(raw_ts) else raw_ts
        hour = stamps.get(key, False)  # an hour is a datetime or None, so False is "not seen"
        if hour is False:
            hour = _window_hour(_parse_timestamp(raw_ts, line))
            stamps[key] = hour = hours.setdefault(hour, hour)
        raw_stream = (raw_bridge, raw_direction, raw_vehicle)
        stream = streams.get(raw_stream)
        if stream is None:
            bridge = _parse_enum(Bridge, raw_bridge, "bridge", line)
            direction = _parse_enum(Direction, raw_direction, "direction", line)
            vehicle = _parse_enum(Vehicle, raw_vehicle, "vehicle_type", line)
            streams[raw_stream] = stream = ((bridge, direction, vehicle), bridge not in bridges_for(vehicle))
        wait = _parse_float(raw_wait, "wait_minutes", line)
        if not wait >= 0:
            raise DataError(f"negative wait_minutes {cut(repr(raw_wait))}", line=line)
        if stream[1]:
            raise DataError("RB carries no commercial vehicles", line=line)
        if hour is None:
            continue
        series = groups[stream[0]]
        values = series.get(hour)
        if values is None:
            series[hour] = array("d", (wait,))
        else:
            values.append(wait)
    return groups


def aggregate_hourly(records: list[RawWaitTimeRecord]) -> HourlyMeans:
    """Average wait samples per (bridge, direction, vehicle) stream and
    calendar hour, grouped as the table is. Hours outside 7..21 are dropped.
    The table is independent of input order (see `_hourly_means`)."""
    groups: defaultdict[tuple, dict[datetime, list[float]]] = defaultdict(dict)
    for rec in records:
        hour = _window_hour(rec.timestamp)
        if hour is not None:
            groups[rec.bridge, rec.direction, rec.vehicle].setdefault(hour, []).append(rec.wait_minutes)
    return _hourly_means(groups)


def _hourly_means(groups: dict[tuple, dict[datetime, Sequence[float]]]) -> HourlyMeans:
    """The table of the mean of each stream's hours, streams and hours both
    ascending. math.fsum is exact, so the order of the samples cannot change
    a mean; its rounded sum and the division can put a mean just outside its
    samples' range, so it is clamped into [min, max]. A sum past the float
    range (samples near 1.8e308) gives the exact mean, which lies between
    the samples."""
    table: HourlyMeans = {}
    for stream in sorted(groups):
        table[stream] = series = {}
        for hour, values in sorted(groups[stream].items()):
            try:
                series[hour] = min(max(math.fsum(values) / len(values), min(values)), max(values))
            except OverflowError:
                from fractions import Fraction  # no command loads it, unless a sum overflows
                series[hour] = float(sum(map(Fraction, values)) / len(values))
    return table


_CHUNK_MIN = 1 << 20  # the least bytes per chunk: from 1 MiB, two chunks beat one process on 2 CPUs


def _hourly_waits_file(path):
    """_parse_file(hourly_waits, path), the same table or first error. Where os.fork exists, a
    regular file with no '"' (a quoted field may hold a newline) is cut after newlines into a chunk
    per usable CPU, at most one per _CHUNK_MIN bytes; a forked child parses each chunk but the first."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    size = os.path.getsize(path) if hasattr(os, "fork") and os.path.isfile(path) else 0
    n, cuts = min(cpus, size // _CHUNK_MIN), []  # (byte offset, lines before it) of each chunk's start
    if n > 1:
        with open(path, "rb") as file:
            cuts.append((len(head := file.readline()), 1))
            pos = lines = file.seek(0)  # the header line is scanned for '"' too
            while (block := file.read(_CHUNK_MIN)) and b'"' not in block:
                while len(cuts) < n and (end := block.find(b"\n", max(size * len(cuts) // n - pos, 0)) + 1):
                    cuts.append((pos + end, lines + block.count(b"\n", 0, end)))
                lines, pos = lines + block.count(b"\n"), pos + len(block)
    if len(cuts) < 2 or block:  # a '"' stops the scan with the block that holds it
        return _parse_file(hourly_waits, path)
    import pickle
    import signal
    from itertools import chain, islice

    def chunk(i):  # (groups, error) of chunk i, whose line r is the file's line `before + r - 1`
        (start, before), count = cuts[i], (cuts[i + 1][1] - cuts[i][1] if i + 1 < len(cuts) else None)
        try:
            with open(path, "rb") as file:
                file.seek(start)
                return _wait_groups(_utf8_lines(chain((head,), islice(file, count)))), None
        except DataError as exc:
            return None, DataError(f"{path}: line {before + exc.line - 1}: {exc.message}")
        except Exception as exc:
            return None, exc

    children, groups, parent = [], {}, os.getpid()
    try:
        try:
            for i in range(1, len(cuts)):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read), os.close(write)
                    raise
                if pid == 0:
                    try:
                        os.close(read)  # so that, with the parent gone, a write fails instead of waiting
                        import ctypes  # only here: about 5 ms a child
                        prctl = getattr(ctypes.CDLL(None), "prctl", None)  # Linux: SIGKILL this child when its
                        if prctl is not None:  # parent dies (PR_SET_PDEATHSIG), not at the end of its chunk
                            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
                            prctl(1, signal.SIGKILL)
                        if os.getppid() == parent:  # else the parent died before prctl
                            with open(write, "wb") as out:
                                pickle.dump(chunk(i), out, pickle.HIGHEST_PROTOCOL)
                    finally:
                        os._exit(0)
                os.close(write)
                children.append((pid, open(read, "rb")))  # EOFError, exit 3, if a child ends with no result
        except OSError:  # no pipe or no process to be had: no input is at fault, so this process reads it all
            pass
        else:
            for part, error in chain([chunk(0)], (pickle.load(pipe) for _, pipe in children)):
                if error is not None:
                    raise error
                for stream, hours in part.items():
                    into = groups.setdefault(stream, {})
                    for hour, values in hours.items():
                        into[hour] = into[hour] + values if hour in into else values
            return _hourly_means(groups)
    finally:
        for pid, pipe in children:  # a child whose result was read is exiting already
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return _parse_file(hourly_waits, path)


def join_weather(hours: HourlyMeans, weather: list[WeatherRecord]) -> dict[datetime, WeatherRecord]:
    """The weather record of each hour of any stream of `hours`, in order.

    The match is the most recent record timestamped before the end of the
    hour; a record inside the hour itself counts as the exact match.
    Anything staler than WEATHER_JOIN_WINDOW is an error naming the first
    such hour and the latest record before it.
    """
    recs = sorted(weather, key=lambda w: w.timestamp)
    stamps = [w.timestamp for w in recs]
    joined = {}
    for hour in sorted(set().union(*hours.values())):
        idx = bisect_right(stamps, hour + timedelta(hours=1) - timedelta(microseconds=1))
        if idx == 0 or hour - recs[idx - 1].timestamp > WEATHER_JOIN_WINDOW:
            latest = f"latest earlier record at {recs[idx - 1].timestamp.isoformat()}" if idx else "no earlier record"
            raise DataError(f"no weather within {WEATHER_JOIN_WINDOW} of {hour.isoformat()}; {latest}")
        joined[hour] = recs[idx - 1]
    return joined
