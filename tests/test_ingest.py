"""Parsing, hourly aggregation, and the weather join. The join's
nearest-predecessor behavior is checked against a linear-scan oracle, and
every parser is fuzzed: any text gives a value or a DataError."""

import copy
import csv
import io
import json
import math
import os
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from datetime import datetime, timedelta
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytree import cli, ingest
from delaytree.cli import main
from delaytree.errors import DataError
from delaytree.ingest import (
    Bridge,
    Condition,
    Direction,
    Vehicle,
    WeatherRecord,
    aggregate_hourly,
    hourly_waits,
    join_weather,
    parse_wait_times,
    parse_weather,
    RawWaitTimeRecord,
    _hourly_waits_file,
    _parse_file,
    _parse_timestamp,
    _wait_groups,
    _window_hour,
)
from delaytree.features import FEATURE_SCHEMA, parse_holidays
from delaytree.patterns import OBSERVATIONS_HEADER, read_observations
from delaytree.report import TREE_FORMATS, export_tree, factor_summary, factor_summary_csv, import_tree

from helpers import hourly_keys, hourly_table, parse_wait_times_row_by_row

HEADER = "timestamp,bridge,direction,vehicle_type,wait_minutes\n"
WHEADER = "timestamp,temperature_f,visibility,precipitation_in,condition\n"


def rec(ts="2016-08-22T07:05", bridge=Bridge.PB, direction=Direction.TO_US,
        vehicle=Vehicle.PASSENGER, wait=10.0):
    return RawWaitTimeRecord(datetime.fromisoformat(ts), bridge, direction, vehicle, wait)


PB_CAR = (Bridge.PB, Direction.TO_US, Vehicle.PASSENGER)  # the stream `rec` defaults to


# ------------------------------------------------------------- parsing


def test_parse_simple_row():
    records = parse_wait_times(HEADER + "2016-08-22T07:05,PB,to_us,passenger,12.0\n")
    assert records == [rec(wait=12.0)]


def test_parse_case_insensitive_enums():
    records = parse_wait_times(HEADER + "2016-08-22T07:05,pb,TO_US,Passenger,12\n")
    assert records[0].bridge is Bridge.PB
    assert records[0].direction is Direction.TO_US
    assert records[0].vehicle is Vehicle.PASSENGER


def test_parse_rejects_rb_commercial():
    with pytest.raises(DataError, match="line 2"):
        parse_wait_times(HEADER + "2016-08-22T07:05,RB,to_us,commercial,5\n")


def test_parse_rejects_negative_wait():
    with pytest.raises(DataError, match="line 2"):
        parse_wait_times(HEADER + "2016-08-22T07:05,PB,to_us,passenger,-1\n")


def test_parse_error_names_correct_line():
    text = HEADER + "2016-08-22T07:05,PB,to_us,passenger,1\nnot-a-date,PB,to_us,passenger,1\n"
    with pytest.raises(DataError, match="line 3"):
        parse_wait_times(text)


def test_parse_rejects_unknown_enum():
    with pytest.raises(DataError, match="bridge"):
        parse_wait_times(HEADER + "2016-08-22T07:05,XX,to_us,passenger,1\n")


def test_parse_rejects_bad_header():
    with pytest.raises(DataError, match="header"):
        parse_wait_times("time,bridge,dir,veh,wait\n")


def test_parse_rejects_zoned_timestamp():
    with pytest.raises(DataError, match="zone"):
        parse_wait_times(HEADER + "2016-08-22T07:05+00:00,PB,to_us,passenger,1\n")


def test_parse_weather_row():
    records = parse_weather(WHEADER + "2016-08-22T07:00,63.5,10,0.0,Clear\n")
    assert records == [WeatherRecord(datetime(2016, 8, 22, 7), 63.5, 10, 0.0, Condition.CLEAR)]


def test_parse_weather_accepts_subzero_temperature():
    records = parse_weather(WHEADER + "2017-01-07T07:00,-5.0,8,0.1,Snow\n")
    assert records[0].temperature_f == -5.0


@pytest.mark.parametrize("vis", ["0", "11", "x", "\u0661\u0660", "1_0"])
def test_parse_weather_rejects_bad_visibility(vis):
    with pytest.raises(DataError):
        parse_weather(WHEADER + f"2016-08-22T07:00,63.5,{vis},0.0,Clear\n")


def _mixed_case(name):
    return "".join(c.lower() if i % 2 else c.upper() for i, c in enumerate(name))


@pytest.mark.parametrize(
    "column, text, value",
    [*[("visibility", str(v), v) for v in range(-1, 13)],
     *[("condition", spell(c.name), c.label) for c in Condition for spell in (str.lower, _mixed_case)],
     ("condition", "Fog", "Fog")],
)
def test_parse_weather_reads_the_levels_the_feature_schema_declares(column, text, value):
    fields = {"visibility": "10", "condition": "Clear", column: text}
    weather = WHEADER + f"2016-08-22T07:00,63.5,{fields['visibility']},0.0,{fields['condition']}\n"
    if value in FEATURE_SCHEMA.spec(column).levels:
        (record,) = parse_weather(weather)
        assert (record.visibility if column == "visibility" else record.condition.label) == value
    else:
        with pytest.raises(DataError, match="outside 1..10" if column == "visibility" else "unknown condition"):
            parse_weather(weather)


def test_parse_weather_rejects_negative_precipitation():
    with pytest.raises(DataError, match="precipitation"):
        parse_weather(WHEADER + "2016-08-22T07:00,63.5,10,-0.2,Rain\n")


# --------------------------------------------------------- aggregation


def test_aggregate_constant_hour():
    records = [rec(ts=f"2016-08-22T08:{m:02d}") for m in range(0, 60, 5)]
    out = aggregate_hourly(records)
    assert out == hourly_table([(datetime(2016, 8, 22, 8), *PB_CAR, 10.0)])


def test_aggregate_arithmetic_mean():
    records = [rec(ts=f"2016-08-22T08:{m:02d}", wait=float(i)) for i, m in enumerate(range(0, 60, 5))]
    out = aggregate_hourly(records)
    assert out[PB_CAR][datetime(2016, 8, 22, 8)] == 5.5
    assert hourly_keys(out) == {(PB_CAR, datetime(2016, 8, 22, 8))}


def test_aggregate_mean_stays_within_its_samples():
    # fsum(3 * w) / 3 rounds to just below w for this w
    wait = 5.39761367449573e-28
    out = aggregate_hourly([rec(ts=f"2016-08-22T08:{m:02d}", wait=wait) for m in (0, 20, 40)])
    assert out[PB_CAR][datetime(2016, 8, 22, 8)] == wait


def test_aggregate_drops_out_of_window_hours():
    records = [rec(ts="2016-08-22T06:55"), rec(ts="2016-08-22T22:00"), rec(ts="2016-08-22T07:00")]
    out = aggregate_hourly(records)
    assert [h.hour for h in out[PB_CAR]] == [7]


def test_aggregate_window_boundaries_kept():
    out = aggregate_hourly([rec(ts="2016-08-22T07:00"), rec(ts="2016-08-22T21:59")])
    assert [h.hour for h in out[PB_CAR]] == [7, 21]


def test_aggregate_empty_input():
    assert aggregate_hourly([]) == {}


def test_aggregate_groups_and_sorts():
    records = [
        rec(ts="2016-08-22T09:00", bridge=Bridge.LQ),
        rec(ts="2016-08-22T08:00", bridge=Bridge.RB),
        rec(ts="2016-08-22T08:30", bridge=Bridge.PB),
        rec(ts="2016-08-22T08:10", bridge=Bridge.PB, direction=Direction.TO_CAN),
        rec(ts="2016-08-22T07:00", bridge=Bridge.LQ),
    ]
    out = aggregate_hourly(records)
    assert hourly_keys(out) == {
        ((Bridge.LQ, Direction.TO_US, Vehicle.PASSENGER), datetime(2016, 8, 22, 7)),
        ((Bridge.LQ, Direction.TO_US, Vehicle.PASSENGER), datetime(2016, 8, 22, 9)),
        ((Bridge.RB, Direction.TO_US, Vehicle.PASSENGER), datetime(2016, 8, 22, 8)),
        ((Bridge.PB, Direction.TO_US, Vehicle.PASSENGER), datetime(2016, 8, 22, 8)),
        ((Bridge.PB, Direction.TO_CAN, Vehicle.PASSENGER), datetime(2016, 8, 22, 8)),
    }
    assert all(list(series) == sorted(series) for series in out.values())


_record_strategy = st.builds(
    rec,
    ts=st.sampled_from([f"2016-08-2{d}T{h:02d}:{m:02d}" for d in (2, 3) for h in (6, 7, 12, 21, 22) for m in (0, 25, 55)]),
    bridge=st.sampled_from(list(Bridge)),
    direction=st.sampled_from(list(Direction)),
    vehicle=st.sampled_from([Vehicle.PASSENGER]),
    wait=st.floats(0, 200, allow_nan=False),
)


@given(st.lists(_record_strategy, max_size=60), st.randoms())
def test_aggregate_permutation_invariant_and_conserving(records, rnd):
    base = aggregate_hourly(records)
    shuffled = list(records)
    rnd.shuffle(shuffled)
    assert aggregate_hourly(shuffled) == base
    in_window = {((r.bridge, r.direction, r.vehicle), r.timestamp.replace(minute=0)) for r in records
                 if 7 <= r.timestamp.hour <= 21}
    assert hourly_keys(base) == in_window
    for stream, hour in in_window:
        group = [
            r.wait_minutes
            for r in records
            if ((r.bridge, r.direction, r.vehicle), r.timestamp.replace(minute=0)) == (stream, hour)
        ]
        mean = base[stream][hour]
        assert min(group) <= mean <= max(group)
        assert math.isclose(mean, math.fsum(group) / len(group))


@pytest.mark.parametrize(
    "samples, mean",
    [([1e308] * 2, 1e308), ([sys.float_info.max] * 11 + [0.0], float(Fraction(sys.float_info.max) * 11 / 12))],
    ids=["two_1e308", "eleven_max_and_a_zero"],
)
def test_an_hour_past_the_float_sum_range_has_its_exact_mean(tmp_path, samples, mean):
    # math.fsum raises OverflowError on these sums; the mean itself is finite.
    text = HEADER + "".join(f"2016-09-05T08:{5 * i:02d},PB,to_us,passenger,{w!r}\n" for i, w in enumerate(samples))
    text += "2016-09-05T08:00,RB,to_us,passenger,1\n2016-09-05T08:00,LQ,to_us,passenger,1\n"
    table = hourly_waits(text)
    assert table[PB_CAR] == {datetime(2016, 9, 5, 8): mean}
    assert aggregate_hourly(parse_wait_times(text)) == table
    files = {"wait-times": text, "weather": WHEADER + "2016-09-05T08:00,60.5,10,0.00,Clear\n",
             "holidays": "date,country\n"}
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    out = tmp_path / "observations.csv"
    assert main(["ingest", *(f"--{name}={tmp_path / name}" for name in files), "--out", str(out)]) == 0
    [row] = csv.DictReader(io.StringIO(out.read_text()))
    assert float(row["wait_pb"]) == mean


def test_unreadable_csv_is_a_data_error():
    for text, message in (
        (HEADER + "2016-08-22T07:05,PB\rx,to_us,passenger,1\n", "line 2: malformed CSV: new-line character"),
        (HEADER + "1,2,3,4," + "9" * 200_000 + "\n", "line 2: malformed CSV: field larger than field limit"),
    ):
        with pytest.raises(DataError, match=message):
            hourly_waits(text)


# ------------------------------------------------ one-pass hourly ingest

_ROW_FIELDS = ("timestamp", "bridge", "direction", "vehicle_type", "wait_minutes")
_GOOD = {
    "timestamp": ["2016-08-22T07:05", "2016-08-22T07:40", " 2016-08-22T07:05", "2016-08-22T06:59",
                  "2016-08-22T21:59:59", "2016-08-22T22:00", "2016-08-23T12:30", "2016-08-23 13:00"],
    "bridge": ["PB", "pb", "Rb", "RB", " lq", "LQ"],
    "direction": ["to_us", "TO_US", "To_Can"],
    "vehicle_type": ["passenger", "PASSENGER ", "commercial", "Commercial"],
    "wait_minutes": ["0", "0.0", "12", " 7.5", "1e2", "33.25"],
}
_BAD = {
    "timestamp": ["not-a-date", "2016-08-22T07:05+00:00", "", "20160822T0705", "2016-08-22T0705", "2016-W34-1T07:05",
                  "20160822"],
    "bridge": ["XX", "P B", ""],
    "direction": ["north", "to us", "to_u\u017f"],
    "vehicle_type": ["bus", "", "pa\u017f\u017fenger", "commerc\u0131al"],
    "wait_minutes": ["nan", "inf", "-1", "abc", ""],
}


def _csv_field(draw, text):
    return f'"{text}"' if draw(st.booleans()) else text


def _trucks_on_rb(fields):
    # Names are ASCII: "commerc\u0131al" names no vehicle, though its upper() is "COMMERCIAL".
    bridge, vehicle = fields["bridge"].strip(), fields["vehicle_type"].strip()
    return vehicle.isascii() and (bridge.upper(), vehicle.upper()) == ("RB", "COMMERCIAL")


@st.composite
def _wait_row(draw, bad=False):
    """One wait_times.csv row; with bad=True one or more of its fields are
    bad, or it puts trucks on RB, or both."""
    faults = draw(st.sets(st.sampled_from(_ROW_FIELDS + ("trucks on RB",)), min_size=1)) if bad else set()
    fields = {name: draw(st.sampled_from((_BAD if name in faults else _GOOD)[name])) for name in _ROW_FIELDS}
    if "wait_minutes" not in faults and draw(st.booleans()):
        fields["wait_minutes"] = repr(draw(st.floats(0, 1e6)))
    if "trucks on RB" in faults:
        if "bridge" not in faults:
            fields["bridge"] = "rb"
        if "vehicle_type" not in faults:
            fields["vehicle_type"] = "Commercial"
    elif _trucks_on_rb(fields):
        fields["vehicle_type"] = "passenger"
    return ",".join(_csv_field(draw, fields[name]) for name in _ROW_FIELDS)


@st.composite
def _wait_times_text(draw, bad_row=False):
    """wait_times.csv text: mixed-case and quoted fields, timestamps that
    repeat, hours outside 7..21, blank lines; with bad_row=True one
    malformed row sits at a random line."""
    lines = draw(st.lists(st.one_of(_wait_row(), st.just("")), max_size=40))
    if bad_row:
        lines.insert(draw(st.integers(0, len(lines))), draw(_wait_row(bad=True)))
    return HEADER + "".join(line + "\n" for line in lines)


@given(_wait_times_text())
def test_hourly_waits_equals_parse_then_aggregate(text):
    assert hourly_waits(text) == aggregate_hourly(parse_wait_times(text))


@given(_wait_times_text(bad_row=True))
def test_hourly_waits_reports_the_same_error(text):
    with pytest.raises(DataError) as one_pass:
        hourly_waits(text)
    with pytest.raises(DataError) as two_step:
        aggregate_hourly(parse_wait_times(text))
    assert str(one_pass.value) == str(two_step.value)


# Timestamps of one day, "T" or " " and five hours: many share their first
# 13 characters, or their first 12 with another hour, and differ after them.
_SAME_13_STAMP = st.builds(
    "2016-08-22{}{}{}".format, st.sampled_from(["T", " "]), st.sampled_from(["07", "06", "08", "21", "22"]),
    st.sampled_from([":05", ":00", ":59", ":30:15", ""]),
)
# Bad rows that a memo or a check out of order would let through or name
# wrongly: a timestamp bad only after its first 13 characters, and trucks on
# RB with a bad wait.
_SAME_13_BAD_ROW = st.one_of(
    st.builds("2016-08-22T07{},PB,to_us,passenger,1".format, st.sampled_from([":60", ":5", "Z", ":05+01:00"])),
    st.builds("2016-08-22T07:05,RB,to_us,commercial,{}".format, st.sampled_from(["-1", "nan", "abc"])),
)


@st.composite
def _wait_times_text_with_same_13_stamps(draw):
    """`_wait_times_text`, good or with a bad row, plus up to 12 good rows
    stamped by `_SAME_13_STAMP` and maybe one `_SAME_13_BAD_ROW`, each at a
    random line."""
    lines = draw(st.one_of(_wait_times_text(), _wait_times_text(bad_row=True))).split("\n")
    rows = [draw(_SAME_13_STAMP) + "," + draw(_wait_row()).partition(",")[2] for _ in range(draw(st.integers(0, 12)))]
    if draw(st.booleans()):
        rows.append(draw(_SAME_13_BAD_ROW))
    for row in rows:
        lines.insert(draw(st.integers(1, len(lines) - 1)), row)
    return "\n".join(lines)


@given(_wait_times_text_with_same_13_stamps())
def test_the_wait_parser_reads_as_a_plain_row_by_row_parse(text):
    """Its memos of timestamp and stream texts change no record, hour, mean or error."""
    try:
        want = parse_wait_times_row_by_row(text)
    except DataError as exc:
        for parse in (parse_wait_times, hourly_waits):
            with pytest.raises(DataError) as got:
                parse(text)
            assert str(got.value) == str(exc)
    else:
        assert parse_wait_times(text) == want
        assert hourly_waits(text) == aggregate_hourly(want)


@given(st.lists(_wait_row(), max_size=40), st.randoms())
def test_streams_and_hours_ascend_whatever_the_row_order(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    texts = [HEADER + "".join(row + "\n" for row in order) for order in (rows, shuffled)]
    tables = [hourly_waits(texts[0]), hourly_waits(texts[1]), aggregate_hourly(parse_wait_times(texts[1]))]
    for table in tables:
        assert list(table) == sorted(table)
        assert all(list(series) == sorted(series) for series in table.values())
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize(
    "row, message",
    [
        ("nope,XX,north,bus,-1", "malformed timestamp 'nope'"),
        ("2016-08-22T07:05,XX,north,bus,-1", "unknown bridge 'XX'"),
        ("2016-08-22T07:05,RB,north,bus,-1", "unknown direction 'north'"),
        ("2016-08-22T07:05,RB,to_us,bus,-1", "unknown vehicle_type 'bus'"),
        ("2016-08-22T07:05,RB,to_u\u017f,pa\u017f\u017fenger,-1", "unknown direction 'to_u\u017f'"),
        ("2016-08-22T07:05,RB,to_us,commerc\u0131al,-1", "unknown vehicle_type 'commerc\u0131al'"),
        ("20160822T0705,RB,to_us,commercial,1", "malformed timestamp '20160822T0705'"),
        ("2016-08-22T07:05,RB,to_us,commercial,nan", "non-finite wait_minutes 'nan'"),
        ("2016-08-22T07:05,RB,to_us,commercial,1_0", "malformed wait_minutes '1_0'"),
        ("2016-08-22T07:05,RB,to_us,commercial,\u0661", "malformed wait_minutes '\u0661'"),
        ("2016-08-22T07:05,RB,to_us,commercial,-1", "negative wait_minutes '-1'"),
        ("2016-08-22T07:05,RB,to_us,commercial,1", "RB carries no commercial vehicles"),
        ("2016-08-22T05:05,RB,to_us,commercial,1", "RB carries no commercial vehicles"),  # outside 7..21
    ],
)
def test_row_errors_follow_field_order(row, message):
    # The first row makes every good field of the second one already seen.
    text = HEADER + "2016-08-22T07:05,RB,to_us,passenger,1\n" + row + "\n"
    with pytest.raises(DataError) as exc:
        hourly_waits(text)
    assert str(exc.value) == f"line 3: {message}"


@pytest.mark.parametrize(
    "rows, message",
    [
        ('2016-08-22T07:05,PB,to_us,passenger,"1\n"\nnope,PB,to_us,passenger,1\n', "line 4: malformed timestamp 'nope'"),
        ('\n"no\npe",PB,to_us,passenger,1\n', "line 3: malformed timestamp 'no\\npe'"),
    ],
    ids=["after_a_row_over_two_lines", "a_row_over_two_lines"],
)
def test_errors_name_the_first_physical_line_of_their_row(rows, message):
    # A quoted field may carry a row over several lines.
    with pytest.raises(DataError) as exc:
        hourly_waits(HEADER + rows)
    assert str(exc.value) == message


@st.composite
def _spliced_row(draw):
    """A good row with a line break, a quote, a NUL, a comma or a huge wait
    put in at a random place."""
    row = draw(_wait_row())
    at = draw(st.integers(0, len(row)))
    return row[:at] + draw(st.sampled_from(["\r", '"', "\x00", ",", "x", "1e308"])) + row[at:]


@given(
    st.one_of(
        st.text(),
        st.lists(st.one_of(_wait_row(), _wait_row(bad=True), _spliced_row(), st.text(max_size=12)))
        .map(lambda lines: HEADER + "\n".join(lines)),
    )
)
def test_any_text_gives_hours_or_a_data_error(text):
    for parse in (hourly_waits, lambda t: aggregate_hourly(parse_wait_times(t))):
        try:
            assert isinstance(parse(text), dict)
        except DataError:
            pass


# Timestamp texts near the form whose first 13 characters fix the hour: a
# minute or an hour out of range, leading spaces (the last one is a date, ":"
# and an hour behind three spaces), other separators, a zone, and forms only
# Python 3.11 reads.
_NEAR_HOUR_MINUTE = [
    "2016-08-22T07:60", "2016-08-22T24:00", "2016-08-22T23:59", "2016-08-22 07:05", "2016-08-22\n07:05",
    "2016-08-22-07:05", "2016-08-22+07:05", "2016-08-2207:05", " 2016-08-22T07:05", "   2016-08-22:07",
    "   2016-08-22T07", "2016-08-22T07:05Z", "2016-08-22T07:05+01:00", "2016-08-22T7:05", "2016-02-30T07:05",
    "2016-08-22T07:05:00", "2016-08-22T07:05:60", "2016-08-22T0705", "2016-W34-1T07:05", "2016-08-22T07",
]


@given(
    st.one_of(
        st.sampled_from(_GOOD["timestamp"] + _BAD["timestamp"] + _NEAR_HOUR_MINUTE),
        st.builds(
            "{}-{}-{}{}{}:{}".format, st.sampled_from(["2016", "0001", "9999", "１２３４"]),
            st.sampled_from(["02", "08", "12", "13"]), st.sampled_from(["22", "29", "30", "31"]),
            st.characters(exclude_characters="\x00"), st.sampled_from(["00", "07", "21", "23", "24", " 7"]),
            st.sampled_from(["00", "30", "59", "60", "5 "]),
        ),
        st.text(st.characters(exclude_characters="\x00"), max_size=20),
    ),
    st.sampled_from(["00", "05", "59"]),
    st.booleans(),
)
def test_a_timestamp_gets_the_hour_it_parses_to_after_one_with_its_first_13_characters(text, minutes, with_minutes):
    """Before `text` comes its first 13 characters, with `minutes` after a
    ":" or alone, if that text is valid. Only `text`'s row waits 1 minute."""
    def outcome(ts):
        try:
            return _window_hour(_parse_timestamp(ts, 1))
        except DataError as exc:
            return exc.message

    other = text[:13] + ":" + minutes if with_minutes else text[:13]
    quoted = ['"' + ts.replace('"', '""') + f'",PB,to_us,passenger,{ts is text:d}\n' for ts in (other, text)
              if ts is text or not isinstance(outcome(ts), str)]
    try:
        got = next((hour for hour, waits in _wait_groups([HEADER, *quoted])[PB_CAR].items() if 1 in waits), None)
    except DataError as exc:
        got = exc.message
    assert got == outcome(text)


# A small good text for each of the other parsers, which the fuzz test below
# mangles field by field (CSV) or value by value (tree json).
_GOOD_TEXTS = {
    "weather": WHEADER + "2016-08-22T07:00,60.5,10,0.00,Clear\n2016-08-22T08:00,-3.0,4,0.12,snow\n",
    "holidays": "date,country\n2016-09-05,US\n2016-10-10,ca\n",
    "observations": ",".join(OBSERVATIONS_HEADER) + "\n"
    "2016-09-05T08:00,to_us,passenger,20.0,5.25,0.0,delay-slight delay-slight delay,"
    "9,Fall,Early_morning,0,1,0,63.5,9,0.1,Rain\n"
    "2016-09-05T09:00,to_can,commercial,35.0,,10.0,heavy delay-slight delay,"
    "9,Fall,Early_morning,0,1,0,60.0,10,0.0,Clear\n",
}
# Two passenger patterns, the leaf labels of _TREE_DOC.
_A, _B = "delay-slight delay-slight delay", "slight delay-slight delay-slight delay"
_TREE_DOC = {
    "vehicle": "passenger",
    "direction": "to_us",
    "schema": [
        {"name": "weekend", "kind": "categorical", "levels": [0, 1]},
        {"name": "temperature_f", "kind": "continuous", "levels": None},
    ],
    "nodes": [
        {"id": 0, "kind": "split", "rule": {"feature": "weekend", "kind": "subset", "left": [0], "right": [1]},
         "gain": 0.125, "n": 4, "counts": {_A: 1, _B: 3}, "label": None, "children": [1, 2]},
        {"id": 1, "kind": "split", "rule": {"feature": "temperature_f", "kind": "threshold", "threshold": 50.5},
         "gain": 0.5, "n": 2, "counts": {_A: 1, _B: 1}, "label": None, "children": [3, 4]},
        {"id": 2, "kind": "leaf", "rule": None, "gain": None, "n": 2, "counts": {_B: 2}, "label": _B, "children": None},
        {"id": 3, "kind": "leaf", "rule": None, "gain": None, "n": 1, "counts": {_A: 1}, "label": _A, "children": None},
        {"id": 4, "kind": "leaf", "rule": None, "gain": None, "n": 1, "counts": {_B: 1}, "label": _B, "children": None},
    ],
}
_ODD_FIELDS = ["", "nan", "inf", "-1", "1e308", "0", "11", '"', "\r", "\x00", "Monsoon", "2016-02-30",
               "2016-08-22T07:05+00:00", "delay", "mx", "commercial", "to_can"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 5) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mangled_csv(draw, good):
    """Rows of `good` in any order and number, some fields replaced by odd
    or random text; now and then the header too."""
    header, *rows = good.splitlines()
    lines = [header] + draw(st.lists(st.sampled_from(rows), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        fields = lines[at].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_ODD_FIELDS) | st.text(max_size=6))
        lines[at] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _places(value):
    """(container, key) of every value nested in a json document."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield value, key
        yield from _places(inner)


@st.composite
def _mangled_tree(draw):
    """The json of _TREE_DOC with a few values replaced by random json or
    their keys dropped."""
    doc = copy.deepcopy(_TREE_DOC)
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_places(doc))))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_JSON_VALUES)
    return json.dumps(doc)


def _import_and_render(text):
    """import_tree, then every export and the factor summary of its result."""
    tree = import_tree(text)
    for format in TREE_FORMATS:
        export_tree(tree, format)
    if tree.vehicle is not None and tree.direction is not None:
        factor_summary_csv(factor_summary({(tree.vehicle, tree.direction): tree}))
    return tree


@pytest.mark.parametrize(
    "parse, texts",
    [
        (parse_weather, _mangled_csv(_GOOD_TEXTS["weather"])),
        (parse_holidays, _mangled_csv(_GOOD_TEXTS["holidays"])),
        (read_observations, _mangled_csv(_GOOD_TEXTS["observations"])),
        (_import_and_render, _mangled_tree()),
    ],
    ids=["parse_weather", "parse_holidays", "read_observations", "import_tree"],
)
@settings(max_examples=60)
@given(data=st.data())
def test_other_parsers_give_a_value_or_a_data_error(parse, texts, data):
    text = data.draw(st.one_of(st.text(), texts))
    try:
        parse(text)
    except DataError:
        pass


def test_good_texts_of_the_fuzz_test_parse():
    assert len(parse_weather(_GOOD_TEXTS["weather"])) == 2
    assert parse_holidays(_GOOD_TEXTS["holidays"])[1] == {datetime(2016, 10, 10).date()}
    assert len(read_observations(_GOOD_TEXTS["observations"])) == 2
    assert _import_and_render(json.dumps(_TREE_DOC)).vehicle is Vehicle.PASSENGER


@pytest.mark.parametrize(
    "parse, kind, name, bad, what",
    [
        (parse_weather, "weather", "Clear", "Ra\u0131n", "condition"),
        (parse_holidays, "holidays", "US", "u\u017f", "country"),
    ],
    ids=["weather", "holidays"],
)
def test_names_are_ascii(parse, kind, name, bad, what):
    # str.upper() folds "\u0131" to "I" and "\u017f" to "S", so each bad name once read as a member.
    with pytest.raises(DataError) as exc:
        parse(_GOOD_TEXTS[kind].replace(f",{name}", f",{bad}", 1))  # on line 2
    assert str(exc.value) == f"line 2: unknown {what} {bad!r}"


@pytest.mark.parametrize(
    "parse, kind, good, bad, message",
    [
        (parse_weather, "weather", ",60.5,", ",6_0.5,", "malformed temperature_f '6_0.5'"),
        (parse_weather, "weather", ",10,", ",\u0661\u0660,", "malformed visibility '\u0661\u0660'"),
        (read_observations, "observations", ",9,Fall,", ",\u0669,Fall,", "month '\u0669' is not a declared level"),
        (read_observations, "observations", ",63.5,", ",6_3.5,", "temperature_f '6_3.5' is not a finite number"),
        (read_observations, "observations", ",5.25,", ",5.2_5,", "bad observation row: '5.2_5' is not an ASCII number"),
    ],
    ids=["temperature", "visibility", "month", "feature_temperature", "wait"],
)
def test_numbers_are_ascii(parse, kind, good, bad, message):
    # int and float alone read "\u0661\u0660" as 10 and "1_0" as 10.
    with pytest.raises(DataError) as exc:
        parse(_GOOD_TEXTS[kind].replace(good, bad, 1))  # on line 2
    assert str(exc.value) == f"line 2: {message}"


# ------------------------------------------------------- reading a file


@st.composite
def _file_text(draw, texts):
    """Text from `texts` with a few edits: a row's first field quoted and
    carried over to the next line, or a lone "\\r" or a character of two to
    four UTF-8 bytes put in at a random place; now and then the last line
    loses its "\\n"."""
    lines = draw(texts).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["span", "\r", "\u00e9", "\u20ac", "\U0001d11e"]))
        if edit == "span":
            first, comma, rest = lines[at].partition(",")
            lines[at] = f'"{first}\n"{comma}{rest}'
        else:
            cut = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:cut] + edit + lines[at][cut:]
    text = "\n".join(lines)
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


def _outcome(parse, source):
    """("value", parse(source)), or ("error", message) of the data error it raises."""
    try:
        return "value", parse(source)
    except DataError as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "parse, texts",
    [
        (hourly_waits, st.one_of(_wait_times_text(), _wait_times_text(bad_row=True))),
        (parse_weather, _mangled_csv(_GOOD_TEXTS["weather"])),
        (parse_holidays, _mangled_csv(_GOOD_TEXTS["holidays"])),
        (read_observations, _mangled_csv(_GOOD_TEXTS["observations"])),
    ],
    ids=["hourly_waits", "parse_weather", "parse_holidays", "read_observations"],
)
@settings(max_examples=40)
@given(data=st.data())
def test_a_file_parses_as_its_decoded_text(parse, texts, data):
    text = data.draw(st.one_of(st.text(), _file_text(texts)))
    kind, want = _outcome(parse, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "input.csv")
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(lambda p: _parse_file(parse, p), path) == (kind, f"{path}: {want}" if kind == "error" else want)


def test_parsing_a_file_holds_its_groups_not_its_text(tmp_path):
    # 30,000 samples in 9 (hour, stream) groups: a file of about 1.25 MB.
    path = tmp_path / "wait_times.csv"
    streams = ("PB,to_us,passenger", "RB,to_can,passenger", "LQ,to_us,commercial")
    with open(path, "w", encoding="utf-8") as file:
        file.write(HEADER)
        for i in range(30_000):
            file.write(f"2016-08-22T{7 + i % 3:02d}:{i % 60:02d},{streams[i // 3 % 3]},{i % 97 / 4}\n")
    tracemalloc.start()
    try:
        hours = _parse_file(hourly_waits, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, hours.values())) == 9
    assert peak < path.stat().st_size / 2


def test_a_timestamp_text_keeps_only_its_hour():
    # 30,000 distinct timestamp texts, one a second from 07:00:00, in 9 hours,
    # taken in turn by 3 streams: each stream's hour starts at another text.
    streams = ("PB,to_us,passenger", "LQ,to_us,passenger", "RB,to_can,passenger")

    def lines():
        yield HEADER
        for i in range(30_000):
            yield f"2016-08-22T{7 + i // 3600:02d}:{i // 60 % 60:02d}:{i % 60:02d},{streams[i % 3]},{i % 97 / 4}\n"

    tracemalloc.start()
    try:
        hours = {id(hour) for series in _wait_groups(lines()).values() for hour in series}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hours) == 9
    # The memo of each text: the text, a dict entry and a shared hour (about
    # 100 bytes), not also a datetime and a tuple (about 200).
    assert peak < 150 * 30_000


# ---------------------------------------------- reading a file in chunks


@contextmanager
def _chunks(count, size, forks=None):
    """A file of `size` bytes read in `count` chunks: count usable CPUs and
    a chunk minimum of size // count. os.fork appends to `forks`, if given."""
    fork = os.fork
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_CHUNK_MIN", max(1, size // count))
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        if forks is not None:
            mp.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
        yield


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _table_or_error(read, path):
    """Each stream's hours and means in order, or the data error's message."""
    try:
        return [(stream, list(series.items())) for stream, series in read(path).items()]
    except DataError as exc:
        return str(exc)


@st.composite
def _wait_file(draw):
    """wait_times.csv bytes: unquoted rows and blank lines, up to two bad
    rows anywhere, lines ended by "\n" or "\r\n", now and then no final
    newline, and a byte that is not UTF-8, a '"' or a quoted field that
    holds a newline at the start of a row (a '"' keeps the file in one
    chunk)."""
    unquoted = _wait_row().map(lambda row: row.replace('"', ""))
    lines = draw(st.lists(st.one_of(unquoted, st.just("")), max_size=40))
    for row in draw(st.lists(_wait_row(bad=True).map(lambda row: row.replace('"', "")), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), row)
    lines = [line.encode() for line in [HEADER.rstrip("\n"), *lines]]
    if lines[1:] and draw(st.booleans()):
        at = draw(st.integers(1, len(lines) - 1))
        odd = draw(st.sampled_from([b"\xff", b'"', b'"x\ny",']))
        cut = 0 if odd == b'"x\ny",' else draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:cut] + odd + lines[at][cut:]
    data = b"".join(line + draw(st.sampled_from([b"\n", b"\r\n"])) for line in lines)
    return data.rstrip(b"\r\n") if draw(st.booleans()) else data


@settings(max_examples=60, deadline=None)
@given(_wait_file(), st.integers(2, 5))
def test_a_file_in_chunks_gives_the_table_or_the_first_error_of_one_pass(data, count):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "wait_times.csv")
        path.write_bytes(data)
        with _chunks(count, len(data)):
            assert _table_or_error(_hourly_waits_file, path) == _table_or_error(partial(_parse_file, hourly_waits), path)
    _no_child_left()


def _rows(hours):
    """Two rows per hour from 2016-08-22T07:00, one per passenger to_us bridge."""
    return b"".join(
        f"2016-08-22T{7 + h % 15:02d}:{h % 60:02d},{bridge},to_us,passenger,{h % 7}\n".encode()
        for h in range(hours) for bridge in ("PB", "LQ")
    )


@pytest.mark.parametrize("quote", [None, "header", "last_row"])
def test_a_file_in_three_chunks_is_read_by_two_children_unless_it_holds_a_quote(tmp_path, quote):
    path = tmp_path / "wait_times.csv"
    header, rows = HEADER.encode(), _rows(600)
    if quote == "header":
        header = b'"timestamp"' + header[len(b"timestamp"):]
    elif quote == "last_row":
        rows += b'"2016-08-22T08:00",PB,to_us,passenger,1\n'
    path.write_bytes(header + rows)
    forks = []
    with _chunks(3, path.stat().st_size, forks):
        assert _hourly_waits_file(path) == _parse_file(hourly_waits, path)
    assert len(forks) == (0 if quote else 2)
    _no_child_left()


@pytest.mark.parametrize(
    "where, line", [("first", 2), ("last", 1202)], ids=["in_the_first_chunk", "in_the_last_chunk"]
)
def test_a_data_error_in_any_chunk_names_its_line_and_leaves_no_child(tmp_path, where, line):
    path = tmp_path / "wait_times.csv"
    bad = b"2016-08-22T07:00,PB,to_us,passenger,-1\n"
    path.write_bytes(HEADER.encode() + (bad + _rows(600) if where == "first" else _rows(600) + bad))
    forks = []
    with _chunks(3, path.stat().st_size, forks), pytest.raises(DataError) as exc:
        _hourly_waits_file(path)
    assert str(exc.value) == f"{path}: line {line}: negative wait_minutes '-1'"
    assert len(forks) == 2
    _no_child_left()


@pytest.mark.parametrize("fails", ["pipe", "fork"])
def test_a_second_pipe_or_fork_that_fails_ends_the_first_child_and_reads_the_file_here(tmp_path, monkeypatch, capsys,
                                                                                       fails):
    import errno

    path = tmp_path / "wait_times.csv"
    path.write_bytes(HEADER.encode() + _rows(600))
    argv = ["report", "hourly-dist", "--wait-times", str(path), "--bridge", "PB", "--vehicle", "passenger",
            "--direction", "to_us"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()
    forks, calls = [], []
    with _chunks(3, path.stat().st_size, forks):
        real = getattr(os, fails)  # os.fork records each child in `forks`

        def second_fails():
            calls.append(fails)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real()

        monkeypatch.setattr(os, fails, second_fails)
        assert _hourly_waits_file(path) == _parse_file(hourly_waits, path)
        _no_child_left()
        assert len(forks) == 1
        calls.clear()
        assert main(argv) == 0
        _no_child_left()
    assert capsys.readouterr() == (want, "")
    assert len(forks) == 2
    if fds:  # no pipe end is left open; listing the directory opens one more
        assert set(os.listdir("/proc/self/fd")) == fds


def test_a_child_that_ends_with_no_result_is_an_internal_error(tmp_path, monkeypatch, capsys):
    import pickle

    def fail(*args):
        raise RuntimeError("no pickle")

    path = tmp_path / "wait_times.csv"
    path.write_bytes(HEADER.encode() + _rows(600))
    monkeypatch.setattr(pickle, "dump", fail)  # each child fails, and exits, before it writes
    with _chunks(2, path.stat().st_size):
        assert main(["report", "hourly-dist", "--wait-times", str(path), "--bridge", "PB",
                     "--vehicle", "passenger", "--direction", "to_us"]) == 3
    assert capsys.readouterr().err == "internal error: EOFError: Ran out of input\n"
    _no_child_left()


# A process that reads a file in two chunks, with a grouping that sleeps for
# a minute in the parent. The child finds no prctl, so it outlives its
# parent; its grouping, which runs after its check of its parent, prints its
# pid, sleeps half a second and returns a result larger than a pipe's buffer.
_KILLED_PARENT = """
import ctypes, os, sys, time
from array import array
from delaytree import ingest
parent = os.getpid()
ctypes.CDLL = lambda name: object()
def groups(lines):
    if os.getpid() == parent:
        time.sleep(60)
    print(os.getpid(), flush=True)
    time.sleep(0.5)
    return {("s",): {0: array("d", bytes(800_000))}}
ingest._wait_groups, ingest._CHUNK_MIN = groups, 1
os.sched_getaffinity = lambda pid: {0, 1}
ingest._hourly_waits_file(sys.argv[1])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads a process's state under /proc")
def test_a_child_whose_parent_is_killed_exits_once_its_chunk_is_read(tmp_path):
    import signal
    import subprocess
    import time

    path = tmp_path / "wait_times.csv"
    path.write_bytes(HEADER.encode() + _rows(600))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_PARENT, str(path)], stdout=subprocess.PIPE, env=env)
    pid = int(proc.stdout.readline())  # the child is past its check of its parent
    proc.kill()
    proc.wait()
    proc.stdout.close()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:  # the state follows the command name in parentheses
            if Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] == "Z":
                return
        except FileNotFoundError:
            return
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    pytest.fail(f"the child {pid} still runs 10 s after its parent was killed")


# A process that reads a file in two chunks, with a grouping that sleeps for a
# minute in the parent; the child prints its pid, then reads its 600 lines at
# 10 ms a line.
_SLOW_CHILD = """
import os, sys, time
from delaytree import ingest
parent = os.getpid()
def groups(lines):
    if os.getpid() == parent:
        time.sleep(60)
    print(os.getpid(), flush=True)
    for _ in lines:
        time.sleep(0.01)
    return {}
ingest._wait_groups, ingest._CHUNK_MIN = groups, 1
os.sched_getaffinity = lambda pid: {0, 1}
ingest._hourly_waits_file(sys.argv[1])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="a child's death signal and /proc are Linux's")
def test_a_child_whose_parent_is_killed_ends_before_its_chunk_is_read(tmp_path):
    import signal
    import subprocess
    import time

    path = tmp_path / "wait_times.csv"
    path.write_bytes(HEADER.encode() + _rows(600))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", _SLOW_CHILD, str(path)], stdout=subprocess.PIPE, env=env)
    pid = int(proc.stdout.readline())  # the child is reading its chunk
    proc.kill()
    proc.wait()
    proc.stdout.close()
    deadline = time.monotonic() + 2
    while time.monotonic() < deadline:
        try:  # the state follows the command name in parentheses
            if Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] == "Z":
                return
        except FileNotFoundError:
            return
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    pytest.fail(f"the child {pid} still reads its chunk 2 s after its parent was killed")


# --------------------------------------------------------------- join


def weather_at(ts, temp=50.0):
    return WeatherRecord(datetime.fromisoformat(ts), temp, 10, 0.0, Condition.CLEAR)


def hours_at(*stamps):
    """A one-stream hourly table holding the hours that start at `stamps`."""
    return hourly_table([(datetime.fromisoformat(ts), *PB_CAR, 5.0) for ts in stamps])


def test_join_exact_hour():
    joined = join_weather(hours_at("2016-08-22T08:00"), [weather_at("2016-08-22T08:00")])
    assert joined[datetime(2016, 8, 22, 8)].timestamp == datetime(2016, 8, 22, 8)


def test_join_nearest_predecessor():
    weather = [weather_at("2016-08-22T06:00"), weather_at("2016-08-22T07:30"), weather_at("2016-08-22T10:00")]
    joined = join_weather(hours_at("2016-08-22T09:00"), weather)
    assert joined[datetime(2016, 8, 22, 9)].timestamp == datetime(2016, 8, 22, 7, 30)


def test_join_gap_over_three_hours_fails():
    with pytest.raises(DataError, match="2016-08-22T12:00"):
        join_weather(hours_at("2016-08-22T12:00"), [weather_at("2016-08-22T08:00")])


def test_join_gap_exactly_three_hours_ok():
    joined = join_weather(hours_at("2016-08-22T12:00"), [weather_at("2016-08-22T09:00")])
    assert joined[datetime(2016, 8, 22, 12)].timestamp == datetime(2016, 8, 22, 9)


def test_join_ignores_future_records():
    weather = [weather_at("2016-08-22T07:15"), weather_at("2016-08-22T09:00")]
    joined = join_weather(hours_at("2016-08-22T08:00"), weather)
    assert joined[datetime(2016, 8, 22, 8)].timestamp == datetime(2016, 8, 22, 7, 15)


def test_join_keys_each_distinct_hour_once_in_hour_order():
    hours = hours_at("2016-08-22T09:00", "2016-08-22T08:00")
    hours[(Bridge.LQ, Direction.TO_CAN, Vehicle.COMMERCIAL)] = {datetime(2016, 8, 22, 8): 1.0}
    joined = join_weather(hours, [weather_at("2016-08-22T07:30"), weather_at("2016-08-22T08:45")])
    assert list(joined) == [datetime(2016, 8, 22, 8), datetime(2016, 8, 22, 9)]
    assert [w.timestamp for w in joined.values()] == [datetime(2016, 8, 22, 8, 45)] * 2


def test_join_names_the_first_stale_hour():
    hours = hours_at("2016-08-22T13:00", "2016-08-22T12:00", "2016-08-22T09:00")
    with pytest.raises(DataError, match="of 2016-08-22T12:00"):
        join_weather(hours, [weather_at("2016-08-22T08:00")])


def _join_oracle(hour_start, weather):
    """Linear scan: latest record before the end of the hour, within the
    staleness bound measured from the hour start."""
    best = None
    for w in weather:
        if w.timestamp < hour_start + timedelta(hours=1):
            if best is None or w.timestamp > best.timestamp:
                best = w
    if best is None or hour_start - best.timestamp > timedelta(hours=3):
        return None
    return best


@given(
    st.lists(
        st.integers(0, 12 * 60).map(
            lambda m: weather_at((datetime(2016, 8, 22, 5) + timedelta(minutes=m)).isoformat(), temp=float(m))
        ),
        max_size=25,
    ),
    st.integers(7, 16),
)
def test_join_matches_linear_scan_oracle(weather, hour):
    hour_start = datetime(2016, 8, 22, hour)
    expected = _join_oracle(hour_start, weather)
    if expected is None:
        with pytest.raises(DataError):
            join_weather(hours_at(hour_start.isoformat()), weather)
    else:
        joined = join_weather(hours_at(hour_start.isoformat()), weather)
        assert joined[hour_start].timestamp == expected.timestamp
