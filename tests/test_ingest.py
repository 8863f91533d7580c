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
import threading
import tracemalloc
from array import array
from datetime import date, datetime, timedelta
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delaytree import ingest, synth
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
    _file_groups,
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
    # fsum(3 * w) / 3 rounds to just below w for the first w and just above it for the second
    for wait, above in ((5.39761367449573e-28, False), (0.1, True)):
        unclamped = math.fsum([wait] * 3) / 3
        assert unclamped != wait and (unclamped > wait) == above
        out = aggregate_hourly([rec(ts=f"2016-08-22T08:{m:02d}", wait=wait) for m in (0, 20, 40)])
        assert out[PB_CAR][datetime(2016, 8, 22, 8)] == wait


def _clamped_mean(values):
    """min(max(mean, lo), hi) of `values`, the mean by fsum or, past the float range, by Fraction."""
    try:
        mean = math.fsum(values) / len(values)
    except OverflowError:
        mean = float(sum(map(Fraction, values)) / len(values))
    return min(max(mean, min(values)), max(values))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from((0.0, -0.0, 5e-324, 0.1, 5.39761367449573e-28, 1e308, 1.7e308))
                | st.floats(0.0, 1.7e308), min_size=1, max_size=8))
@example([0.1] * 3)
@example([5.39761367449573e-28] * 3)
@example([-0.0])
@example([0.0, -0.0])
@example([-0.0, 0.0, -0.0])
@example([5e-324, -0.0])  # the mean 0.0 ties the min -0.0 below the first sample
@example([1.7e308, 1.7e308, 0.0])
def test_an_hourly_mean_is_its_fsum_mean_clamped_into_its_samples(values):
    # repr tells -0.0 from 0.0: min and max keep the first of equal values
    for group in (values, array("d", values)):
        means = ingest._hourly_means({PB_CAR: {datetime(2016, 8, 22, 8): group}})
        assert repr(means[PB_CAR][datetime(2016, 8, 22, 8)]) == repr(_clamped_mean(values))


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


# ------------------------------------------------ reading a file in blocks


def _table_or_error(read, path):
    """Each stream's hours and means in order, or the data error's message."""
    try:
        return [(stream, list(series.items())) for stream, series in read(path).items()]
    except DataError as exc:
        return str(exc)


def _spy_on_the_exact_loop(mp):
    """Replace ingest._wait_groups by a spy; the list returned gets each line the exact loop reads, its header
    first."""
    read = []
    mp.setattr(ingest, "_wait_groups", lambda lines, groups=None: _wait_groups(
        (read.append(line) or line for line in lines), groups))
    return read


def _block_starts(data, block):
    """The 0-based index of the first line of each block that `_file_groups` reads of `data` after its header:
    `block` bytes, then on to the end of that line."""
    file, starts, line = io.BytesIO(data), [], 1
    file.readline()
    while chunk := file.read(block) + file.readline():
        starts.append(line)
        line += chunk.count(b"\n")
    return starts


_STRICT_HEADERS = [HEADER, HEADER.replace("\n", "\r\n")]


def _has_the_samples_of_the_exact_loop(path):
    """Unless the exact loop fails on the file at `path`, `_file_groups` gives its samples, each hour's in file
    order, so that no row is merged twice: a mean alone cannot show an hour's samples all doubled."""
    try:
        want = _parse_file(_wait_groups, path)
    except DataError:
        return
    with open(path, "rb") as file:
        assert _file_groups(file) == want


def _reads_as_the_exact_loop(data, block):
    """`_hourly_waits_file` of a file of `data`, read `block` bytes at a time, gives the table or the message
    of `_parse_file(hourly_waits, ...)`, and `_file_groups` the exact loop's samples; returns whether the strict
    path took every row, which leaves the exact loop a header in synth's form, no row and no error (a line that is
    not UTF-8 fails as it is read)."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp, "wait_times.csv")
        path.write_bytes(data)
        mp.setattr(ingest, "_BLOCK", block)
        want = _table_or_error(partial(_parse_file, hourly_waits), path)
        _has_the_samples_of_the_exact_loop(path)
        read = _spy_on_the_exact_loop(mp)
        assert _table_or_error(_hourly_waits_file, path) == want
    return read in ([header] for header in _STRICT_HEADERS) and not isinstance(want, str)


@st.composite
def _wait_file(draw):
    """wait_times.csv bytes: unquoted rows and blank lines, up to two bad
    rows anywhere, lines ended by "\n" or "\r\n", now and then no final
    newline, and a byte that is not UTF-8, a '"' or a quoted field that
    holds a newline at the start of a row."""
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
def test_a_file_in_blocks_gives_the_table_or_the_first_error_of_the_exact_loop(data, count):
    _reads_as_the_exact_loop(data, max(1, len(data) // count))


_STREAM_TEXTS = [f"{b},{d},{v}" for b in ("PB", "RB", "LQ") for d in ("to_us", "to_can")
                 for v in ("passenger", "commercial") if (b, v) != ("RB", "commercial")]
# A row in synth's form: two days, every hour and minute, waits of up to 3 digits before the point and 3 after.
_SYNTH_ROW = st.builds(
    "2016-08-{:02d}T{:02d}:{:02d},{},{}.{}".format, st.integers(22, 23), st.integers(0, 23), st.integers(0, 59),
    st.sampled_from(_STREAM_TEXTS), st.integers(0, 999), st.from_regex(r"[0-9]{1,3}", fullmatch=True),
)


def _put(text):
    return lambda row, at: row[:at] + text + row[at:]


def _wait(text):
    return lambda row, at: row.rpartition(",")[0] + "," + text


# A line made of a row in synth's form (and a place in it): a row off the form that the exact loop reads, one it
# rejects, a row of 308 digits before the point (in the form), or a line that holds what no row in the form holds.
_LINE_FAULTS = {
    "names in upper case": lambda row, at: row.upper(),
    "spaces": lambda row, at: row.replace(",", " , ", 1),
    "a space for T": lambda row, at: row.replace("T", " "),
    "seconds and a fraction": lambda row, at: row.replace(",", ":30.250,", 1),
    "a wait without a point": _wait("7"),
    "a wait with an exponent": _wait("1e1"),
    "a bad date": lambda row, at: "2016-02-30" + row[10:],
    "hour 24": lambda row, at: row[:11] + "24" + row[13:],
    "minute 60": lambda row, at: row[:14] + "60" + row[16:],
    "trucks on RB": lambda row, at: row[:17] + "RB,to_us,commercial," + row.rpartition(",")[2],
    "a wait of two points": _wait("1.2.3"),
    "a wait of a point": _wait("."),
    "a wait of 308 digits": _wait("9" * 308 + ".5"),
    "a wait of 309 digits": _wait("9" * 309 + ".5"),
    "a wait of 400 digits": _wait("9" * 400 + ".5"),
    "a prefix": lambda row, at: "x" + row,
    "a field before the row": lambda row, at: "0," + row,
    "a blank line": lambda row, at: "",
    "a carriage return": _put("\r"),
    "a NUL": _put("\x00"),
    "a byte that is not UTF-8": _put("\udcff"),
    "a character that is not ASCII": _put("\u00e9"),
}
_HEADERS = {"a header with a space": " " + HEADER, "a header ended by CRLF": HEADER.replace("\n", "\r\n"),
            "a quoted header": '"timestamp"' + HEADER[len("timestamp"):]}


@pytest.mark.parametrize(
    "fault", ["none", *_LINE_FAULTS, *_HEADERS, "no final newline", "CRLF line ends"],
    ids=lambda fault: fault.replace(" ", "_"),
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_strict_path_gives_the_table_or_the_first_error_of_the_exact_loop(fault, data):
    """A file of rows in synth's form with one fault, read in blocks of 1 to 100 bytes, so that rows straddle
    them. Only a file in the form is read by the strict path; a "\r" is in the form only right before a "\n"."""
    rows = data.draw(st.lists(_SYNTH_ROW, max_size=30))
    in_form = fault in ("none", "a wait of 308 digits", "a header ended by CRLF", "CRLF line ends")
    if fault in _LINE_FAULTS:
        row = data.draw(_SYNTH_ROW)
        where, at = data.draw(st.integers(0, len(rows))), data.draw(st.integers(0, len(row)))
        rows.insert(where, _LINE_FAULTS[fault](row, at))
        in_form |= fault == "a carriage return" and at == len(row)
    text = _HEADERS.get(fault, HEADER) + "".join(row + "\n" for row in rows)
    text = text[:-1] if fault == "no final newline" else text
    text = text.replace("\n", "\r\n") if fault == "CRLF line ends" else text
    strict = _reads_as_the_exact_loop(text.encode("utf-8", "surrogateescape"), data.draw(st.integers(1, 100)))
    assert strict is in_form


_RUN_KEY = st.tuples(st.builds("2016-08-{:02d}T{:02d}".format, st.integers(22, 23), st.integers(0, 23)),
                     st.sampled_from(_STREAM_TEXTS))


@st.composite
def _runs(draw):
    """Rows in synth's form, in runs of 1 to 30 rows of one hour text and one stream text with free minutes; now
    and then a run takes the key of an earlier run."""
    keys, runs = [], []
    for _ in range(draw(st.integers(0, 5))):
        keys.append(draw(st.sampled_from(keys)) if keys and draw(st.booleans()) else draw(_RUN_KEY))
        hour, stream = keys[-1]
        runs.append(draw(st.lists(st.builds(f"{hour}:{{:02d}},{stream},{{}}.{{}}".format, st.integers(0, 59),
                                            st.integers(0, 999), st.from_regex(r"[0-9]{1,3}", fullmatch=True)),
                                  min_size=1, max_size=30)))
    return runs


@pytest.mark.parametrize("fault", [None, *_LINE_FAULTS], ids=lambda fault: str(fault).replace(" ", "_"))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_fault_at_any_row_of_a_run_gives_the_table_or_the_first_error_of_the_exact_loop(fault, data):
    """Runs longer than one row, so that a match takes several rows, with one fault at any row of any run, the
    1st, 12th and 13th most of all, read in blocks of 1 to 200 bytes. A file without a fault takes the strict path."""
    runs = data.draw(_runs())
    if fault is not None and runs:
        run = data.draw(st.sampled_from(runs))
        where = min(data.draw(st.sampled_from([0, 11, 12]) | st.integers(0, 29)), len(run) - 1)
        run[where] = _LINE_FAULTS[fault](run[where], data.draw(st.integers(0, len(run[where]))))
    text = HEADER + "".join(row + "\n" for run in runs for row in run)
    strict = _reads_as_the_exact_loop(text.encode("utf-8", "surrogateescape"), data.draw(st.integers(1, 200)))
    assert strict or fault is not None


def test_a_run_longer_than_a_match_is_read_by_the_strict_path(tmp_path, monkeypatch):
    # A day of 1-minute rows, so runs of 60 rows of one hour and stream, for three streams; one row in the run of
    # 09 LQ differs only in its stream. Blocks of 1,009 bytes cut runs and matches at odd rows.
    path = tmp_path / "wait_times.csv"
    streams = ("PB,to_us,passenger", "RB,to_us,passenger", "LQ,to_us,passenger")
    rows = [f"2016-08-22T{h:02d}:{m:02d},{stream},{(h * 60 + m) * 7 % 113 / 4}\n"
            for h in range(24) for stream in streams for m in range(60)]
    odd = next(i for i, row in enumerate(rows) if row.startswith("2016-08-22T09:17,LQ,"))
    rows[odd] = rows[odd].replace("LQ", "PB")
    path.write_text(HEADER + "".join(rows), encoding="utf-8")
    want = _parse_file(hourly_waits, path)
    monkeypatch.setattr(ingest, "_BLOCK", 1009)
    _has_the_samples_of_the_exact_loop(path)
    read = _spy_on_the_exact_loop(monkeypatch)
    assert _hourly_waits_file(path) == want
    assert read == [HEADER]


def _rows(hours):
    """Two rows per hour from 2016-08-22T07:00, one per passenger to_us bridge."""
    return b"".join(
        f"2016-08-22T{7 + h % 15:02d}:{h % 60:02d},{bridge},to_us,passenger,{h % 7}.5\n".encode()
        for h in range(hours) for bridge in ("PB", "LQ")
    )


@pytest.mark.parametrize("quote", [None, "header", "last_row"])
def test_a_file_in_three_blocks_is_read_by_the_strict_path_unless_quoted(tmp_path, monkeypatch, quote):
    path = tmp_path / "wait_times.csv"
    header, rows = HEADER.encode(), _rows(600)
    if quote == "header":
        header = b'"timestamp"' + header[len(b"timestamp"):]
    elif quote == "last_row":
        rows += b'"2016-08-22T08:00",PB,to_us,passenger,1.5\n'
    path.write_bytes(header + rows)
    want, lines = _parse_file(hourly_waits, path), path.read_text(encoding="utf-8").splitlines(keepends=True)
    monkeypatch.setattr(ingest, "_BLOCK", path.stat().st_size // 3)
    _has_the_samples_of_the_exact_loop(path)
    read = _spy_on_the_exact_loop(monkeypatch)
    assert _hourly_waits_file(path) == want
    # The exact loop reads the header, then no row, every row after a quoted header, or the last block alone.
    first = {None: len(lines), "header": 1, "last_row": _block_starts(header + rows, ingest._BLOCK)[-1]}[quote]
    assert read == lines[:1] + lines[first:]
    assert quote != "last_row" or 0 < len(read) - 1 < len(lines) / 2


@pytest.mark.parametrize(
    "where, line", [("first", 2), ("last", 1202)], ids=["in_the_first_block", "in_the_last_block"]
)
def test_a_data_error_in_any_block_names_its_line_in_one_process(tmp_path, monkeypatch, where, line):
    path = tmp_path / "wait_times.csv"
    bad = b"2016-08-22T07:00,PB,to_us,passenger,-1\n"
    path.write_bytes(HEADER.encode() + (bad + _rows(600) if where == "first" else _rows(600) + bad))
    monkeypatch.setattr(ingest, "_BLOCK", path.stat().st_size // 3)
    with pytest.raises(DataError) as exc:
        _hourly_waits_file(path)
    assert str(exc.value) == f"{path}: line {line}: negative wait_minutes '-1'"
    with pytest.raises(ChildProcessError):  # the file is read in this process
        os.waitpid(-1, os.WNOHANG)


# A fault in a row in synth's form: each leaves the row to the exact loop, which rejects it or, quoted, reads it.
_TAKE_OVER_FAULTS = {
    "a bad wait": _wait("5.29x"),
    "trucks on RB": _LINE_FAULTS["trucks on RB"],
    "a date that is not a date": _LINE_FAULTS["a bad date"],
    "a byte that is not UTF-8": _LINE_FAULTS["a byte that is not UTF-8"],
    "a quoted row": lambda row, at: '"' + row.replace(",", '",', 1),
}


@pytest.mark.parametrize("fault", _TAKE_OVER_FAULTS, ids=lambda fault: fault.replace(" ", "_"))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), where=st.sampled_from(["first", "middle", "last"]))
def test_the_exact_loop_takes_over_at_the_first_block_the_strict_path_cannot_take(fault, data, where):
    """Runs of rows in synth's form, read in blocks of 1 to 200 bytes, with one fault in a row of the first, a
    middle or the last block; a date that is not a date is the block's last row, so that it follows the
    block's other runs. The table or the message and its line are those of the exact loop over the whole
    file, and the exact loop reads the header and then the rows from the start of the faulty block on."""
    rows = [row for run in data.draw(_runs()) for row in run] or [data.draw(_SYNTH_ROW)]
    size = data.draw(st.integers(1, 200))
    starts = _block_starts((HEADER + "".join(row + "\n" for row in rows)).encode(), size)
    block = {"first": 0, "middle": len(starts) // 2, "last": len(starts) - 1}[where]
    end = starts[block + 1] if block + 1 < len(starts) else len(rows) + 1
    at = end - 1 if fault == "a date that is not a date" else data.draw(st.integers(starts[block], end - 1))
    rows[at - 1] = _TAKE_OVER_FAULTS[fault](rows[at - 1], data.draw(st.integers(0, len(rows[at - 1]))))
    data_bytes = (HEADER + "".join(row + "\n" for row in rows)).encode("utf-8", "surrogateescape")
    # The rows before the fault, and so the block it starts in, are the same as in the file without it.
    assert _block_starts(data_bytes, size)[block] == starts[block] <= at
    lines = [line.decode("utf-8", "surrogateescape") for line in io.BytesIO(data_bytes)]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp, "wait_times.csv")
        path.write_bytes(data_bytes)
        mp.setattr(ingest, "_BLOCK", size)
        want = _table_or_error(partial(_parse_file, hourly_waits), path)
        _has_the_samples_of_the_exact_loop(path)
        read = _spy_on_the_exact_loop(mp)
        assert _table_or_error(_hourly_waits_file, path) == want
    assert read == lines[:1] + lines[starts[block]:starts[block] + len(read) - 1]
    assert isinstance(want, list) if fault == "a quoted row" else f": line {at + 1}: " in want


@pytest.mark.parametrize("data, want", [
    (b"", "line 1: expected header 'timestamp,bridge,direction,vehicle_type,wait_minutes'"),
    (HEADER.rstrip("\n").encode(), []),
    (HEADER.encode(), []),
], ids=["empty", "a_header_with_no_newline", "a_header_alone"])
def test_a_file_of_no_rows_gives_the_table_or_the_error_of_the_exact_loop(tmp_path, monkeypatch, data, want):
    path = tmp_path / "wait_times.csv"
    path.write_bytes(data)
    want = f"{path}: {want}" if want else want
    assert _table_or_error(partial(_parse_file, hourly_waits), path) == want
    read = _spy_on_the_exact_loop(monkeypatch)
    assert _table_or_error(_hourly_waits_file, path) == want
    assert read == [data.decode()]


def test_a_date_that_is_not_a_date_after_merged_runs_gives_the_exact_loop_error(tmp_path, monkeypatch):
    # One block: three runs the strict path merges into its groups, then 2016-02-30, which its regex takes.
    path = tmp_path / "wait_times.csv"
    rows = [f"2016-08-22T{h:02d}:{m:02d},PB,to_us,passenger,1.5\n" for h in (7, 8, 9) for m in (0, 5)]
    path.write_text(HEADER + "".join(rows) + "2016-02-30T10:00,PB,to_us,passenger,1.5\n", encoding="utf-8")
    read = _spy_on_the_exact_loop(monkeypatch)
    with pytest.raises(DataError) as exc:
        _hourly_waits_file(path)
    assert str(exc.value) == f"{path}: line 8: malformed timestamp '2016-02-30T10:00'"
    assert read == [HEADER, *rows, "2016-02-30T10:00,PB,to_us,passenger,1.5\n"]


def test_a_bad_last_row_leaves_the_exact_loop_at_most_one_block(tmp_path, monkeypatch):
    path = tmp_path / "wait_times.csv"
    bad = b"2016-08-28T21:00,PB,to_us,passenger,5.29x\n"
    data = _synth_week_waits(tmp_path / "synth") + bad
    path.write_bytes(data)
    monkeypatch.setattr(ingest, "_BLOCK", 4096)
    read = _spy_on_the_exact_loop(monkeypatch)
    with pytest.raises(DataError) as exc:
        _hourly_waits_file(path)
    assert str(exc.value) == f"{path}: line {len(data.splitlines())}: malformed wait_minutes '5.29x'"
    assert read[0] == HEADER and read[-1] == bad.decode()
    assert len("".join(read[1:])) <= ingest._BLOCK + len(bad) < len(data) / 20


def _synth_week_waits(out_dir) -> bytes:
    """The wait file synth writes for a week of passenger to_us: about 2,600 rows, 100 kB."""
    cfg = synth.SynthConfig(date(2016, 8, 22), date(2016, 8, 28), 7, Direction.TO_US, Vehicle.PASSENGER,
                            {Bridge.PB: 5.0, Bridge.RB: 10.0, Bridge.LQ: 20.0}, jitter=3.0)
    return synth.generate(cfg, out_dir).wait_times.read_bytes()


def test_a_synth_week_with_crlf_line_ends_is_read_by_the_strict_path(tmp_path, monkeypatch):
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    data = _synth_week_waits(tmp_path / "synth")
    lf.write_bytes(data)
    crlf.write_bytes(data.replace(b"\n", b"\r\n"))
    want = _parse_file(hourly_waits, lf)
    assert _parse_file(hourly_waits, crlf) == want
    _has_the_samples_of_the_exact_loop(crlf)
    read = _spy_on_the_exact_loop(monkeypatch)
    assert _hourly_waits_file(crlf) == want
    assert read == [HEADER.replace("\n", "\r\n")]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("last_row", [b"", b"2016-08-28T21:00,PB,to_us,passenger,-1\n"], ids=["synth", "bad_last_row"])
def test_a_fifo_gives_the_table_or_the_error_of_a_regular_file(tmp_path, monkeypatch, last_row):
    """A FIFO is read once, as a regular file is: the strict path takes synth's rows, so the exact loop reads
    no row, or only rows of the block that ends in a bad last row. It gives the table or error of a regular
    file."""
    data = _synth_week_waits(tmp_path / "synth") + last_row
    regular, fifo = tmp_path / "wait_times.csv", tmp_path / "wait_times.fifo"
    regular.write_bytes(data)
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as file:
                file.write(data)
        except BrokenPipeError:  # the reader stopped at a bad row
            pass

    read = _spy_on_the_exact_loop(monkeypatch)
    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        got = _table_or_error(_hourly_waits_file, fifo)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    if last_row:
        assert read[0] == HEADER and read[-1] == last_row.decode()
        assert len("".join(read[1:])) <= ingest._BLOCK + len(last_row)
    else:
        assert read == [HEADER]
    want = _table_or_error(_hourly_waits_file, regular)
    if last_row:
        assert want == f"{regular}: line {len(data.splitlines())}: negative wait_minutes '-1'"
        want = want.replace(str(regular), str(fifo), 1)
    assert got == want


def test_the_strict_path_holds_its_groups_not_its_text(tmp_path, monkeypatch):
    # 120,000 rows in synth's form, about 5 MB in 80 blocks, in runs of 12 rows of each of 3 hours. Each of 3
    # streams holds the next 2,000 rows, so each stream first meets the hours in a block of its own.
    path = tmp_path / "wait_times.csv"
    streams = ("PB,to_us,passenger", "RB,to_can,passenger", "LQ,to_us,commercial")
    with open(path, "w", encoding="utf-8") as file:
        file.write(HEADER)
        for i in range(120_000):
            file.write(f"2016-08-22T{7 + i // 12 % 3:02d}:{i % 60:02d},{streams[i // 2000 % 3]},{i % 97 / 4}\n")
    with open(path, "rb") as file:
        groups = _file_groups(file)
    assert len(groups) == 3 and len({id(hour) for series in groups.values() for hour in series}) == 3
    read = _spy_on_the_exact_loop(monkeypatch)
    tracemalloc.start()
    try:
        hours = _hourly_waits_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, hours.values())) == 9
    assert peak < path.stat().st_size / 2
    assert read == [HEADER]  # the strict path reads the whole file


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
