"""Parsing, hourly aggregation, and the weather join. The join's
nearest-predecessor behavior is checked against a linear-scan oracle, and
every parser is fuzzed: any text gives a value or a DataError."""

import copy
import io
import json
import math
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytree.errors import DataError
from delaytree.ingest import (
    Bridge,
    Condition,
    Direction,
    HourlyWait,
    Vehicle,
    WeatherRecord,
    aggregate_hourly,
    hourly_waits,
    join_weather,
    parse_wait_times,
    parse_weather,
    RawWaitTimeRecord,
    _lines,
)
from delaytree.features import parse_holidays
from delaytree.patterns import OBSERVATIONS_HEADER, read_observations
from delaytree.report import TREE_FORMATS, export_tree, factor_summary, factor_summary_csv, import_tree

HEADER = "timestamp,bridge,direction,vehicle_type,wait_minutes\n"
WHEADER = "timestamp,temperature_f,visibility,precipitation_in,condition\n"


def rec(ts="2016-08-22T07:05", bridge=Bridge.PB, direction=Direction.TO_US,
        vehicle=Vehicle.PASSENGER, wait=10.0):
    return RawWaitTimeRecord(datetime.fromisoformat(ts), bridge, direction, vehicle, wait)


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


@pytest.mark.parametrize("vis", ["0", "11", "x"])
def test_parse_weather_rejects_bad_visibility(vis):
    with pytest.raises(DataError):
        parse_weather(WHEADER + f"2016-08-22T07:00,63.5,{vis},0.0,Clear\n")


def test_parse_weather_rejects_negative_precipitation():
    with pytest.raises(DataError, match="precipitation"):
        parse_weather(WHEADER + "2016-08-22T07:00,63.5,10,-0.2,Rain\n")


# --------------------------------------------------------- aggregation


def test_aggregate_constant_hour():
    records = [rec(ts=f"2016-08-22T08:{m:02d}") for m in range(0, 60, 5)]
    out = aggregate_hourly(records)
    assert out == [
        HourlyWait(datetime(2016, 8, 22, 8), Bridge.PB, Direction.TO_US, Vehicle.PASSENGER, 10.0, 12)
    ]


def test_aggregate_arithmetic_mean():
    records = [rec(ts=f"2016-08-22T08:{m:02d}", wait=float(i)) for i, m in enumerate(range(0, 60, 5))]
    out = aggregate_hourly(records)
    assert out[0].mean_wait_minutes == 5.5
    assert out[0].sample_count == 12


def test_aggregate_mean_stays_within_its_samples():
    # fsum(3 * w) / 3 rounds to just below w for this w
    wait = 5.39761367449573e-28
    out = aggregate_hourly([rec(ts=f"2016-08-22T08:{m:02d}", wait=wait) for m in (0, 20, 40)])
    assert out[0].mean_wait_minutes == wait


def test_aggregate_drops_out_of_window_hours():
    records = [rec(ts="2016-08-22T06:55"), rec(ts="2016-08-22T22:00"), rec(ts="2016-08-22T07:00")]
    out = aggregate_hourly(records)
    assert [h.hour_start.hour for h in out] == [7]


def test_aggregate_window_boundaries_kept():
    out = aggregate_hourly([rec(ts="2016-08-22T07:00"), rec(ts="2016-08-22T21:59")])
    assert [h.hour_start.hour for h in out] == [7, 21]


def test_aggregate_empty_input():
    assert aggregate_hourly([]) == []


def test_aggregate_groups_and_sorts():
    records = [
        rec(ts="2016-08-22T09:00", bridge=Bridge.LQ),
        rec(ts="2016-08-22T08:00", bridge=Bridge.RB),
        rec(ts="2016-08-22T08:30", bridge=Bridge.PB),
        rec(ts="2016-08-22T08:10", bridge=Bridge.PB, direction=Direction.TO_CAN),
    ]
    out = aggregate_hourly(records)
    keys = [(h.hour_start, h.bridge, h.direction) for h in out]
    assert keys == sorted(keys)
    assert [h.bridge for h in out[:3]] == [Bridge.PB, Bridge.PB, Bridge.RB]


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
    in_window = sum(1 for r in records if 7 <= r.timestamp.hour <= 21)
    assert sum(h.sample_count for h in base) == in_window
    for h in base:
        assert 7 <= h.hour_start.hour <= 21
        group = [
            r.wait_minutes
            for r in records
            if (r.timestamp.replace(minute=0), r.bridge, r.direction, r.vehicle)
            == (h.hour_start, h.bridge, h.direction, h.vehicle)
        ]
        assert min(group) <= h.mean_wait_minutes <= max(group)
        assert math.isclose(h.mean_wait_minutes, math.fsum(group) / len(group))


def test_overflowing_hour_is_a_data_error():
    text = HEADER + "2016-08-22T07:05,PB,to_us,passenger,1\n" + "".join(
        f"2016-08-22T08:{m:02d},PB,to_us,passenger,1e308\n" for m in (5, 10)
    )
    message = "the 2 wait_minutes of PB to_us passenger in hour 2016-08-22T08:00 overflow their sum"
    with pytest.raises(DataError) as one_pass:
        hourly_waits(text)
    assert str(one_pass.value) == f"line 3: {message}"  # the hour's first sample
    with pytest.raises(DataError) as two_step:
        aggregate_hourly(parse_wait_times(text))
    assert str(two_step.value) == message  # records carry no line


@given(st.text(alphabet="ab,\"\r\n\x0c\u2028"), st.integers(1, 8))
def test_lines_split_as_stringio_does(text, piece):
    assert list(_lines(text, piece)) == list(io.StringIO(text))


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
    "timestamp": ["not-a-date", "2016-08-22T07:05+00:00", ""],
    "bridge": ["XX", "P B", ""],
    "direction": ["north", "to us"],
    "vehicle_type": ["bus", ""],
    "wait_minutes": ["nan", "inf", "-1", "abc", ""],
}


def _csv_field(draw, text):
    return f'"{text}"' if draw(st.booleans()) else text


def _trucks_on_rb(fields):
    return fields["bridge"].strip().upper() == "RB" and fields["vehicle_type"].strip().upper() == "COMMERCIAL"


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


@pytest.mark.parametrize(
    "row, message",
    [
        ("nope,XX,north,bus,-1", "malformed timestamp 'nope'"),
        ("2016-08-22T07:05,XX,north,bus,-1", "unknown bridge 'XX'"),
        ("2016-08-22T07:05,RB,north,bus,-1", "unknown direction 'north'"),
        ("2016-08-22T07:05,RB,to_us,bus,-1", "unknown vehicle_type 'bus'"),
        ("2016-08-22T07:05,RB,to_us,commercial,nan", "non-finite wait_minutes 'nan'"),
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
            assert isinstance(parse(text), list)
        except DataError:
            pass


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
_TREE_DOC = {
    "vehicle": "passenger",
    "direction": "to_us",
    "schema": [
        {"name": "weekend", "kind": "categorical", "levels": [0, 1]},
        {"name": "temperature_f", "kind": "continuous", "levels": None},
    ],
    "nodes": [
        {"id": 0, "kind": "split", "rule": {"feature": "weekend", "kind": "subset", "left": [0], "right": [1]},
         "gain": 0.25, "n": 4, "counts": {"A": 2, "B": 2}, "label": None, "children": [1, 2]},
        {"id": 1, "kind": "split", "rule": {"feature": "temperature_f", "kind": "threshold", "threshold": 50.5},
         "gain": 0.5, "n": 2, "counts": {"A": 1, "B": 1}, "label": None, "children": [3, 4]},
        {"id": 2, "kind": "leaf", "rule": None, "gain": None, "n": 2, "counts": {"B": 2}, "label": "B", "children": None},
        {"id": 3, "kind": "leaf", "rule": None, "gain": None, "n": 1, "counts": {"A": 1}, "label": "A", "children": None},
        {"id": 4, "kind": "leaf", "rule": None, "gain": None, "n": 1, "counts": {"B": 1}, "label": "B", "children": None},
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


# --------------------------------------------------------------- join


def weather_at(ts, temp=50.0):
    return WeatherRecord(datetime.fromisoformat(ts), temp, 10, 0.0, Condition.CLEAR)


def hour_at(ts):
    return HourlyWait(datetime.fromisoformat(ts), Bridge.PB, Direction.TO_US, Vehicle.PASSENGER, 5.0, 12)


def test_join_exact_hour():
    joined = join_weather([hour_at("2016-08-22T08:00")], [weather_at("2016-08-22T08:00")])
    assert joined[datetime(2016, 8, 22, 8)].timestamp == datetime(2016, 8, 22, 8)


def test_join_nearest_predecessor():
    weather = [weather_at("2016-08-22T06:00"), weather_at("2016-08-22T07:30"), weather_at("2016-08-22T10:00")]
    joined = join_weather([hour_at("2016-08-22T09:00")], weather)
    assert joined[datetime(2016, 8, 22, 9)].timestamp == datetime(2016, 8, 22, 7, 30)


def test_join_gap_over_three_hours_fails():
    with pytest.raises(DataError, match="2016-08-22T12:00"):
        join_weather([hour_at("2016-08-22T12:00")], [weather_at("2016-08-22T08:00")])


def test_join_gap_exactly_three_hours_ok():
    joined = join_weather([hour_at("2016-08-22T12:00")], [weather_at("2016-08-22T09:00")])
    assert joined[datetime(2016, 8, 22, 12)].timestamp == datetime(2016, 8, 22, 9)


def test_join_ignores_future_records():
    weather = [weather_at("2016-08-22T07:15"), weather_at("2016-08-22T09:00")]
    joined = join_weather([hour_at("2016-08-22T08:00")], weather)
    assert joined[datetime(2016, 8, 22, 8)].timestamp == datetime(2016, 8, 22, 7, 15)


def test_join_keys_each_distinct_hour_once_in_hour_order():
    lq = HourlyWait(datetime(2016, 8, 22, 8), Bridge.LQ, Direction.TO_CAN, Vehicle.COMMERCIAL, 1.0, 12)
    hours = [hour_at("2016-08-22T09:00"), lq, hour_at("2016-08-22T08:00")]
    joined = join_weather(hours, [weather_at("2016-08-22T07:30"), weather_at("2016-08-22T08:45")])
    assert list(joined) == [datetime(2016, 8, 22, 8), datetime(2016, 8, 22, 9)]
    assert [w.timestamp for w in joined.values()] == [datetime(2016, 8, 22, 8, 45)] * 2


def test_join_names_the_first_stale_hour():
    hours = [hour_at("2016-08-22T13:00"), hour_at("2016-08-22T12:00"), hour_at("2016-08-22T09:00")]
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
    hw = hour_at(f"2016-08-22T{hour:02d}:00")
    expected = _join_oracle(hw.hour_start, weather)
    if expected is None:
        with pytest.raises(DataError):
            join_weather([hw], weather)
    else:
        joined = join_weather([hw], weather)
        assert joined[hw.hour_start].timestamp == expected.timestamp
