"""Discretization, merging, pattern encoding, dataset assembly, and the
observations.csv round trip.

Derived pattern labels are verified against a table-driven oracle that maps
waits to merged categories through explicit interval bounds, independent of
categorize()."""

import itertools
import random
from datetime import date, datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytree.errors import DataError
from delaytree.features import build_feature_vector, hour_interval_of
from delaytree.ingest import Bridge, Condition, Direction, Vehicle, WeatherRecord, bridges_for
from delaytree.patterns import (
    COMBOS,
    OBSERVATIONS_HEADER,
    DelayCategory4,
    PatternDataset,
    PatternRow,
    all_patterns,
    assemble_rows,
    categorize,
    pattern_frequencies,
    pattern_of,
    read_observations,
    write_observations,
)

from helpers import hourly_table, make_fv, read_observations_row_by_row


def merged_label_oracle(wait: float) -> str:
    """Independent mapping from wait minutes to the merged category label."""
    table = [
        (0.0, 15.0, "slight delay"),  # includes the merged no-delay point
        (15.0, 30.0, "delay"),
        (30.0, float("inf"), "heavy delay"),
    ]
    for low, high, label in table:
        if wait == 0.0 and low == 0.0:
            return label
        if low < wait <= high:
            return label
    raise AssertionError(f"wait {wait} not covered")


# ------------------------------------------------------ categorization


def test_categorize_boundaries():
    assert categorize(0) is DelayCategory4.NO_DELAY
    assert categorize(15) is DelayCategory4.SLIGHT_DELAY
    assert categorize(30) is DelayCategory4.DELAY
    assert categorize(30.5) is DelayCategory4.HEAVY_DELAY
    assert categorize(0.01) is DelayCategory4.SLIGHT_DELAY
    assert categorize(15.0001) is DelayCategory4.DELAY


def test_categorize_rejects_negative():
    with pytest.raises(DataError):
        categorize(-0.1)


@given(st.floats(0, 500, allow_nan=False), st.floats(0, 500, allow_nan=False))
def test_categorize_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert categorize(lo) <= categorize(hi)


def test_merge_folds_no_delay_into_slight():
    assert pattern_of([0.0]) == "slight delay"
    assert pattern_of([10.0]) == "slight delay"
    assert pattern_of([20.0]) == "delay"
    assert pattern_of([40.0]) == "heavy delay"


@given(st.floats(0, 15, allow_nan=False))
def test_merged_boundary_interval(wait):
    assert pattern_of([wait]) == "slight delay"


# ----------------------------------------------------------- patterns


def test_pattern_space_sizes():
    three = all_patterns((Bridge.PB, Bridge.RB, Bridge.LQ))
    two = all_patterns((Bridge.PB, Bridge.LQ))
    assert len(three) == 27
    assert len(set(three)) == 27
    assert len(two) == 9
    assert len(set(two)) == 9


def test_pattern_label_round_trip_all_values():
    for bridges in ((Bridge.PB, Bridge.RB, Bridge.LQ), (Bridge.PB, Bridge.LQ)):
        for pattern in all_patterns(bridges):
            waits = [{"slight delay": 10.0, "delay": 20.0, "heavy delay": 40.0}[part] for part in pattern.split("-")]
            assert pattern_of(waits) == pattern


def test_pattern_from_label_rejects_junk():
    lines = write_observations(list(_assembled_pair())).splitlines()
    assert ",passenger," in lines[1]
    for label, message in [
        ("banana-slight delay-slight delay", "has unknown part 'banana'"),
        ("delay-gridlock-delay", "has unknown part 'gridlock'"),
        ("delay", "does not fit passenger"),
    ]:
        fields = lines[1].split(",")
        fields[6] = label
        with pytest.raises(DataError) as exc:
            read_observations("\n".join([lines[0], ",".join(fields)]) + "\n")
        assert str(exc.value) == f"line 2: pattern {label!r} {message}"


def test_pattern_from_waits_matches_table_oracle():
    cases = [(20.0, 5.0, 0.0), (0.0, 0.0, 31.0), (15.0, 30.0, 30.1), (1.0, 16.0, 45.0)]
    for waits in cases:
        expected = "-".join(merged_label_oracle(w) for w in waits)
        assert pattern_of(waits) == expected
    assert pattern_of((20.0, 5.0, 0.0)) == (
        "delay-slight delay-slight delay"
    )


def test_truck_pattern_label_vocabulary():
    assert pattern_of((35.0, 10.0)) == "heavy delay-slight delay"
    parts = ("slight delay", "delay", "heavy delay")
    assert set(all_patterns((Bridge.PB, Bridge.LQ))) == {f"{pb}-{lq}" for pb in parts for lq in parts}


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=3, max_size=3))
def test_pattern_matches_oracle_random(waits):
    expected = "-".join(merged_label_oracle(w) for w in waits)
    assert pattern_of(waits) == expected


# ----------------------------------------------------------- assembly


def obs(hour, bridge, wait, direction=Direction.TO_US, vehicle=Vehicle.PASSENGER):
    return (datetime(2016, 8, 22, hour), bridge, direction, vehicle, wait)


def hour_fv(hour):
    """The feature vector `assemble` gives each hour of Monday 2016-08-22:
    that hour's calendar, and its own temperature."""
    return make_fv(month=8, season="Summer", hour_interval=hour_interval_of(hour), temperature_f=float(hour))


def assemble(observations, direction, vehicle):
    """assemble_rows over the hourly table of `observations` and a features
    map built from them."""
    features = {hour: hour_fv(hour.hour) for hour, *_ in observations}
    return assemble_rows(hourly_table(observations), features, direction, vehicle)


def test_assemble_drops_all_zero_hours():
    observations = [obs(8, b, 0.0) for b in (Bridge.PB, Bridge.RB, Bridge.LQ)]
    ds = assemble(observations, Direction.TO_US, Vehicle.PASSENGER)
    assert ds.rows == []
    assert ds.dropped_all_zero == 1
    assert ds.skipped_incomplete == 0


def test_assemble_encodes_patterns():
    observations = [
        obs(8, Bridge.PB, 20.0),
        obs(8, Bridge.RB, 5.0),
        obs(8, Bridge.LQ, 0.0),
    ]
    ds = assemble(observations, Direction.TO_US, Vehicle.PASSENGER)
    assert len(ds.rows) == 1
    row = ds.rows[0]
    assert row.pattern == "delay-slight delay-slight delay"
    assert row.waits == (20.0, 5.0, 0.0)
    assert row.features == hour_fv(8)


def test_assemble_skips_incomplete_hours():
    observations = [
        obs(8, Bridge.PB, 20.0),
        obs(8, Bridge.RB, 5.0),
        # LQ missing at hour 8
        obs(9, Bridge.PB, 5.0),
        obs(9, Bridge.RB, 5.0),
        obs(9, Bridge.LQ, 5.0),
    ]
    ds = assemble(observations, Direction.TO_US, Vehicle.PASSENGER)
    assert [r.hour_start.hour for r in ds.rows] == [9]
    assert ds.skipped_incomplete == 1


def test_assemble_trucks_need_only_two_bridges():
    observations = [
        obs(8, Bridge.PB, 35.0, vehicle=Vehicle.COMMERCIAL),
        obs(8, Bridge.LQ, 10.0, vehicle=Vehicle.COMMERCIAL),
    ]
    ds = assemble(observations, Direction.TO_US, Vehicle.COMMERCIAL)
    assert len(ds.rows) == 1
    assert ds.rows[0].pattern == "heavy delay-slight delay"
    assert ds.bridges == (Bridge.PB, Bridge.LQ)


def test_assemble_filters_other_combos():
    observations = [
        obs(8, Bridge.PB, 20.0),
        obs(8, Bridge.RB, 5.0),
        obs(8, Bridge.LQ, 1.0),
        obs(8, Bridge.PB, 40.0, direction=Direction.TO_CAN),
    ]
    ds = assemble(observations, Direction.TO_US, Vehicle.PASSENGER)
    assert len(ds.rows) == 1
    assert ds.rows[0].waits[0] == 20.0


def test_assemble_rows_sorted_by_hour_and_no_all_zero_sources():
    rng = random.Random(4)
    observations = []
    for hour in (9, 7, 8, 11, 10):
        for b in (Bridge.PB, Bridge.RB, Bridge.LQ):
            observations.append(obs(hour, b, float(rng.choice([0, 0, 5, 20]))))
    ds = assemble(observations, Direction.TO_US, Vehicle.PASSENGER)
    hours = [r.hour_start for r in ds.rows]
    assert hours == sorted(hours)
    for row in ds.rows:
        assert any(w > 0 for w in row.waits)
        assert row.features == hour_fv(row.hour_start.hour)


# -------------------------------------------------------- frequencies


def _dataset(rows):
    return PatternDataset(rows, Direction.TO_US, Vehicle.PASSENGER)


def test_frequencies_empty():
    assert pattern_frequencies(_dataset([])) == []


def test_frequencies_single_bucket():
    observations = [
        obs(h, b, w)
        for h in (8, 9, 10)
        for b, w in zip((Bridge.PB, Bridge.RB, Bridge.LQ), (20.0, 5.0, 0.0))
    ]
    ds = assemble(observations, Direction.TO_US, Vehicle.PASSENGER)
    freqs = pattern_frequencies(ds)
    assert len(freqs) == 1
    assert freqs[0][0] == "delay-slight delay-slight delay"
    assert freqs[0][1] == 3


def test_frequencies_planted_mix_matches_generator_tally():
    rng = random.Random(42)
    p1 = "delay-slight delay-slight delay"
    p2 = "slight delay-slight delay-heavy delay"
    tally = {p1: 0, p2: 0}
    rows = []
    from delaytree.patterns import PatternRow

    for i in range(1000):
        pat = p1 if rng.random() < 0.6 else p2
        tally[pat] += 1
        rows.append(PatternRow(make_fv(), pat, datetime(2016, 8, 22, 7), (5.0, 5.0, 5.0)))
    freqs = pattern_frequencies(_dataset(rows))
    assert sum(c for _, c in freqs) == 1000
    assert dict(freqs) == tally
    counts = [c for _, c in freqs]
    assert counts == sorted(counts, reverse=True)


# ------------------------------------------------------- observations


def _assembled_pair():
    passenger = [
        obs(8, Bridge.PB, 20.0),
        obs(8, Bridge.RB, 5.25),
        obs(8, Bridge.LQ, 0.0),
        obs(9, Bridge.PB, 1.0 / 3.0),
        obs(9, Bridge.RB, 31.0),
        obs(9, Bridge.LQ, 16.0),
    ]
    trucks = [
        obs(8, Bridge.PB, 35.0, vehicle=Vehicle.COMMERCIAL),
        obs(8, Bridge.LQ, 10.0, vehicle=Vehicle.COMMERCIAL),
    ]
    return (
        assemble(passenger, Direction.TO_US, Vehicle.PASSENGER),
        assemble(trucks, Direction.TO_US, Vehicle.COMMERCIAL),
    )


def test_observations_round_trip():
    ds_pass, ds_truck = _assembled_pair()
    text = write_observations([ds_truck, ds_pass])  # writer re-orders to COMBOS order
    parsed = read_observations(text)
    back_pass = parsed[(Vehicle.PASSENGER, Direction.TO_US)]
    back_truck = parsed[(Vehicle.COMMERCIAL, Direction.TO_US)]
    assert back_pass.rows == ds_pass.rows  # exact, incl. float waits via repr
    assert back_truck.rows == ds_truck.rows
    lines = text.splitlines()
    assert lines[0].startswith("hour_start,direction,vehicle,wait_pb,wait_rb,wait_lq,pattern")
    truck_line = [ln for ln in lines if ",commercial," in ln][0]
    assert ",35.0,,10.0," in truck_line  # wait_rb blank for trucks


def test_observations_rejects_bad_header():
    with pytest.raises(DataError):
        read_observations("a,b,c\n1,2,3\n")


@pytest.mark.parametrize(
    "vehicle, label",
    [
        ("passenger", "delay-slight delay"),
        ("commercial", "delay-slight delay-heavy delay"),
        ("passenger", "delay-slight delay-slight delay-delay"),
    ],
)
def test_observations_rejects_pattern_that_does_not_fit_the_vehicle(vehicle, label):
    lines = write_observations(list(_assembled_pair())).splitlines()
    i = next(i for i, text in enumerate(lines) if f",{vehicle}," in text)
    fields = lines[i].split(",")
    fields[6] = label
    lines[i] = ",".join(fields)
    with pytest.raises(DataError) as exc:
        read_observations("\n".join(lines) + "\n")
    assert str(exc.value) == f"line {i + 1}: pattern {label!r} does not fit {vehicle}"


@pytest.mark.parametrize(
    "column, value, message",
    [
        (6, "heavy delay-heavy delay-heavy delay",
         "pattern 'heavy delay-heavy delay-heavy delay' is not the label of waits (20.0, 5.25, 0.0)"),
        (3, "-4.0", "waits (-4.0, 5.25, 0.0) include a negative wait"),
    ],
    ids=["relabelled", "negative_wait"],
)
def test_observations_rejects_label_that_contradicts_its_waits(column, value, message):
    lines = write_observations(list(_assembled_pair())).splitlines()
    fields = lines[1].split(",")  # passenger to_us at 8:00, waits (20.0, 5.25, 0.0)
    fields[column] = value
    lines[1] = ",".join(fields)
    with pytest.raises(DataError) as exc:
        read_observations("\n".join(lines) + "\n")
    assert str(exc.value) == f"line 2: {message}"


@pytest.mark.parametrize(
    "column, value, message",
    [
        (7, "1", "month 1 contradicts hour_start '2016-08-22T08:00': want 8"),
        (8, "Fall", "season 'Fall' contradicts hour_start '2016-08-22T08:00': want 'Summer'"),
        (9, "Night", "hour_interval 'Night' contradicts hour_start '2016-08-22T08:00': want 'Early_morning'"),
        (10, "1", "weekend 1 contradicts hour_start '2016-08-22T08:00': want 0"),
        (0, "2016-08-22T08:30", "hour_start '2016-08-22T08:30' is not a naive whole hour in 7..21"),
        (0, "2016-08-22T22:00", "hour_start '2016-08-22T22:00' is not a naive whole hour in 7..21"),
        (0, "2016-08-22T08:00+00:00", "hour_start '2016-08-22T08:00+00:00' is not a naive whole hour in 7..21"),
    ],
    ids=["month", "season", "hour_interval", "weekend", "half_hour", "after_window", "zoned"],
)
def test_observations_rejects_row_that_contradicts_its_hour(column, value, message):
    lines = write_observations(list(_assembled_pair())).splitlines()
    fields = lines[1].split(",")  # passenger to_us at 8:00 on Monday 2016-08-22
    fields[column] = value
    lines[1] = ",".join(fields)
    with pytest.raises(DataError) as exc:
        read_observations("\n".join(lines) + "\n")
    assert str(exc.value) == f"line 2: {message}"


def test_observations_rejects_a_repeated_hour():
    lines = write_observations(list(_assembled_pair())).splitlines()
    lines.append(lines[1])
    with pytest.raises(DataError) as exc:
        read_observations("\n".join(lines) + "\n")
    assert str(exc.value) == f"line {len(lines)}: passenger to_us '2016-08-22T08:00' repeats line 2"


def test_the_rows_of_an_hour_share_one_feature_vector_and_one_hour_start():
    parsed = read_observations(write_observations(list(_assembled_pair())))
    passenger = parsed[(Vehicle.PASSENGER, Direction.TO_US)].rows[0]
    truck = parsed[(Vehicle.COMMERCIAL, Direction.TO_US)].rows[0]
    assert passenger.hour_start == truck.hour_start == datetime(2016, 8, 22, 8)
    assert passenger.features is truck.features
    assert passenger.hour_start is truck.hour_start


def test_write_observations_prints_each_row_by_its_own_vector_and_hour():
    # Equal vectors whose values print differently, and one vector shared by two hours.
    one_float, one_int, shared = make_fv(temperature_f=1.0), make_fv(temperature_f=1), make_fv()
    assert one_float == one_int
    waits = (20.0, 5.0, 0.0)
    rows = [PatternRow(fv, pattern_of(waits), datetime(2016, 9, 5, hour), waits)
            for fv, hour in ((one_float, 10), (one_int, 11), (shared, 12), (shared, 13))]
    lines = write_observations([_dataset(rows)]).splitlines()[1:]
    column = OBSERVATIONS_HEADER.index("temperature_f")
    assert [line.split(",")[column] for line in lines] == ["1.0", "1", "60.0", "60.0"]
    assert [line.split(",")[0] for line in lines] == [f"2016-09-05T{hour}:00" for hour in (10, 11, 12, 13)]


# One fault per check of read_observations, in the order it checks, each as
# (column, text) for the passenger to_us row at 8:00 of _assembled_pair.
_FAULTS = [
    (0, "x"), (2, "bike"), (0, "2016-08-22T08:30"), (6, "slight delay-x"), (6, "delay-slight delay"), (7, "13"),
    (9, "Night"), (4, "nan"), (3, "-4.0"), (6, "heavy delay-heavy delay-heavy delay"),
]


def test_a_row_with_two_faults_gives_the_row_by_row_readers_message():
    lines = write_observations(list(_assembled_pair())).splitlines()
    for faults in itertools.combinations(_FAULTS, 2):
        fields = lines[1].split(",")
        for column, text in faults:
            fields[column] = text
        text = "\n".join([lines[0], ",".join(fields), *lines[2:], ""])
        message = _read_or_message(read_observations, text)
        assert message == _read_or_message(read_observations_row_by_row, text), faults
        assert message.startswith("line 2: "), faults


# Hours of a Monday (a US holiday or not) and a Saturday, and two weathers:
# hours of one interval and weather on one day have equal feature texts.
_HOURS = [datetime(2016, 8, day, hour) for day in (22, 27) for hour in (7, 8, 9, 21)]
_WEATHERS = [WeatherRecord(_HOURS[0], 60.0, 10, 0.0, Condition.CLEAR),
             WeatherRecord(_HOURS[0], 1 / 3, 4, 0.25, Condition.RAIN)]
_WAITS = (0.0, 5.0, 15.0, 20.0, 1 / 3, 31.0)


@st.composite
def _observations(draw):
    """Datasets as read_observations gives them: up to four combos with rows
    over some of _HOURS, each hour's FeatureVector shared by its rows."""
    us = frozenset({date(2016, 8, 22)} if draw(st.booleans()) else ())
    hours = sorted(draw(st.lists(st.sampled_from(_HOURS), min_size=1, max_size=5, unique=True)))
    features = {hour: build_feature_vector(hour, draw(st.sampled_from(_WEATHERS)), us, frozenset()) for hour in hours}
    datasets = {}
    for vehicle, direction in draw(st.lists(st.sampled_from(COMBOS), min_size=1, unique=True)):
        rows = []
        for hour in draw(st.lists(st.sampled_from(hours), min_size=1, unique=True).map(sorted)):
            waits = tuple(draw(st.sampled_from(_WAITS)) for _ in bridges_for(vehicle))
            rows.append(PatternRow(features[hour], pattern_of(waits), hour, waits))
        datasets[(vehicle, direction)] = PatternDataset(rows, direction, vehicle)
    return datasets


# Texts each column may be mangled to, besides the column's texts in other rows.
_MANGLES = (
    ["2016-08-22T08:30", "2016-08-22T22:00", "2016-08-22T08:00+00:00", "2016-08-22 08:00", "2016-08-23T08:00",
     "2016-08-27T08:00:00", "22/08/2016", ""],
    ["north", "TO_CAN", " to_us", ""],
    ["bike", "COMMERCIAL", ""],
    *[["-4.0", "nan", "inf", "1e999", "", "5", "x"]] * 3,
    ["delay", "heavy delay-heavy delay-heavy delay", "no delay-slight delay", "slight delay-x", ""],
    ["1", "8", "13", "8.0", ""],
    ["Fall", "Summer", "summer"],
    ["Night", "Morning", "Early_morning"],
    *[["0", "1", "2", "True", "1.0"]] * 3,
    ["nan", "inf", "1e999", "60", "-0.0", "x"],
    ["0", "4", "10", "11"],
    ["", "0.25", "-1"],
    ["Snow", "rain", "Fog"],
)


@st.composite
def _mangled(draw, text):
    """observations.csv `text` with one to three rows given one or two other
    field texts, and now and then a row repeated."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(1, len(lines) - 1))
        fields = lines[at].split(",")
        for column in draw(st.lists(st.integers(0, len(OBSERVATIONS_HEADER) - 1), min_size=1, max_size=2, unique=True)):
            others = [line.split(",")[column] for line in lines[1:]]
            fields[column] = draw(st.sampled_from(_MANGLES[column]) | st.sampled_from(others))
        lines[at] = ",".join(fields)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(lines[1:])))
    return "".join(line + "\n" for line in lines)


def _read_or_message(read, text):
    """Each dataset's combo and rows, as exact reprs, or the data error's message."""
    try:
        return [(combo, ds.direction, ds.vehicle, [repr(row) for row in ds.rows]) for combo, ds in read(text).items()]
    except DataError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(_observations(), st.data())
def test_observations_read_as_the_row_by_row_reader_reads_them(datasets, data):
    text = write_observations(list(datasets.values()))
    back = read_observations(text)
    assert back == datasets
    first = {}  # the first row read of each hour
    for ds in back.values():
        for row in ds.rows:
            hour = first.setdefault(row.hour_start, row)
            assert hour.features is row.features and hour.hour_start is row.hour_start
    mangled = data.draw(_mangled(text))
    assert _read_or_message(read_observations, mangled) == _read_or_message(read_observations_row_by_row, mangled)


def test_observations_write_is_deterministic():
    ds_pass, ds_truck = _assembled_pair()
    assert write_observations([ds_pass, ds_truck]) == write_observations([ds_truck, ds_pass])


def test_combos_cover_four_datasets():
    assert len(COMBOS) == 4
    assert COMBOS[0] == (Vehicle.PASSENGER, Direction.TO_US)
