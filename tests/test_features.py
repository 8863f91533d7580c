"""Calendar-derived features and the holiday dates."""

import pickle
from datetime import date, datetime, time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delaytree.errors import DataError
from delaytree.features import (
    FEATURE_SCHEMA,
    CATEGORICAL,
    FeatureSchema,
    FeatureSpec,
    FeatureVector,
    build_feature_vector,
    hour_interval_of,
    parse_holidays,
    season_of,
)
from delaytree.ingest import Condition, WeatherRecord

from helpers import make_fv


def test_season_examples():
    assert season_of(6) == "Summer"
    assert season_of(12) == "Winter"
    assert season_of(3) == "Spring"


def test_season_partitions_all_months():
    by_season = {}
    for month in range(1, 13):
        by_season.setdefault(season_of(month), []).append(month)
    assert by_season == {
        "Winter": [1, 2, 12],
        "Spring": [3, 4, 5],
        "Summer": [6, 7, 8],
        "Fall": [9, 10, 11],
    }


@pytest.mark.parametrize("month", [0, 13, -1])
def test_season_rejects_out_of_range(month):
    with pytest.raises(DataError):
        season_of(month)


def test_hour_interval_examples():
    assert hour_interval_of(7) == "Early_morning"
    assert hour_interval_of(13) == "Afternoon"
    assert hour_interval_of(21) == "Night"


def test_hour_interval_partitions_window():
    by_interval = {}
    for hour in range(7, 22):
        by_interval.setdefault(hour_interval_of(hour), []).append(hour)
    assert by_interval == {
        "Early_morning": [7, 8, 9],
        "Morning": [10, 11, 12],
        "Afternoon": [13, 14, 15],
        "Evening": [16, 17, 18],
        "Night": [19, 20, 21],
    }


@pytest.mark.parametrize("hour", [6, 22, 0])
def test_hour_interval_rejects_out_of_window(hour):
    with pytest.raises(DataError):
        hour_interval_of(hour)


US_CAL = frozenset({date(2016, 9, 5)})
CA_CAL = frozenset({date(2017, 7, 1)})


def calendar_flags(day: date) -> tuple:
    """(weekend, us_holiday, canada_holiday) of an hour of `day`, as build_feature_vector gives them."""
    hour_start = datetime.combine(day, time(8))
    fv = build_feature_vector(hour_start, WeatherRecord(hour_start, 60.0, 10, 0.0, Condition.CLEAR), US_CAL, CA_CAL)
    return fv.weekend, fv.us_holiday, fv.canada_holiday


def test_calendar_flags_weekend():
    assert calendar_flags(date(2016, 8, 27))[0] == 1  # Saturday
    assert calendar_flags(date(2016, 8, 28))[0] == 1  # Sunday
    assert calendar_flags(date(2016, 8, 24))[0] == 0  # Wednesday


def test_calendar_flags_holidays():
    assert calendar_flags(date(2017, 7, 1)) == (1, 0, 1)
    assert calendar_flags(date(2016, 9, 5)) == (0, 1, 0)
    assert calendar_flags(date(2016, 9, 6)) == (0, 0, 0)
    assert all(type(flag) is int for flag in calendar_flags(date(2017, 7, 1)))


def test_parse_holidays():
    us, ca = parse_holidays("date,country\n2016-09-05,US\n2017-07-01,CA\n2016-11-24,us\n")
    assert us == frozenset({date(2016, 9, 5), date(2016, 11, 24)})
    assert ca == frozenset({date(2017, 7, 1)})


def test_parse_holidays_rejects_unknown_country():
    with pytest.raises(DataError, match="line 2"):
        parse_holidays("date,country\n2016-09-05,MX\n")


def test_parse_holidays_rejects_bad_date():
    with pytest.raises(DataError, match="date"):
        parse_holidays("date,country\nSept 5,US\n")


def test_shipped_sample_calendar_parses():
    from pathlib import Path

    text = Path(__file__).resolve().parent.parent.joinpath(
        "sample_data", "holidays_2016_2017.csv"
    ).read_text()
    us, ca = parse_holidays(text)
    assert date(2016, 11, 24) in us
    assert date(2016, 7, 1) in ca


def test_build_feature_vector():
    weather = WeatherRecord(datetime(2016, 9, 5, 8), 63.5, 9, 0.1, Condition.RAIN)
    fv = build_feature_vector(datetime(2016, 9, 5, 8), weather, US_CAL, CA_CAL)
    assert fv.month == 9
    assert fv.season == "Fall"
    assert fv.hour_interval == "Early_morning"
    assert (fv.weekend, fv.us_holiday, fv.canada_holiday) == (0, 1, 0)
    assert fv.temperature_f == 63.5
    assert fv.visibility == 9
    assert fv.precipitation_in == 0.1
    assert fv.condition == "Rain"
    assert fv["condition"] == "Rain"


def test_flags_independent_of_time_of_day():
    weather = WeatherRecord(datetime(2016, 8, 27, 7), 60.0, 10, 0.0, Condition.CLEAR)
    flags = []
    for hour in (7, 13, 21):
        fv = build_feature_vector(datetime(2016, 8, 27, hour), weather, US_CAL, CA_CAL)
        flags.append((fv.weekend, fv.us_holiday, fv.canada_holiday))
    assert flags == [(1, 0, 0)] * 3


def test_schema_names_unique_and_ordered():
    names = FEATURE_SCHEMA.names
    assert len(set(names)) == len(names)
    assert names[0] == "month"
    assert FEATURE_SCHEMA.names.index("weekend") < FEATURE_SCHEMA.names.index("temperature_f")
    assert FEATURE_SCHEMA.spec("visibility").kind == CATEGORICAL
    assert FEATURE_SCHEMA.spec("visibility").levels == tuple(range(1, 11))
    with pytest.raises(KeyError):
        FEATURE_SCHEMA.spec("banana")


def test_schema_rejects_duplicates():
    with pytest.raises(ValueError):
        FeatureSchema([FeatureSpec("x", "continuous"), FeatureSpec("x", "continuous")])


def test_feature_spec_validation():
    with pytest.raises(ValueError):
        FeatureSpec("x", "nominal")
    with pytest.raises(ValueError):
        FeatureSpec("x", CATEGORICAL, None)


def test_feature_vector_fields_are_the_schema_in_order():
    assert FeatureVector._fields == FEATURE_SCHEMA.names


def test_feature_vector_is_a_frozen_picklable_value():
    fv = make_fv()
    assert repr(fv) == (
        "FeatureVector(month=9, season='Fall', hour_interval='Morning', weekend=0, us_holiday=0, "
        "canada_holiday=0, temperature_f=60.0, visibility=10, precipitation_in=0.0, condition='Clear')"
    )
    assert fv["season"] == "Fall"
    assert fv == make_fv() and hash(fv) == hash(make_fv()) and fv != make_fv(weekend=1)
    with pytest.raises(AttributeError):
        fv.weekend = 1
    back = pickle.loads(pickle.dumps(fv))
    assert back == fv and type(back) is FeatureVector


@given(st.data())
def test_every_feature_value_round_trips_through_its_text(data):
    for spec in FEATURE_SCHEMA:
        if spec.kind == CATEGORICAL:
            for level in spec.levels:
                back = spec.parse(spec.format(level))
                assert back == level and type(back) is type(level)
            if isinstance(spec.levels[0], int):
                undeclared = data.draw(st.integers().filter(lambda v: v not in spec.levels) | st.just("x"))
            else:
                undeclared = data.draw(st.text().filter(lambda v: v not in spec.levels))
            with pytest.raises(ValueError, match=f"^{spec.name} .* is not a declared level$"):
                spec.parse(str(undeclared))
        else:
            value = data.draw(st.floats(allow_nan=False, allow_infinity=False))
            assert spec.parse(spec.format(value)) == value
            bad = data.draw(st.sampled_from(["nan", "inf", "-inf", "Infinity", "1e999", "", "abc"]))
            with pytest.raises(ValueError, match=f"^{spec.name} .* is not a finite number$"):
                spec.parse(bad)
