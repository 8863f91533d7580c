"""Descriptive features of each hour: calendar-derived categories (month,
season, hour interval, weekend, holiday flags) plus the hour's weather
fields, and the fixed schema the tree learner splits on. FEATURE_SCHEMA
declares them once; FeatureVector's fields are its names, in order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from datetime import date, datetime
from enum import IntEnum
from typing import Iterable

from .errors import Checked, DataError, cut
from .ingest import HOUR_MAX, HOUR_MIN, WeatherRecord, _parse_enum, csv_rows, fromisoformat, number

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

SEASONS = ("Spring", "Summer", "Fall", "Winter")
HOUR_INTERVALS = ("Early_morning", "Morning", "Afternoon", "Evening", "Night")

HOLIDAYS_HEADER = ["date", "country"]


class Country(IntEnum):
    US = 1
    CA = 2


def season_of(month: int) -> str:
    """Spring=3,4,5; Summer=6,7,8; Fall=9,10,11; Winter=12,1,2."""
    if not 1 <= month <= 12:
        raise DataError(f"month {month} outside 1..12")
    return SEASONS[(month - 3) % 12 // 3]


def hour_interval_of(hour: int) -> str:
    """Early_morning=7,8,9; Morning=10,11,12; Afternoon=13,14,15;
    Evening=16,17,18; Night=19,20,21."""
    if not HOUR_MIN <= hour <= HOUR_MAX:
        raise DataError(f"hour {hour} outside {HOUR_MIN}..{HOUR_MAX}")
    return HOUR_INTERVALS[(hour - HOUR_MIN) // 3]


def parse_holidays(lines: Iterable[str]) -> tuple[frozenset[date], frozenset[date]]:
    """Parse holidays.csv (`date,country`) `lines` (see ingest.csv_rows)
    into the (US, CA) holiday dates."""
    dates: dict[Country, set[date]] = {Country.US: set(), Country.CA: set()}
    for line, row in csv_rows(lines, HOLIDAYS_HEADER):
        try:
            day = fromisoformat(date, row[0].strip())
        except ValueError:
            raise DataError(f"malformed date {cut(repr(row[0]))}", line=line) from None
        dates[_parse_enum(Country, row[1], "country", line)].add(day)
    return frozenset(dates[Country.US]), frozenset(dates[Country.CA])


class FeatureSpec(Checked, namedtuple("FeatureSpec", "name kind levels", defaults=(None,))):
    __slots__ = ()

    def _check(self):
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL and not self.levels:
            raise ValueError(f"categorical feature {self.name!r} needs declared levels")

    def parse(self, text: str):
        """The value `text` spells: a finite float for a continuous feature, else
        a declared level, of its levels' type. Any other text is a ValueError."""
        cls = float if self.kind == CONTINUOUS else type(self.levels[0])
        try:
            value = text if cls is str else number(cls, text)
        except ValueError:
            value = text
        if self.kind == CATEGORICAL:
            if value in self.levels:
                return value
            raise ValueError(f"{self.name} {cut(repr(value))} is not a declared level")
        if isinstance(value, float) and math.isfinite(value):
            return value
        raise ValueError(f"{self.name} {cut(repr(value))} is not a finite number")

    def format(self, value) -> str:
        """The text `parse` reads back as `value`: repr, exact for every
        float, for a continuous feature; str for a level."""
        return repr(value) if self.kind == CONTINUOUS else str(value)


class FeatureSchema(tuple):
    """Ordered feature declarations: a tuple of FeatureSpec, named by `names`.

    The order is load-bearing: it breaks ties between equal-gain splits,
    and the declared level order fixes the canonical form of subset rules.
    """

    def __new__(cls, specs):
        self = super().__new__(cls, specs)
        self.names = tuple(s.name for s in self)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate feature names in schema")
        self._by_name = dict(zip(self.names, self))
        return self

    def spec(self, name: str) -> FeatureSpec:
        """The spec named `name`; KeyError if the schema has none."""
        return self._by_name[name]


# The full descriptive-feature schema offered to the splitter. month is kept
# even though season subsumes it; visibility is categorical with ordered
# levels 1..10, not a number.
FEATURE_SCHEMA = FeatureSchema(
    [
        FeatureSpec("month", CATEGORICAL, tuple(range(1, 13))),
        FeatureSpec("season", CATEGORICAL, SEASONS),
        FeatureSpec("hour_interval", CATEGORICAL, HOUR_INTERVALS),
        FeatureSpec("weekend", CATEGORICAL, (0, 1)),
        FeatureSpec("us_holiday", CATEGORICAL, (0, 1)),
        FeatureSpec("canada_holiday", CATEGORICAL, (0, 1)),
        FeatureSpec("temperature_f", CONTINUOUS),
        FeatureSpec("visibility", CATEGORICAL, tuple(range(1, 11))),
        FeatureSpec("precipitation_in", CONTINUOUS),
        FeatureSpec("condition", CATEGORICAL, ("Snow", "Rain", "Clear")),
    ]
)


class FeatureVector(namedtuple("FeatureVector", FEATURE_SCHEMA.names)):
    """An hour's features, one field per FEATURE_SCHEMA name, in order; `fv[name]` is field `name`."""

    __slots__ = ()

    def __getitem__(self, name: str):
        return getattr(self, name)


def hour_calendar(hour_start: datetime) -> tuple:
    """The features an hour gives by itself, the first four of
    FEATURE_SCHEMA: month, season, hour interval and weekend."""
    weekend = int(hour_start.weekday() >= 5)
    return hour_start.month, season_of(hour_start.month), hour_interval_of(hour_start.hour), weekend


def build_feature_vector(hour_start: datetime, weather: WeatherRecord,
                         us: frozenset[date], ca: frozenset[date]) -> FeatureVector:
    """The hour's features in FEATURE_SCHEMA order."""
    return FeatureVector(
        *hour_calendar(hour_start), int(hour_start.date() in us), int(hour_start.date() in ca),
        weather.temperature_f, weather.visibility, weather.precipitation_in, weather.condition.label,
    )


def label_hours(
    joined: dict[datetime, WeatherRecord], us: frozenset[date], ca: frozenset[date]
) -> dict[datetime, FeatureVector]:
    """The feature vector of each joined hour, keyed and ordered as `joined`:
    every bridge, direction and vehicle of an hour shares it."""
    return {hour: build_feature_vector(hour, weather, us, ca) for hour, weather in joined.items()}
