"""Descriptive features of each hour: calendar-derived categories (month,
season, hour interval, weekend, holiday flags) plus the hour's weather
fields, and the fixed schema the tree learner splits on.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime
from enum import IntEnum

from .errors import DataError
from .ingest import WeatherRecord, csv_rows

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
    if month in (3, 4, 5):
        return "Spring"
    if month in (6, 7, 8):
        return "Summer"
    if month in (9, 10, 11):
        return "Fall"
    return "Winter"


def hour_interval_of(hour: int) -> str:
    """Early_morning=7,8,9; Morning=10,11,12; Afternoon=13,14,15;
    Evening=16,17,18; Night=19,20,21."""
    if not 7 <= hour <= 21:
        raise DataError(f"hour {hour} outside 7..21")
    return HOUR_INTERVALS[(hour - 7) // 3]


def parse_holidays(text: str) -> tuple[frozenset[date], frozenset[date]]:
    """Parse holidays.csv (`date,country`) into the (US, CA) holiday dates."""
    dates: dict[Country, set[date]] = {Country.US: set(), Country.CA: set()}
    for line, row in csv_rows(text, HOLIDAYS_HEADER):
        try:
            day = date.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"malformed date {row[0]!r}", line=line) from None
        try:
            country = Country[row[1].strip().upper()]
        except KeyError:
            raise DataError(f"unknown country {row[1]!r}", line=line) from None
        dates[country].add(day)
    return frozenset(dates[Country.US]), frozenset(dates[Country.CA])


def calendar_flags(day: date, us: frozenset[date], ca: frozenset[date]) -> tuple[int, int, int]:
    """(weekend, us_holiday, canada_holiday) flags for a calendar date."""
    weekend = 1 if day.weekday() >= 5 else 0
    return weekend, 1 if day in us else 0, 1 if day in ca else 0


@dataclass(frozen=True)
class FeatureVector:
    month: int
    season: str
    hour_interval: str
    weekend: int
    us_holiday: int
    canada_holiday: int
    temperature_f: float
    visibility: int
    precipitation_in: float
    condition: str

    def __getitem__(self, name: str):
        return getattr(self, name)


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str
    levels: tuple | None = None

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL and not self.levels:
            raise ValueError(f"categorical feature {self.name!r} needs declared levels")


class FeatureSchema:
    """Ordered feature declarations.

    The order is load-bearing: it breaks ties between equal-gain splits,
    and the declared level order fixes the canonical form of subset rules.
    """

    def __init__(self, specs):
        self.specs = tuple(specs)
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names in schema")
        self._by_name = {s.name: i for i, s in enumerate(self.specs)}

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def __eq__(self, other):
        return isinstance(other, FeatureSchema) and self.specs == other.specs

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    def index(self, name: str) -> int:
        return self._by_name[name]

    def spec(self, name: str) -> FeatureSpec:
        return self.specs[self._by_name[name]]


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


def build_feature_vector(
    hour_start: datetime,
    weather: WeatherRecord,
    us: frozenset[date],
    ca: frozenset[date],
) -> FeatureVector:
    weekend, us_flag, ca_flag = calendar_flags(hour_start.date(), us, ca)
    return FeatureVector(
        month=hour_start.month,
        season=season_of(hour_start.month),
        hour_interval=hour_interval_of(hour_start.hour),
        weekend=weekend,
        us_holiday=us_flag,
        canada_holiday=ca_flag,
        temperature_f=weather.temperature_f,
        visibility=weather.visibility,
        precipitation_in=weather.precipitation_in,
        condition=weather.condition.label,
    )


def label_hours(
    joined: dict[datetime, WeatherRecord], us: frozenset[date], ca: frozenset[date]
) -> dict[datetime, FeatureVector]:
    """The feature vector of each joined hour, keyed and ordered as `joined`:
    every bridge, direction and vehicle of an hour shares it."""
    return {hour: build_feature_vector(hour, weather, us, ca) for hour, weather in joined.items()}
