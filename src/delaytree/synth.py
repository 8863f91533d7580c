"""Seeded synthetic feeds with planted feature-to-pattern rules.

Generation is a pure function of the config: one random.Random(seed)
(Mersenne Twister, documented and stable across platforms) drives weather,
label flips and wait jitter in a fixed traversal order, so the emitted
files are byte-identical run to run.

The wait, weather and log rows are written as preformatted text lines, not
through csv.writer: no field needs quoting, since each is an enum name, a
fixed ISO timestamp, a pattern label or a formatted finite number.
"""

from __future__ import annotations

import io
import math
import random
from collections import namedtuple
from datetime import date, datetime, time
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import Checked, UsageError, cut
from .features import HOLIDAYS_HEADER, FeatureVector, build_feature_vector
from .ingest import (
    HOUR_MAX, HOUR_MIN, WAIT_TIMES_HEADER, WEATHER_HEADER, Bridge, Condition, Direction, Vehicle, WeatherRecord,
    bridges_for, csv_text,
)
from .patterns import pattern_of


class PlantedRule(NamedTuple):
    """Conjunctive condition on categorical features -> wait-shift effect.

    When the condition holds, each bridge's wait is base + shift, and the
    hour's intended pattern is `target` (which must agree with the shifted
    waits' categorization).
    """

    condition: dict
    target: str
    shifts: dict

    def matches(self, fv: FeatureVector) -> bool:
        return all(fv[name] in allowed for name, allowed in self.condition.items())


# random.normalvariate draws stay within 12.2 standard deviations (its
# ratio-of-uniforms test with u2 >= 2**-53), so a wait plus 13 jitters
# bounds every sample generate can write.
_MAX_DRAW = 13.0


class SynthConfig(Checked, namedtuple(
    "SynthConfig", "start end seed direction vehicle base_waits rules label_flip jitter us_holidays ca_holidays",
    defaults=((), 0.0, 0.0, frozenset(), frozenset()),
)):
    """Dates start..end, one stream (direction, vehicle), each of its
    bridges' base wait in base_waits, and a tuple of PlantedRule."""

    __slots__ = ()

    def _check(self):
        if type(self.seed) is not int or self.seed < 0:
            raise UsageError(f"seed must be an integer >= 0, not {cut(repr(self.seed))}")
        if not 0.0 <= self.label_flip < 1.0:
            raise UsageError("label_flip must be in [0, 1)")
        if not (self.jitter >= 0 and math.isfinite(self.jitter)):
            raise UsageError(f"jitter must be a finite number >= 0, not {self.jitter!r}")
        bridges = bridges_for(self.vehicle)
        if set(self.base_waits) != set(bridges):
            raise UsageError(f"base_waits must cover exactly {[b.name for b in bridges]}")
        for rule in (None, *self.rules):
            where = "base wait" if rule is None else "rule-shifted wait"
            for bridge, wait in _shifted_waits(self, rule).items():
                if not wait >= 0:
                    raise UsageError(f"{where} {bridge.name} must be >= 0, not {wait!r}")
                if not math.isfinite(wait + _MAX_DRAW * self.jitter):
                    raise UsageError(f"{where} {bridge.name} {wait!r} plus jitter {self.jitter!r} is not finite")
        if self.end < self.start:
            raise UsageError("empty date range: end is before start")
        for rule in self.rules:
            waits = _shifted_waits(self, rule)
            implied = pattern_of([waits[b] for b in self.bridges])
            if implied != rule.target:
                raise UsageError(f"rule target {rule.target!r} disagrees with its shifted waits ({implied!r})")
            if rule.target == self.base_pattern():
                raise UsageError(f"rule target {rule.target!r} equals the base pattern; flips would be invisible")

    @property
    def bridges(self) -> tuple[Bridge, ...]:
        return bridges_for(self.vehicle)

    def base_pattern(self) -> str:
        return pattern_of([self.base_waits[b] for b in self.bridges])


class SynthOutput(NamedTuple):
    wait_times: Path
    weather: Path
    holidays: Path
    emission_log: Path


def _shifted_waits(cfg: SynthConfig, rule: Optional[PlantedRule]) -> dict:
    if rule is None:
        return dict(cfg.base_waits)
    return {b: cfg.base_waits[b] + rule.shifts.get(b, 0.0) for b in cfg.bridges}


def _temperature(day: date, hour: int, rng: random.Random) -> float:
    doy = day.timetuple().tm_yday
    seasonal = 45.0 - 25.0 * math.cos(2.0 * math.pi * (doy - 15) / 365.0)
    diurnal = 8.0 * math.sin(math.pi * (hour - 7) / 14.0)
    return round(seasonal + diurnal + rng.normalvariate(0.0, 3.0), 1)


def generate(cfg: SynthConfig, out_dir) -> SynthOutput:
    """Write wait_times.csv, weather.csv, holidays.csv and emission_log.csv.

    PB and LQ get 5-minute samples; RB (passenger only) one hourly value.
    Hours run 7..21. The log records each hour's pre-flip intended pattern
    and whether the noise draw replaced it with the alternative profile.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = random.Random(cfg.seed)
    normal = rng.normalvariate
    base = cfg.base_pattern()
    jitter = cfg.jitter
    # Each bridge's row tail after the timestamp, and its minute texts.
    streams = [
        (bridge, f",{bridge.name},{cfg.direction.label},{cfg.vehicle.label},",
         (":00",) if bridge is Bridge.RB else tuple(f":{minute:02d}" for minute in range(0, 60, 5)))
        for bridge in cfg.bridges
    ]

    wait_buf = io.StringIO()
    weather_buf = io.StringIO()
    log_buf = io.StringIO()
    write_wait = wait_buf.write
    write_wait(",".join(WAIT_TIMES_HEADER) + "\n")
    weather_buf.write(",".join(WEATHER_HEADER) + "\n")
    log_buf.write("hour_start,intended_pattern,flipped\n")

    for ordinal in range(cfg.start.toordinal(), cfg.end.toordinal() + 1):
        day = date.fromordinal(ordinal)
        day_text = day.isoformat()
        for hour in range(HOUR_MIN, HOUR_MAX + 1):
            hour_start = datetime.combine(day, time(hour))
            temp = _temperature(day, hour, rng)
            wet = rng.random() < 0.15
            precip = round(rng.uniform(0.01, 0.30), 2) if wet else 0.0
            if precip > 0:
                condition = Condition.SNOW if temp <= 32.0 else Condition.RAIN
                visibility = rng.randint(4, 9)
            else:
                condition = Condition.CLEAR
                visibility = 10
            prefix = f"{day_text}T{hour:02d}"
            weather_buf.write(f"{prefix}:00,{temp:.1f},{visibility},{precip:.2f},{condition.label}\n")

            weather_rec = WeatherRecord(hour_start, temp, visibility, precip, condition)
            fv = build_feature_vector(hour_start, weather_rec, cfg.us_holidays, cfg.ca_holidays)
            rule = next((r for r in cfg.rules if r.matches(fv)), None)
            intended = rule.target if rule else base
            flipped = rng.random() < cfg.label_flip and bool(cfg.rules)
            if flipped:
                waits = _shifted_waits(cfg, None) if rule else _shifted_waits(cfg, cfg.rules[0])
            else:
                waits = _shifted_waits(cfg, rule)
            log_buf.write(f"{prefix}:00,{intended},{int(flipped)}\n")

            for bridge, tail, minutes in streams:
                level = waits[bridge]
                for minute in minutes:
                    value = max(0.0, level + normal(0.0, jitter)) if jitter > 0 else level
                    write_wait(f"{prefix}{minute}{tail}{value:.2f}\n")

    holidays = [(d.isoformat(), "US") for d in cfg.us_holidays] + [(d.isoformat(), "CA") for d in cfg.ca_holidays]
    holiday_buf = io.StringIO(csv_text(HOLIDAYS_HEADER, sorted(holidays)))
    out = SynthOutput(*(out_dir / f"{name}.csv" for name in SynthOutput._fields))
    for path, buf in zip(out, (wait_buf, weather_buf, holiday_buf, log_buf)):
        path.write_text(buf.getvalue(), encoding="utf-8")
    return out
