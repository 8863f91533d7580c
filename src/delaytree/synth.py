"""Seeded synthetic feeds with planted feature-to-pattern rules.

Generation is a pure function of the config: one random.Random(seed)
(Mersenne Twister, documented and stable across platforms) drives weather,
label flips and wait jitter in a fixed traversal order, so the emitted
files are byte-identical run to run.

The wait, weather and log rows are not written through csv.writer but
with one %-template per file for a day of rows, made once per config: no
field needs quoting, since each is an enum name, a fixed ISO timestamp, a
pattern label or a formatted finite number. Each day's draws fill the
templates, and the texts go to the files as the days are drawn, so no more
than a day of rows is held at once.
"""

from __future__ import annotations

import math
import os
import random
from collections import namedtuple
from contextlib import suppress
from datetime import date
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import Checked, DataError, UsageError, cut
from .features import HOLIDAYS_HEADER, FeatureVector, hour_interval_of, season_of
from .ingest import (
    HOUR_MAX, HOUR_MIN, WAIT_TIMES_HEADER, WEATHER_HEADER, Bridge, Condition, Direction, Vehicle, bridges_for, csv_text,
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


# The normal draws of generate's wait jitter, random.normalvariate's
# ratio-of-uniforms loop, stay within 12.2 standard deviations (its test with
# u2 >= 2**-53), so a wait plus 13 jitters bounds every sample it can write.
_MAX_DRAW = 13.0
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)  # random.NV_MAGICCONST


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


def generate(cfg: SynthConfig, out_dir) -> SynthOutput:
    """Write wait_times.csv, weather.csv, holidays.csv and emission_log.csv.

    PB and LQ get 5-minute samples; RB (passenger only) one hourly value.
    Hours run 7..21. The log records each hour's pre-flip intended pattern
    and whether the noise draw replaced it with the alternative profile.

    Each file is written under a temporary name in out_dir and moved to its
    own name once all four are complete, so a file there is whole or is the
    one an earlier run left. A write error with no file in its message,
    such as a full disk, is a DataError that names the file.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = SynthOutput(*(out_dir / f"{name}.csv" for name in SynthOutput._fields))
    holidays = [(d.isoformat(), "US") for d in cfg.us_holidays] + [(d.isoformat(), "CA") for d in cfg.ca_holidays]
    token = os.urandom(6).hex()  # so that two runs into one directory share no temporary file
    files = {}
    path = None  # the file being written, which a write error names
    try:
        for path in out:
            files[path] = open(path.with_name(f".{path.name}.{token}.tmp"), "x", encoding="utf-8")
        path = out.holidays
        files[path].write(csv_text(HOLIDAYS_HEADER, sorted(holidays)))
        feeds = [(path, files[path].write) for path in (out.wait_times, out.weather, out.emission_log)]
        for texts in _feed_texts(cfg):
            for (path, write), text in zip(feeds, texts):
                write(text)
        for path, file in files.items():
            file.close()  # which writes what the buffer holds, so a full disk can show here
        for path, file in files.items():
            os.replace(file.name, path)
    except BaseException as exc:
        for file in files.values():
            with suppress(OSError):
                file.close()
            with suppress(OSError):  # such as moved to its own name already
                os.remove(file.name)
        if isinstance(exc, OSError) and exc.filename is None:
            raise DataError(f"{path}: {exc}") from None
        raise
    return out


def _feed_texts(cfg: SynthConfig):
    """The texts of wait_times.csv, weather.csv and emission_log.csv, as
    tuples of three: their headers, then the rows of each day in turn."""
    rng = random.Random(cfg.seed)
    uniform, log, magic, normalvariate = rng.random, math.log, _NV_MAGICCONST, rng.normalvariate
    jitter, label_flip, rules = cfg.jitter, cfg.label_flip, cfg.rules
    hours = range(HOUR_MIN, HOUR_MAX + 1)
    # The rows of an hour, by bridge and minute; RB has one, at :00.
    slots = [(bridge, minute) for bridge in cfg.bridges
             for minute in ((0,) if bridge is Bridge.RB else range(0, 60, 5))]
    # A day of each file as one %-template, in which "\0" stands for the date.
    tail = f"{cfg.direction.label},{cfg.vehicle.label}"
    wait_day = "".join(f"\0T{hour:02d}:{minute:02d},{bridge.name},{tail},%.2f\n"
                       for hour in hours for bridge, minute in slots)
    weather_day = "".join(f"\0T{hour:02d}:00,%.1f,%d,%.2f,%s\n" for hour in hours)
    log_day = "".join(f"\0T{hour:02d}:00,%s,%d\n" for hour in hours)
    # Each case, no rule and then each rule: its intended pattern, the level
    # of each row of its hours, and the levels a flip gives them instead.
    levels = [[_shifted_waits(cfg, rule)[bridge] for bridge, _ in slots] for rule in (None, *rules)]
    cases = [(cfg.base_pattern(), levels[0], levels[1] if rules else None)]
    cases += [(rule.target, ruled, levels[0]) for rule, ruled in zip(rules, levels[1:])]
    snow, rain, clear = Condition.SNOW.label, Condition.RAIN.label, Condition.CLEAR.label
    diurnal = [(hour_interval_of(hour), 8.0 * math.sin(math.pi * (hour - 7) / 14.0)) for hour in hours]

    yield ",".join(WAIT_TIMES_HEADER) + "\n", ",".join(WEATHER_HEADER) + "\n", "hour_start,intended_pattern,flipped\n"
    for ordinal in range(cfg.start.toordinal(), cfg.end.toordinal() + 1):
        day = date.fromordinal(ordinal)
        seasonal = 45.0 - 25.0 * math.cos(2.0 * math.pi * (day.timetuple().tm_yday - 15) / 365.0)
        month, weekend = day.month, int(day.weekday() >= 5)
        season, us, ca = season_of(month), int(day in cfg.us_holidays), int(day in cfg.ca_holidays)
        waits, weather, emitted = [], [], []
        append = waits.append
        for interval, warming in diurnal:
            temp = round(seasonal + warming + normalvariate(0.0, 3.0), 1)
            wet = uniform() < 0.15
            precip = round(rng.uniform(0.01, 0.30), 2) if wet else 0.0
            if precip > 0:
                condition = snow if temp <= 32.0 else rain
                visibility = rng.randint(4, 9)
            else:
                condition = clear
                visibility = 10
            weather += (temp, visibility, precip, condition)

            # The hour's features in FEATURE_SCHEMA order, as features.build_feature_vector gives them.
            fv = FeatureVector(month, season, interval, weekend, us, ca, temp, visibility, precip, condition)
            intended, hour_levels, flip_levels = cases[next((i for i, r in enumerate(rules, 1) if r.matches(fv)), 0)]
            flipped = uniform() < label_flip and bool(rules)
            if flipped:
                hour_levels = flip_levels
            emitted += (intended, flipped)

            if jitter > 0:  # max(0.0, level + rng.normalvariate(0.0, jitter)), its loop owned and inline
                for level in hour_levels:
                    while True:
                        u1 = uniform()
                        u2 = 1.0 - uniform()
                        z = magic * (u1 - 0.5) / u2
                        if z * z / 4.0 <= -log(u2):
                            break
                    value = level + (0.0 + z * jitter)
                    append(value if value > 0.0 else 0.0)
            else:
                waits += hour_levels
        day_text = day.isoformat()
        yield (wait_day.replace("\0", day_text) % tuple(waits), weather_day.replace("\0", day_text) % tuple(weather),
               log_day.replace("\0", day_text) % tuple(emitted))
