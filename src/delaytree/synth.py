"""Seeded synthetic feeds with planted feature-to-pattern rules.

Generation is a pure function of the config: one random.Random(seed)
(Mersenne Twister, documented and stable across platforms) drives weather,
label flips and wait jitter in a fixed traversal order, so the emitted
files are byte-identical run to run.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import Optional

from .errors import UsageError
from .features import HOLIDAYS_HEADER, FeatureVector, build_feature_vector
from .ingest import WAIT_TIMES_HEADER, WEATHER_HEADER, Bridge, Condition, Direction, Vehicle, WeatherRecord, bridges_for
from .patterns import pattern_of


@dataclass(frozen=True)
class PlantedRule:
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


@dataclass(frozen=True)
class SynthConfig:
    start: date
    end: date
    seed: int
    direction: Direction
    vehicle: Vehicle
    base_waits: dict
    rules: tuple = ()
    label_flip: float = 0.0
    jitter: float = 0.0
    us_holidays: frozenset = frozenset()
    ca_holidays: frozenset = frozenset()

    def __post_init__(self):
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

    @property
    def bridges(self) -> tuple[Bridge, ...]:
        return bridges_for(self.vehicle)

    def base_pattern(self) -> str:
        return pattern_of([self.base_waits[b] for b in self.bridges])


@dataclass(frozen=True)
class SynthOutput:
    wait_times: Path
    weather: Path
    holidays: Path
    emission_log: Path


def _shifted_waits(cfg: SynthConfig, rule: Optional[PlantedRule]) -> dict:
    if rule is None:
        return dict(cfg.base_waits)
    return {b: cfg.base_waits[b] + rule.shifts.get(b, 0.0) for b in cfg.bridges}


def _validate_rules(cfg: SynthConfig) -> None:
    base = cfg.base_pattern()
    for rule in cfg.rules:
        waits = _shifted_waits(cfg, rule)
        implied = pattern_of([waits[b] for b in cfg.bridges])
        if implied != rule.target:
            raise UsageError(f"rule target {rule.target!r} disagrees with its shifted waits ({implied!r})")
        if rule.target == base:
            raise UsageError(
                f"rule target {rule.target!r} equals the base pattern; "
                "flips would be invisible"
            )


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
    if cfg.end < cfg.start:
        raise UsageError("empty date range: end is before start")
    _validate_rules(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = random.Random(cfg.seed)
    base = cfg.base_pattern()

    wait_buf = io.StringIO()
    weather_buf = io.StringIO()
    log_buf = io.StringIO()
    wait_csv = csv.writer(wait_buf, lineterminator="\n")
    weather_csv = csv.writer(weather_buf, lineterminator="\n")
    log_csv = csv.writer(log_buf, lineterminator="\n")
    wait_csv.writerow(WAIT_TIMES_HEADER)
    weather_csv.writerow(WEATHER_HEADER)
    log_csv.writerow(["hour_start", "intended_pattern", "flipped"])

    day = cfg.start
    while day <= cfg.end:
        for hour in range(7, 22):
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
            stamp = hour_start.isoformat(timespec="minutes")
            weather_csv.writerow([stamp, f"{temp:.1f}", visibility, f"{precip:.2f}", condition.label])

            weather_rec = WeatherRecord(hour_start, temp, visibility, precip, condition)
            fv = build_feature_vector(hour_start, weather_rec, cfg.us_holidays, cfg.ca_holidays)
            rule = next((r for r in cfg.rules if r.matches(fv)), None)
            intended = rule.target if rule else base
            flipped = rng.random() < cfg.label_flip and bool(cfg.rules)
            if flipped:
                waits = _shifted_waits(cfg, None) if rule else _shifted_waits(cfg, cfg.rules[0])
            else:
                waits = _shifted_waits(cfg, rule)
            log_csv.writerow([stamp, intended, int(flipped)])

            for bridge in cfg.bridges:
                level = waits[bridge]
                minutes = [0] if bridge is Bridge.RB else range(0, 60, 5)
                for minute in minutes:
                    value = level
                    if cfg.jitter > 0:
                        value = max(0.0, level + rng.normalvariate(0.0, cfg.jitter))
                    wait_csv.writerow(
                        [
                            hour_start.replace(minute=minute).isoformat(timespec="minutes"),
                            bridge.name,
                            cfg.direction.label,
                            cfg.vehicle.label,
                            f"{value:.2f}",
                        ]
                    )
        day += timedelta(days=1)

    holiday_rows = sorted(
        [(d.isoformat(), "US") for d in cfg.us_holidays]
        + [(d.isoformat(), "CA") for d in cfg.ca_holidays]
    )
    holiday_buf = io.StringIO()
    holiday_csv = csv.writer(holiday_buf, lineterminator="\n")
    holiday_csv.writerow(HOLIDAYS_HEADER)
    holiday_csv.writerows(holiday_rows)

    out = SynthOutput(
        wait_times=out_dir / "wait_times.csv",
        weather=out_dir / "weather.csv",
        holidays=out_dir / "holidays.csv",
        emission_log=out_dir / "emission_log.csv",
    )
    out.wait_times.write_text(wait_buf.getvalue(), encoding="utf-8")
    out.weather.write_text(weather_buf.getvalue(), encoding="utf-8")
    out.holidays.write_text(holiday_buf.getvalue(), encoding="utf-8")
    out.emission_log.write_text(log_buf.getvalue(), encoding="utf-8")
    return out
