"""Generator determinism, planted-rule consistency, and the emission log.

The log is cross-checked against patterns reconstructed from the generated
CSVs through the real ingestion path."""

import csv
import io
from datetime import date

import pytest

from delaytree import synth
from delaytree.cart import ClassDistribution, gini
from delaytree.errors import UsageError
from delaytree.features import label_hours, parse_holidays
from delaytree.ingest import (
    Bridge,
    Direction,
    Vehicle,
    aggregate_hourly,
    join_weather,
    parse_wait_times,
    parse_weather,
)
from delaytree.patterns import assemble_rows

from helpers import brute_force_best_split, random_training_set, weekend_split_set

P_BASE = "slight delay-slight delay-slight delay"
P_RULE = "delay-slight delay-slight delay"


def weekend_rule(shift=17.0):
    return synth.PlantedRule({"weekend": (1,)}, P_RULE, {Bridge.PB: shift})


def config(**overrides):
    kwargs = dict(
        start=date(2016, 9, 5),
        end=date(2016, 9, 5),
        seed=1,
        direction=Direction.TO_US,
        vehicle=Vehicle.PASSENGER,
        base_waits={Bridge.PB: 5.0, Bridge.RB: 5.0, Bridge.LQ: 5.0},
    )
    kwargs.update(overrides)
    return synth.SynthConfig(**kwargs)


def ingest_all(out):
    waits = parse_wait_times(out.wait_times.read_text())
    weather = parse_weather(out.weather.read_text())
    us, ca = parse_holidays(out.holidays.read_text())
    hours = aggregate_hourly(waits)
    return hours, label_hours(join_weather(hours, weather), us, ca)


# ------------------------------------------------------------ configs


def test_config_rejects_bad_noise():
    with pytest.raises(UsageError):
        config(label_flip=1.0)
    with pytest.raises(UsageError):
        config(jitter=-0.5)


def test_config_requires_combo_bridges():
    with pytest.raises(UsageError):
        config(base_waits={Bridge.PB: 5.0, Bridge.LQ: 5.0})
    with pytest.raises(UsageError):
        config(vehicle=Vehicle.COMMERCIAL, base_waits={Bridge.PB: 5.0, Bridge.RB: 5.0, Bridge.LQ: 5.0})


def test_generate_rejects_empty_range(tmp_path):
    with pytest.raises(UsageError, match="empty date range"):
        synth.generate(config(start=date(2016, 9, 6), end=date(2016, 9, 5)), tmp_path)


def test_generate_rejects_inconsistent_rule_target(tmp_path):
    bad = synth.PlantedRule({"weekend": (1,)}, "heavy delay-slight delay-slight delay", {Bridge.PB: 17.0})
    with pytest.raises(UsageError, match="disagrees"):
        synth.generate(config(rules=(bad,)), tmp_path)


def test_generate_rejects_rule_equal_to_base(tmp_path):
    noop = synth.PlantedRule({"weekend": (1,)}, P_BASE, {Bridge.PB: 1.0})
    with pytest.raises(UsageError, match="base pattern"):
        synth.generate(config(rules=(noop,)), tmp_path)


# ----------------------------------------------------------- generate


def test_constant_generator_exact_hourly_means(tmp_path):
    out = synth.generate(config(base_waits={b: 10.0 for b in (Bridge.PB, Bridge.RB, Bridge.LQ)}), tmp_path)
    hours = aggregate_hourly(parse_wait_times(out.wait_times.read_text()))
    assert len(hours) == 15 * 3  # one day, three bridges
    for hw in hours:
        assert hw.mean_wait_minutes == 10.0
        assert hw.sample_count == (1 if hw.bridge is Bridge.RB else 12)


def test_generate_hours_restricted_to_window(tmp_path):
    out = synth.generate(config(), tmp_path)
    for row in csv.DictReader(io.StringIO(out.wait_times.read_text())):
        hour = int(row["timestamp"][11:13])
        assert 7 <= hour <= 21


def test_generate_deterministic_bytes(tmp_path):
    cfg = config(rules=(weekend_rule(),), label_flip=0.05, jitter=1.0,
                 end=date(2016, 9, 18), us_holidays=frozenset({date(2016, 9, 5)}))
    a = synth.generate(cfg, tmp_path / "a")
    b = synth.generate(cfg, tmp_path / "b")
    for name in ("wait_times", "weather", "holidays", "emission_log"):
        assert getattr(a, name).read_bytes() == getattr(b, name).read_bytes()


def test_generate_different_seeds_differ(tmp_path):
    a = synth.generate(config(jitter=1.0, seed=1), tmp_path / "a")
    b = synth.generate(config(jitter=1.0, seed=2), tmp_path / "b")
    assert a.wait_times.read_bytes() != b.wait_times.read_bytes()


def test_flip_fraction_in_binomial_window(tmp_path):
    # 30 days -> about 450 hours; epsilon 0.05 should land inside [0.03, 0.07]
    cfg = config(start=date(2016, 9, 5), end=date(2016, 10, 4), seed=42,
                 rules=(weekend_rule(),), label_flip=0.05, jitter=1.0)
    out = synth.generate(cfg, tmp_path)
    rows = list(csv.DictReader(io.StringIO(out.emission_log.read_text())))
    assert len(rows) == 30 * 15
    frac = sum(int(r["flipped"]) for r in rows) / len(rows)
    assert 0.03 <= frac <= 0.07


def test_emission_log_matches_reconstructed_patterns(tmp_path):
    cfg = config(start=date(2016, 9, 5), end=date(2016, 9, 25), seed=11,
                 rules=(weekend_rule(),), label_flip=0.1, jitter=1.0)
    out = synth.generate(cfg, tmp_path)
    ds = assemble_rows(*ingest_all(out), Direction.TO_US, Vehicle.PASSENGER)
    emitted = {row.hour_start.isoformat(timespec="minutes"): row.pattern for row in ds.rows}
    checked = 0
    for row in csv.DictReader(io.StringIO(out.emission_log.read_text())):
        label = emitted[row["hour_start"]]
        if int(row["flipped"]):
            assert label != row["intended_pattern"]
        else:
            assert label == row["intended_pattern"]
        checked += 1
    assert checked == len(ds.rows)


def test_rb_updates_hourly_only(tmp_path):
    out = synth.generate(config(), tmp_path)
    rb_stamps = [
        row["timestamp"]
        for row in csv.DictReader(io.StringIO(out.wait_times.read_text()))
        if row["bridge"] == "RB"
    ]
    assert len(rb_stamps) == 15
    assert all(ts.endswith(":00") for ts in rb_stamps)


def test_truck_config_omits_rb(tmp_path):
    cfg = config(vehicle=Vehicle.COMMERCIAL, base_waits={Bridge.PB: 5.0, Bridge.LQ: 5.0})
    out = synth.generate(cfg, tmp_path)
    bridges = {row["bridge"] for row in csv.DictReader(io.StringIO(out.wait_times.read_text()))}
    assert bridges == {"PB", "LQ"}


def test_holidays_file_written(tmp_path):
    cfg = config(us_holidays=frozenset({date(2016, 9, 5)}), ca_holidays=frozenset({date(2016, 10, 10)}))
    out = synth.generate(cfg, tmp_path)
    us, ca = parse_holidays(out.holidays.read_text())
    assert date(2016, 9, 5) in us
    assert date(2016, 10, 10) in ca


# ---------------------------------------------------------- oracle op


def test_brute_force_pure_rows_none():
    ts = weekend_split_set({"A": 5}, {"A": 6})
    assert brute_force_best_split(ts.rows, ts.schema) is None


def test_brute_force_single_binary_feature():
    ts = weekend_split_set({"A": 7}, {"B": 9})
    best = brute_force_best_split(ts.rows, ts.schema)
    assert best.rule.feature == "weekend"
    assert best.gain == gini(ClassDistribution({"A": 7, "B": 9}, 16))


def test_brute_force_row_guard():
    ts = weekend_split_set({"A": 6000}, {"B": 6000})
    with pytest.raises(UsageError, match="capped"):
        brute_force_best_split(ts.rows, ts.schema)


def test_brute_force_agrees_with_learner_on_random_sets():
    from delaytree import cart

    for seed in range(60):
        ts = random_training_set(seed + 5000, max_rows=80)
        fast = cart.best_split(ts.rows, ts.schema)
        slow = brute_force_best_split(ts.rows, ts.schema)
        if fast is None:
            assert slow is None
        else:
            assert fast.rule == slow.rule
            assert fast.gain == slow.gain
