"""Generator determinism, planted-rule consistency, and the emission log.

The log is cross-checked against patterns reconstructed from the generated
CSVs through the real ingestion path."""

import csv
import hashlib
import io
import tempfile
from collections import Counter
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delaytree import synth
from delaytree.cart import ClassDistribution, gini
from delaytree.errors import UsageError
from delaytree.features import label_hours, parse_holidays
from delaytree.ingest import (
    WAIT_TIMES_HEADER,
    WEATHER_HEADER,
    Bridge,
    Direction,
    Vehicle,
    aggregate_hourly,
    bridges_for,
    floor_hour,
    join_weather,
    parse_wait_times,
    parse_weather,
)
from delaytree.patterns import assemble_rows

from helpers import brute_force_best_split, hourly_keys, random_training_set, weekend_split_set

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


@pytest.mark.parametrize("seed, shown", [(True, "True"), (1.0, "1.0"), ("1", "'1'")])
def test_config_takes_only_an_integer_seed(seed, shown):
    with pytest.raises(UsageError) as exc:
        config(seed=seed)
    assert str(exc.value) == f"seed must be an integer >= 0, not {shown}"
    assert config(seed=0).seed == 0


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
    records = parse_wait_times(out.wait_times.read_text())
    hours = aggregate_hourly(records)
    samples = Counter(((r.bridge, r.direction, r.vehicle), floor_hour(r.timestamp)) for r in records)
    assert hourly_keys(hours) == set(samples)
    assert len(samples) == 15 * 3  # one day, three bridges
    for (stream, hour), count in samples.items():
        assert hours[stream][hour] == 10.0
        assert count == (1 if stream[0] is Bridge.RB else 12)


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


# The sha256 of each file generate writes, as the csv.writer generator wrote
# them: a change of draw order, formatting or row order fails here. The
# passenger days hold a weekend, a holiday, flips and rain; the commercial
# days hold snow, which fires their rule, and waits that jitter clips to 0.
GOLDEN = {
    "passenger": (
        dict(start=date(2016, 9, 1), end=date(2016, 9, 6), seed=3, direction=Direction.TO_US,
             vehicle=Vehicle.PASSENGER, base_waits={Bridge.PB: 5.0, Bridge.RB: 1.0, Bridge.LQ: 8.0},
             rules=(weekend_rule(),), label_flip=0.2, jitter=1.5,
             us_holidays=frozenset({date(2016, 9, 5)}), ca_holidays=frozenset({date(2016, 9, 5)})),
        {
            "wait_times": "6b7597aa742713a87a748983aafebbf6c25e6191e53407f65d6901b2031343bb",
            "weather": "a5833989879fe9367de07eb1246cbfe2410871ebb27086e56a3f67a5c2d135a8",
            "holidays": "3c5e3f03a510efcc6e291ac7133a2ad3e0e14588c1f4cfc4f3d3b10502d1f351",
            "emission_log": "b1913cc0e3f62f8c927cc28a5a3c3618fda3549a89410e829bb5a6b0edbf83dc",
        },
    ),
    "commercial": (
        dict(start=date(2016, 12, 30), end=date(2017, 1, 2), seed=9, direction=Direction.TO_CAN,
             vehicle=Vehicle.COMMERCIAL, base_waits={Bridge.PB: 12.0, Bridge.LQ: 0.5},
             rules=(synth.PlantedRule({"condition": ("Snow", "Rain")}, "heavy delay-slight delay", {Bridge.PB: 25.0}),),
             label_flip=0.1, jitter=2.0, us_holidays=frozenset({date(2017, 1, 2)}),
             ca_holidays=frozenset({date(2016, 12, 26), date(2017, 1, 2)})),
        {
            "wait_times": "62adb1c4bceb09ce424ced871e4c0845af32f2c39668ac10bb00d337545ecced",
            "weather": "b87eb251cabbb80db5275a3eb4af057db368569f97d0d064c2bde8ddf8af31c7",
            "holidays": "5cfcaf1004b2fd517f27eac864060ac718db9efbc53f52a2a0586f7a945ef2b9",
            "emission_log": "9d2b4e8f6a528ba22d9e210912fde217f51a2804e4dbf6641a6a94327a7af734",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generate_golden_bytes(tmp_path, name):
    kwargs, digests = GOLDEN[name]
    out = synth.generate(synth.SynthConfig(**kwargs), tmp_path)
    assert {f: hashlib.sha256(getattr(out, f).read_bytes()).hexdigest() for f in out._fields} == digests


# Base waits at the edges of the wait format: zero, negative zero (which
# jitter 0 writes as -0.00), a 301-digit number and values that round at
# the second decimal.
_WAITS = st.sampled_from([0.0, -0.0, 1e300, 0.005, 14.995]) | st.floats(0.0, 1e6)


def _csv_writer_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    vehicle=st.sampled_from(Vehicle),
    direction=st.sampled_from(Direction),
    waits=st.lists(_WAITS, min_size=3, max_size=3),
    jitter=st.just(0.0) | st.floats(0.0, 50.0),
    seed=st.integers(0, 2**32),
    start=st.dates(date(1, 1, 1), date(9999, 12, 29)),
)
@example(vehicle=Vehicle.PASSENGER, direction=Direction.TO_US, waits=[0.0, -0.0, 1e300], jitter=0.0, seed=1,
         start=date(2016, 1, 4))
@example(vehicle=Vehicle.COMMERCIAL, direction=Direction.TO_CAN, waits=[1e300, 0.0, 0.0], jitter=2.0, seed=5,
         start=date(2016, 1, 4))
def test_generate_writes_the_text_csv_writer_writes(vehicle, direction, waits, jitter, seed, start):
    """Each file generate writes line by line is the text csv.writer writes
    of its rows, with the header's width: no field needed quoting. The wait
    rows are every (day, hour, bridge, minute) in order, RB at :00 only, and
    with jitter 0 each is its bridge's base wait. Three days of hours all
    but always hold weather rows with and without precipitation."""
    base_waits = dict(zip(bridges_for(vehicle), waits))
    cfg = synth.SynthConfig(start=start, end=start + timedelta(days=2), seed=seed, direction=direction,
                            vehicle=vehicle, base_waits=base_waits, jitter=jitter)
    with tempfile.TemporaryDirectory() as tmp:
        out = synth.generate(cfg, tmp)
        texts = {f: getattr(out, f).read_text(encoding="utf-8") for f in ("wait_times", "weather", "emission_log")}
    headers = {"wait_times": WAIT_TIMES_HEADER, "weather": WEATHER_HEADER,
               "emission_log": ["hour_start", "intended_pattern", "flipped"]}
    rows = {}
    for name, text in texts.items():
        lines = text.splitlines(keepends=True)
        rows[name] = list(csv.reader(lines))
        assert rows[name][0] == headers[name]
        assert len(rows[name]) == len(lines)
        for row, line in zip(rows[name], lines):  # line by line, so a failure shows one short line
            assert len(row) == len(headers[name])
            assert _csv_writer_text([row]) == line

    days = [start + timedelta(days=i) for i in range(3)]
    keys = [
        (f"{day.isoformat()}T{hour:02d}:{minute:02d}", bridge.name, direction.label, vehicle.label)
        for day in days for hour in range(7, 22) for bridge in bridges_for(vehicle)
        for minute in ((0,) if bridge is Bridge.RB else range(0, 60, 5))
    ]
    assert [tuple(row[:4]) for row in rows["wait_times"][1:]] == keys
    for row in rows["wait_times"][1:]:
        assert row[4] == (f"{float(row[4]):.2f}" if jitter else f"{base_waits[Bridge[row[1]]]:.2f}")
    hours = [f"{day.isoformat()}T{hour:02d}:00" for day in days for hour in range(7, 22)]
    assert [row[0] for row in rows["weather"][1:]] == [row[0] for row in rows["emission_log"][1:]] == hours


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
