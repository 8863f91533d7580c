"""Discretization, merging, pattern encoding, dataset assembly, and the
observations.csv round trip.

Derived pattern labels are verified against a table-driven oracle that maps
waits to merged categories through explicit interval bounds, independent of
categorize()."""

import random
from datetime import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delaytree.errors import DataError
from delaytree.features import FEATURE_SCHEMA
from delaytree.ingest import Bridge, Direction, HourlyWait, Vehicle
from delaytree.patterns import (
    COMBOS,
    DelayCategory4,
    PatternDataset,
    all_patterns,
    assemble_rows,
    categorize,
    pattern_frequencies,
    pattern_of,
    read_observations,
    write_observations,
)

from helpers import make_fv


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
    return HourlyWait(datetime(2016, 8, 22, hour), bridge, direction, vehicle, wait, 12)


def hour_fv(hour):
    """The feature vector `assemble` gives each hour: its own temperature."""
    return make_fv(temperature_f=float(hour))


def assemble(hours, direction, vehicle):
    """assemble_rows over `hours` and a features map built from them."""
    return assemble_rows(hours, {hw.hour_start: hour_fv(hw.hour_start.hour) for hw in hours}, direction, vehicle)


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
    return PatternDataset(FEATURE_SCHEMA, rows, Direction.TO_US, Vehicle.PASSENGER)


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


def test_observations_write_is_deterministic():
    ds_pass, ds_truck = _assembled_pair()
    assert write_observations([ds_pass, ds_truck]) == write_observations([ds_truck, ds_pass])


def test_combos_cover_four_datasets():
    assert len(COMBOS) == 4
    assert COMBOS[0] == (Vehicle.PASSENGER, Direction.TO_US)
