"""The record types are values: each compares equal to an equal copy,
pickles, hashes when all its fields do, and refuses changes, and the three
that check their values do so on every way to build one."""

import pickle
from datetime import date, datetime
from pathlib import Path

import pytest

from delaytree import cart, report, synth
from delaytree.errors import UsageError
from delaytree.features import CATEGORICAL, CONTINUOUS, FEATURE_SCHEMA, FeatureSpec
from delaytree.ingest import Bridge, Condition, Direction, RawWaitTimeRecord, Vehicle, WeatherRecord
from delaytree.patterns import PatternDataset, PatternRow

from helpers import make_fv

DIST = cart.ClassDistribution({"a": 2, "b": 1}, 3)
LEAF = cart.Leaf("a", DIST)
WEEKEND = cart.SubsetRule("weekend", (0,), (1,))
HOUR = datetime(2016, 9, 5, 8)
PLANTED = ({"weekend": (1,)}, "delay-slight delay-slight delay", {Bridge.PB: 17.0})
SYNTH = dict(start=date(2016, 9, 5), end=date(2016, 9, 11), seed=1, direction=Direction.TO_US,
             vehicle=Vehicle.PASSENGER, base_waits={bridge: 5.0 for bridge in Bridge})

# Name -> (a function that builds a new, equal value each call, whether the
# value hashes). A value that holds a dict does not hash, as before.
RECORDS = {
    "ClassDistribution": (lambda: cart.ClassDistribution({"a": 2, "b": 1}, 3), False),
    "ThresholdRule": (lambda: cart.ThresholdRule("temperature_f", 50.5), True),
    "SubsetRule": (lambda: cart.SubsetRule("weekend", (0,), (1,)), True),
    "SplitCandidate": (lambda: cart.SplitCandidate(WEEKEND, 0.5, DIST, DIST), False),
    "TrainConfig": (lambda: cart.TrainConfig(5, 0.01, 3), True),
    "Leaf": (lambda: cart.Leaf("a", DIST), False),
    "Split": (lambda: cart.Split(WEEKEND, 0.5, DIST, LEAF, LEAF), False),
    "DecisionTree": (lambda: cart.DecisionTree(LEAF, FEATURE_SCHEMA, Vehicle.PASSENGER, Direction.TO_US), False),
    "FeatureSpec": (lambda: FeatureSpec("weekend", CATEGORICAL, (0, 1)), True),
    "FeatureVector": (make_fv, True),
    "RawWaitTimeRecord": (lambda: RawWaitTimeRecord(HOUR, Bridge.PB, Direction.TO_US, Vehicle.PASSENGER, 5.0), True),
    "WeatherRecord": (lambda: WeatherRecord(HOUR, 60.5, 10, 0.0, Condition.CLEAR), True),
    "PatternDataset": (
        lambda: PatternDataset([PatternRow(make_fv(), "p", HOUR, (1.0, 2.0, 3.0))],
                               Direction.TO_US, Vehicle.PASSENGER, 1, 2),
        False,
    ),
    "FactorSummary": (lambda: report.FactorSummary(Vehicle.PASSENGER, Direction.TO_US, (("p", 3),), ("weekend",)), True),
    "PlantedRule": (lambda: synth.PlantedRule(*PLANTED), False),
    "SynthConfig": (lambda: synth.SynthConfig(**SYNTH, rules=(synth.PlantedRule(*PLANTED),)), False),
    "SynthOutput": (lambda: synth.SynthOutput(Path("w.csv"), Path("x.csv"), Path("h.csv"), Path("e.csv")), True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_a_value(name):
    make, hashable = RECORDS[name]
    value = make()
    assert type(value).__name__ == name
    assert value == make() and not value != make()
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value)
    if hashable:
        assert hash(value) == hash(make())
    else:
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_refuses_changes(name):
    value = RECORDS[name][0]()
    for attr in (type(value)._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
    assert value == RECORDS[name][0]()


def test_a_dataset_s_schema_is_the_feature_schema_and_not_a_field():
    assert PatternDataset._fields == ("rows", "direction", "vehicle", "skipped_incomplete", "dropped_all_zero")
    assert PatternDataset.schema is FEATURE_SCHEMA and RECORDS["PatternDataset"][0]().schema is FEATURE_SCHEMA


def test_a_named_tuple_equals_the_tuple_of_its_values():
    assert cart.ThresholdRule("x", 1.0) == ("x", 1.0)
    assert make_fv() == tuple(make_fv()[name] for name in FEATURE_SCHEMA.names)


@pytest.mark.parametrize(
    "good, field, bad, error",
    [
        (cart.TrainConfig(), "min_samples", 0, ValueError),
        (cart.TrainConfig(), "min_gain", float("nan"), ValueError),
        (FeatureSpec("x", CONTINUOUS), "kind", "nominal", ValueError),
        (FeatureSpec("x", CATEGORICAL, (0, 1)), "levels", None, ValueError),
        (synth.SynthConfig(**SYNTH), "label_flip", 1.0, UsageError),
        (synth.SynthConfig(**SYNTH), "end", date(2016, 9, 4), UsageError),
        (synth.SynthConfig(**SYNTH), "seed", -1, UsageError),
    ],
    ids=["min_samples", "min_gain", "kind", "levels", "label_flip", "end", "seed"],
)
def test_a_checked_record_checks_every_way_to_build_one(good, field, bad, error):
    cls = type(good)
    values = [bad if name == field else value for name, value in zip(cls._fields, good)]
    with pytest.raises(error):
        cls(*values)
    with pytest.raises(error):
        cls._make(values)
    with pytest.raises(error):
        good._replace(**{field: bad})
    unchecked = tuple.__new__(cls, values)  # skips every check, so only unpickling can catch it
    with pytest.raises(error):
        pickle.loads(pickle.dumps(unchecked))
    assert cls._make(good) == good._replace() == good
