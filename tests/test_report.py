"""Tree serialization (all three formats), hourly distributions, and the
factor summaries."""

import json
import math
import random
import re
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytree import cart, report
from delaytree.cart import TrainConfig
from delaytree.errors import DataError, UsageError
from delaytree.features import CATEGORICAL, CONTINUOUS, FeatureSchema, FeatureSpec
from delaytree.ingest import Bridge, Direction, Vehicle
from delaytree.patterns import DelayCategory4

from helpers import hourly_table, random_training_set, weekend_split_set


def leaf_tree():
    return cart.grow_tree(weekend_split_set({"A": 9}, {"B": 10}), TrainConfig())


def weekend_tree():
    return cart.grow_tree(weekend_split_set({"A": 100}, {"B": 100}), TrainConfig())


# ------------------------------------------------------------- export


def test_export_unknown_format():
    with pytest.raises(UsageError):
        report.export_tree(leaf_tree(), "gif")


def test_json_single_leaf():
    doc = json.loads(report.export_tree(leaf_tree(), "json"))
    assert len(doc["nodes"]) == 1
    node = doc["nodes"][0]
    assert node["kind"] == "leaf"
    assert node["label"] == "B"
    assert node["n"] == 19
    assert node["counts"] == {"A": 9, "B": 10}
    assert node["rule"] is None and node["children"] is None


def test_json_node_key_order_fixed():
    text = report.export_tree(weekend_tree(), "json")
    doc = json.loads(text, object_pairs_hook=lambda pairs: pairs)
    top = dict((k, v) for k, v in doc)
    node_key_orders = [[k for k, _ in node] for node in top["nodes"]]
    for order in node_key_orders:
        assert order == ["id", "kind", "rule", "gain", "n", "counts", "label", "children"]


def test_json_breadth_first_ids():
    doc = json.loads(report.export_tree(weekend_tree(), "json"))
    ids = [n["id"] for n in doc["nodes"]]
    assert ids == [0, 1, 2]
    assert doc["nodes"][0]["children"] == [1, 2]


def test_dot_weekend_tree_three_nodes_two_edges():
    dot = report.export_tree(weekend_tree(), "dot")
    node_lines = re.findall(r"^\s*n\d+ \[label=", dot, re.MULTILINE)
    edge_lines = re.findall(r"->", dot)
    assert len(node_lines) == 3
    assert len(edge_lines) == 2
    assert '[label="yes"]' in dot and '[label="no"]' in dot


def test_text_outline():
    text = report.export_tree(weekend_tree(), "text")
    lines = text.splitlines()
    assert lines[0].startswith("split weekend in {0}")
    assert lines[1].lstrip().startswith("yes: leaf")
    assert lines[2].lstrip().startswith("no: leaf")


def test_exports_deterministic():
    tree = cart.grow_tree(random_training_set(5, max_rows=120), TrainConfig(min_samples=10, min_gain=0.0))
    for fmt in report.TREE_FORMATS:
        assert report.export_tree(tree, fmt) == report.export_tree(tree, fmt)


# --------------------------------------------------------- round trip


def test_json_round_trip_predictions():
    schema = FeatureSchema(
        [FeatureSpec("x", CONTINUOUS), FeatureSpec("k", CATEGORICAL, ("a", "b", "c", "d"))]
    )
    rng = random.Random(31)
    rows = []
    for _ in range(300):
        feats = {"x": float(rng.randint(0, 9)), "k": rng.choice("abc")}  # d never seen
        label = "L" if feats["x"] <= 4 else rng.choice(["L", "R"])
        rows.append((feats, label))
    tree = cart.grow_tree(cart.TrainingSet(schema, rows), TrainConfig(min_samples=5, min_gain=0.0))
    text = report.export_tree(tree, "json")
    back = report.import_tree(text)
    probes = [{"x": rng.uniform(-2.0, 12.0), "k": rng.choice("abcd")} for _ in range(1000)]
    for probe in probes:
        assert cart.predict(back, probe) == cart.predict(tree, probe)
    assert report.export_tree(back, "json") == text


def test_round_trip_preserves_combo_tags():
    ds = weekend_split_set({"delay-slight delay": 100}, {"heavy delay-slight delay": 100})  # commercial patterns
    tagged = cart.DecisionTree(
        cart.grow_tree(ds, TrainConfig()).root, ds.schema,
        vehicle=Vehicle.COMMERCIAL, direction=Direction.TO_CAN,
    )
    back = report.import_tree(report.export_tree(tagged, "json"))
    assert back.vehicle is Vehicle.COMMERCIAL
    assert back.direction is Direction.TO_CAN


def test_import_rejects_junk():
    with pytest.raises(Exception):
        report.import_tree("{not json")
    with pytest.raises(Exception):
        report.import_tree('{"schema": [], "nodes": []}')


@pytest.mark.parametrize(
    "children, message",
    [([0, 0], "node 0 is reached twice"), ([1, 1], "node 1 is reached twice"), ([1, 7], "no node has id 7")],
)
def test_import_rejects_cyclic_shared_or_missing_children(children, message):
    doc = json.loads(report.export_tree(weekend_tree(), "json"))
    doc["nodes"][0]["children"] = children
    with pytest.raises(DataError, match=f"malformed tree json: {message}"):
        report.import_tree(json.dumps(doc))


def test_import_rejects_json_nested_deeper_than_the_recursion_limit():
    with pytest.raises(DataError, match="malformed tree json"):
        report.import_tree("[" * 100_000)


def test_import_rejects_an_integer_longer_than_int_reads():
    # Python (3.10.7 and later) reads at most 4,300 digits into an int;
    # json.loads then raises a plain ValueError, not its JSONDecodeError.
    with pytest.raises(DataError, match="malformed tree json"):
        report.import_tree('{"nodes": 1' + "0" * 5000 + "}")


_MUTANTS = (None, True, 0, -1, 1.5, "x", [], {}, [0], math.nan, 1e308)


def _fields(doc):
    """(dict, key) of every top-level key, node key and rule key of a tree json."""
    yield from ((doc, key) for key in doc)
    for node in doc["nodes"]:
        yield from ((node, key) for key in node)
        if node["rule"] is not None:
            yield from ((node["rule"], key) for key in node["rule"])


# Each example imports its tree's json once per field and value (11 values
# on each of up to about 200 fields), so trees stay small and examples few;
# the mutants are imported as compact json, which json writes faster than
# indented.
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), min_samples=st.integers(4, 30))
def test_import_is_the_inverse_of_export_under_every_single_field_mutation(seed, min_samples):
    tree = cart.grow_tree(random_training_set(seed, max_rows=40), TrainConfig(min_samples=min_samples, min_gain=0.0))
    text = report.export_tree(tree, "json")
    assert report.export_tree(report.import_tree(text), "json") == text
    doc = json.loads(text)
    for container, key in list(_fields(doc)):
        original = container[key]
        for value in _MUTANTS:
            container[key] = value
            try:
                back = report.import_tree(json.dumps(doc))
            except DataError:
                continue
            assert report.export_tree(back, "json") == json.dumps(doc, indent=2) + "\n"
        container[key] = original


def test_render_and_import_deeper_than_the_recursion_limit(chain_tree):
    text = report.export_tree(chain_tree, "json")
    assert report.export_tree(report.import_tree(text), "json") == text
    outline = report.export_tree(chain_tree, "text").splitlines()
    assert len(outline) == len(cart.bfs_nodes(chain_tree.root)) == 5999
    assert outline[0].startswith("split x <= ")
    assert outline[-1].startswith("  " * 2999 + "no: leaf ")


# ------------------------------------------------- hourly distribution


def hw(hour, wait, bridge=Bridge.PB, direction=Direction.TO_US, vehicle=Vehicle.PASSENGER, day=22):
    return (datetime(2016, 8, day, hour), bridge, direction, vehicle, wait)


def test_hourly_distribution_all_zero_hour():
    shares = report.hourly_distribution(hourly_table([hw(7, 0.0)]), Bridge.PB, Direction.TO_US, Vehicle.PASSENGER)
    assert shares[7][DelayCategory4.NO_DELAY] == 1.0
    assert shares[7][DelayCategory4.HEAVY_DELAY] == 0.0


def test_hourly_distribution_two_sample_split():
    hours = hourly_table([hw(8, 10.0, day=22), hw(8, 20.0, day=23)])
    shares = report.hourly_distribution(hours, Bridge.PB, Direction.TO_US, Vehicle.PASSENGER)
    assert shares[8][DelayCategory4.SLIGHT_DELAY] == 0.5
    assert shares[8][DelayCategory4.DELAY] == 0.5


def test_hourly_distribution_filters_stream():
    hours = hourly_table([hw(8, 10.0), hw(8, 50.0, bridge=Bridge.LQ), hw(8, 50.0, direction=Direction.TO_CAN)])
    shares = report.hourly_distribution(hours, Bridge.PB, Direction.TO_US, Vehicle.PASSENGER)
    assert shares[8][DelayCategory4.SLIGHT_DELAY] == 1.0


def test_hourly_distribution_matches_generator_tally():
    rng = random.Random(9)
    waits_by_cat = {
        DelayCategory4.NO_DELAY: 0.0,
        DelayCategory4.SLIGHT_DELAY: 8.0,
        DelayCategory4.DELAY: 22.0,
        DelayCategory4.HEAVY_DELAY: 42.0,
    }
    hours = []
    tally = {h: {c: 0 for c in DelayCategory4} for h in range(7, 22)}
    for i in range(40):
        for hour in range(7, 22):
            cat = rng.choice(list(DelayCategory4))
            tally[hour][cat] += 1
            start = datetime(2016, 9, 1, hour) + timedelta(days=i)
            hours.append((start, Bridge.PB, Direction.TO_US, Vehicle.PASSENGER, waits_by_cat[cat]))
    shares = report.hourly_distribution(hourly_table(hours), Bridge.PB, Direction.TO_US, Vehicle.PASSENGER)
    for hour in range(7, 22):
        total = sum(tally[hour].values())
        assert abs(sum(shares[hour].values()) - 1.0) <= 1e-9
        for cat in DelayCategory4:
            assert abs(shares[hour][cat] - tally[hour][cat] / total) <= 1e-9


def test_hourly_distribution_csv_blank_for_missing_hours():
    shares = report.hourly_distribution(hourly_table([hw(7, 5.0)]), Bridge.PB, Direction.TO_US, Vehicle.PASSENGER)
    lines = report.hourly_distribution_csv(shares).splitlines()
    assert lines[0] == "hour,no_delay,slight_delay,delay,heavy_delay"
    assert lines[1] == "7,0.0,1.0,0.0,0.0"
    assert lines[2] == "8,,,,"
    assert len(lines) == 16


# ------------------------------------------------------ factor summary


def test_factor_summary_empty():
    assert report.factor_summary({}) == []


def test_factor_summary_single_leaf():
    summaries = report.factor_summary({(Vehicle.PASSENGER, Direction.TO_US): leaf_tree()})
    assert len(summaries) == 1
    s = summaries[0]
    assert s.factors == ()
    assert s.patterns == (("B", 19),)


def test_factor_summary_planted_trees():
    trees = {
        (Vehicle.PASSENGER, Direction.TO_US): weekend_tree(),
        (Vehicle.COMMERCIAL, Direction.TO_CAN): leaf_tree(),
    }
    summaries = report.factor_summary(trees)
    assert [(s.vehicle, s.direction) for s in summaries] == [
        (Vehicle.PASSENGER, Direction.TO_US),
        (Vehicle.COMMERCIAL, Direction.TO_CAN),
    ]
    assert summaries[0].factors == ("weekend",)
    assert sorted(summaries[0].patterns) == [("A", 100), ("B", 100)]
    csv_text = report.factor_summary_csv(summaries)
    assert csv_text.splitlines()[0] == "vehicle,direction,pattern,leaf_samples,influential_factors"
    assert "passenger,to_us,A,100,weekend" in csv_text


def test_factor_summary_covers_every_leaf():
    tree = cart.grow_tree(random_training_set(13, max_rows=150), TrainConfig(min_samples=10, min_gain=0.0))
    summaries = report.factor_summary({(Vehicle.PASSENGER, Direction.TO_US): tree})
    total = sum(count for _, count in summaries[0].patterns)
    assert total == tree.root.distribution.total
