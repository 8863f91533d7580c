"""Learner tests. Expected values for the derived cases are computed by
independent means: exact-rational evaluation of the impurity formulas, and
the exhaustive brute-force split search in tests/helpers.py."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytree import cart
from delaytree.cart import ClassDistribution, Leaf, Split, TrainConfig, TrainingSet
from delaytree.features import CATEGORICAL, CONTINUOUS, FeatureSchema, FeatureSpec
from delaytree.report import export_tree

from helpers import (
    GAIN_0004_SIDES,
    GAIN_0006_SIDES,
    brute_force_best_split,
    exact_binary_gain,
    make_fv,
    random_training_set,
    weekend_split_set,
)


def dist(**counts) -> ClassDistribution:
    return ClassDistribution(dict(counts), sum(counts.values()))


# ---------------------------------------------------------------- gini


def test_gini_pure_is_zero():
    for count in (1, 5, 1000):
        assert cart.gini(dist(A=count)) == 0.0


def test_gini_uniform_three_classes():
    assert cart.gini(dist(A=2, B=2, C=2)) == 1 - 3 * (1 / 3) ** 2


def test_gini_two_equal_classes():
    assert cart.gini(dist(A=1, B=1)) == 0.5


@pytest.mark.parametrize("c", range(2, 28))
def test_gini_uniform_exact(c):
    d = ClassDistribution({f"k{i}": 4 for i in range(c)}, 4 * c)
    assert cart.gini(d) == 1 - 1 / c


def test_gini_empty_raises():
    with pytest.raises(ValueError):
        cart.gini(ClassDistribution({}, 0))


@given(st.lists(st.integers(1, 50), min_size=1, max_size=27))
def test_gini_bounds(counts):
    d = ClassDistribution({f"k{i}": c for i, c in enumerate(counts)}, sum(counts))
    g = cart.gini(d)
    c = len(counts)
    assert 0.0 <= g <= 1 - 1 / c + 1e-15
    if c == 1:
        assert g == 0.0


# ---------------------------------------------------- information gain


def test_gain_pure_children():
    assert cart.information_gain(dist(A=2, B=2), dist(A=2), dist(B=2)) == 0.5


def test_gain_no_separation():
    assert cart.information_gain(dist(A=2, B=2), dist(A=1, B=1), dist(A=1, B=1)) == 0.0


def test_gain_three_class_case():
    # independent evaluation: exact rationals through the textbook formula
    expected = exact_binary_gain({"A": 4}, {"B": 2, "C": 2})
    assert expected == Fraction(3, 8)
    got = cart.information_gain(dist(A=4, B=2, C=2), dist(A=4), dist(B=2, C=2))
    assert got == 0.375 == float(expected)


def test_gain_rejects_inconsistent_totals():
    with pytest.raises(ValueError):
        cart.information_gain(dist(A=4), dist(A=2), dist(A=1))


def test_gain_rejects_inconsistent_class_counts():
    with pytest.raises(ValueError):
        cart.information_gain(dist(A=2, B=2), dist(A=2), dist(A=2))


@given(st.data())
@settings(max_examples=200)
def test_gain_nonnegative(data):
    counts = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=6))
    parent = {f"k{i}": c for i, c in enumerate(counts)}
    left = {k: data.draw(st.integers(0, v)) for k, v in parent.items()}
    right = {k: v - left[k] for k, v in parent.items()}
    left = {k: v for k, v in left.items() if v}
    right = {k: v for k, v in right.items() if v}
    nl, nr = sum(left.values()), sum(right.values())
    if nl == 0 or nr == 0:
        return
    gain = cart.information_gain(
        ClassDistribution(parent, nl + nr),
        ClassDistribution(left, nl),
        ClassDistribution(right, nr),
    )
    assert gain >= 0.0
    assert gain == float(exact_binary_gain(left, right))


# --------------------------------------------------- enumerate_splits


def _schema_xk():
    return FeatureSchema(
        [FeatureSpec("x", CONTINUOUS), FeatureSpec("k", CATEGORICAL, ("a", "b", "c"))]
    )


def test_enumerate_continuous_midpoints():
    schema = _schema_xk()
    rows = [({"x": v, "k": "a"}, lbl) for v, lbl in [(60.0, "A"), (64.0, "A"), (64.0, "B"), (70.0, "B")]]
    cands = cart.enumerate_splits(rows, "x", schema)
    assert [c.rule.threshold for c in cands] == [62.0, 67.0]


def test_enumerate_categorical_subsets():
    schema = _schema_xk()
    rows = [({"x": 0.0, "k": k}, lbl) for k, lbl in [("a", "A"), ("b", "B"), ("c", "A")]]
    cands = cart.enumerate_splits(rows, "k", schema)
    assert [c.rule.left_levels for c in cands] == [("a",), ("a", "b"), ("b",)]
    # canonical form: the last declared present level never appears left
    assert all("c" not in c.rule.left_levels for c in cands)


def test_enumerate_constant_feature_empty():
    schema = _schema_xk()
    rows = [({"x": 5.0, "k": "b"}, lbl) for lbl in "AB"]
    assert cart.enumerate_splits(rows, "x", schema) == []
    assert cart.enumerate_splits(rows, "k", schema) == []


def test_enumerate_two_present_levels_single_candidate():
    schema = _schema_xk()
    rows = [({"x": 0.0, "k": k}, lbl) for k, lbl in [("a", "A"), ("c", "B")]]
    cands = cart.enumerate_splits(rows, "k", schema)
    assert len(cands) == 1
    assert cands[0].rule.left_levels == ("a",)
    assert cands[0].rule.right_levels == ("c",)


def test_enumerate_sides_nonempty():
    ts = random_training_set(3)
    for spec in ts.schema:
        for cand in cart.enumerate_splits(ts.rows, spec.name, ts.schema):
            assert cand.left.total > 0 and cand.right.total > 0
            assert cand.left.total + cand.right.total == len(ts.rows)


# --------------------------------------------------------- best_split


def test_best_split_single_informative_feature():
    ts = weekend_split_set({"A": 10}, {"B": 10})
    best = cart.best_split(ts.rows, ts.schema)
    assert best.rule.feature == "weekend"
    parent = ClassDistribution({"A": 10, "B": 10}, 20)
    assert best.gain == cart.gini(parent)


def test_best_split_pure_rows_none():
    ts = weekend_split_set({"A": 5}, {"A": 5})
    assert cart.best_split(ts.rows, ts.schema) is None


def test_best_split_matches_oracle_seed7():
    # 50 rows, 3 features, 3 classes
    rng = random.Random(7)
    schema = FeatureSchema(
        [
            FeatureSpec("f0", CONTINUOUS),
            FeatureSpec("f1", CATEGORICAL, ("a", "b", "c", "d")),
            FeatureSpec("f2", CATEGORICAL, (0, 1)),
        ]
    )
    rows = []
    for _ in range(50):
        feats = {"f0": float(rng.randint(0, 8)), "f1": rng.choice("abcd"), "f2": rng.randint(0, 1)}
        rows.append((feats, rng.choice(["c0", "c1", "c2"])))
    fast = cart.best_split(rows, schema)
    slow = brute_force_best_split(rows, schema)
    assert fast.rule == slow.rule
    assert abs(fast.gain - slow.gain) <= 1e-12


def test_best_split_feature_order_tie_break():
    # two identical columns: the earlier schema feature must win
    schema = FeatureSchema([FeatureSpec("f0", CATEGORICAL, (0, 1)), FeatureSpec("f1", CATEGORICAL, (0, 1))])
    rows = [({"f0": i % 2, "f1": i % 2}, "AB"[i % 2]) for i in range(20)]
    best = cart.best_split(rows, schema)
    assert best.rule.feature == "f0"


def test_best_split_lower_threshold_tie_break():
    # values 0,1,2,3 with labels A,B,B,A: thresholds 0.5 and 2.5 tie
    schema = FeatureSchema([FeatureSpec("x", CONTINUOUS)])
    rows = [({"x": float(v)}, lbl) for v, lbl in zip(range(4), "ABBA")]
    best = cart.best_split(rows, schema)
    assert best.rule.threshold == 0.5


def test_best_split_lexicographic_subset_tie_break():
    # a:{A:2}, b:{A:1,B:1}, c:{B:2} makes subsets {a} and {a,b} tie at an
    # exact gain of 1/4; the lexicographically first canonical subset wins
    schema = FeatureSchema([FeatureSpec("k", CATEGORICAL, ("a", "b", "c"))])
    rows = (
        [({"k": "a"}, "A")] * 2
        + [({"k": "b"}, "A"), ({"k": "b"}, "B")]
        + [({"k": "c"}, "B")] * 2
    )
    gains = {c.rule.left_levels: c.gain for c in cart.enumerate_splits(rows, "k", schema)}
    assert gains[("a",)] == gains[("a", "b")] == 0.25
    best = cart.best_split(rows, schema)
    oracle = brute_force_best_split(rows, schema)
    assert best.rule == oracle.rule
    assert best.rule.left_levels == ("a",)


# ---------------------------------------------------------- grow_tree


def test_grow_small_dataset_single_leaf():
    ts = weekend_split_set({"A": 49}, {"B": 50})  # 99 rows
    tree = cart.grow_tree(ts, TrainConfig())
    assert isinstance(tree.root, Leaf)


def test_grow_weekend_separation():
    ts = weekend_split_set({"A": 100}, {"B": 100})
    tree = cart.grow_tree(ts, TrainConfig())
    root = tree.root
    assert isinstance(root, Split) and root.rule.feature == "weekend"
    assert isinstance(root.left, Leaf) and isinstance(root.right, Leaf)
    assert {root.left.label, root.right.label} == {"A", "B"}
    assert cart.gini(root.left.distribution) == 0.0
    assert cart.gini(root.right.distribution) == 0.0


def test_grow_empty_dataset_raises():
    with pytest.raises(ValueError):
        cart.grow_tree(TrainingSet(_schema_xk(), []), TrainConfig())


def test_grow_min_gain_boundaries():
    # engineered true gains: exactly 1/250 (below threshold) and 3/500 (above)
    low = weekend_split_set(*GAIN_0004_SIDES)
    assert cart.best_split(low.rows, low.schema).gain == float(Fraction(1, 250))
    assert isinstance(cart.grow_tree(low, TrainConfig()).root, Leaf)

    high = weekend_split_set(*GAIN_0006_SIDES)
    assert cart.best_split(high.rows, high.schema).gain == float(Fraction(3, 500))
    assert isinstance(cart.grow_tree(high, TrainConfig()).root, Split)


def test_grow_min_gain_exact_boundary_splits():
    # gain exactly 0.005 satisfies the minimum (stop only when below it)
    sides = ({"A": 55, "B": 45}, {"A": 45, "B": 55})
    assert exact_binary_gain(*sides) == Fraction(1, 200)
    tree = cart.grow_tree(weekend_split_set(*sides), TrainConfig())
    assert isinstance(tree.root, Split)


def test_grow_max_depth():
    ts = random_training_set(11, max_rows=120)
    tree = cart.grow_tree(ts, TrainConfig(min_samples=2, min_gain=0.0, max_depth=1))
    root = tree.root
    if isinstance(root, Split):
        assert isinstance(root.left, Leaf) and isinstance(root.right, Leaf)
    tree0 = cart.grow_tree(ts, TrainConfig(min_samples=2, min_gain=0.0, max_depth=0))
    assert isinstance(tree0.root, Leaf)


def test_grow_deterministic():
    ts = random_training_set(23, max_rows=150)
    cfg = TrainConfig(min_samples=10, min_gain=0.0)
    a = export_tree(cart.grow_tree(ts, cfg), "json")
    b = export_tree(cart.grow_tree(ts, cfg), "json")
    assert a == b


def _walk(node):
    yield node
    if isinstance(node, Split):
        yield from _walk(node.left)
        yield from _walk(node.right)


def test_grow_structure_invariants():
    cfg = TrainConfig(min_samples=15, min_gain=0.0)
    for seed in range(8):
        ts = random_training_set(seed, max_rows=180)
        tree = cart.grow_tree(ts, cfg)
        for node in _walk(tree.root):
            assert node.distribution.total >= 1
            if isinstance(node, Split):
                assert node.distribution.total >= cfg.min_samples
                merged = dict(node.left.distribution.counts)
                for k, v in node.right.distribution.counts.items():
                    merged[k] = merged.get(k, 0) + v
                assert merged == node.distribution.counts
                assert (
                    node.left.distribution.total + node.right.distribution.total
                    == node.distribution.total
                )
            else:
                maj = max(node.distribution.counts.values())
                assert node.distribution.counts[node.label] == maj


def test_leaf_majority_tie_is_lexicographic():
    ts = weekend_split_set({"B": 5, "A": 5}, {"B": 5, "A": 5})
    tree = cart.grow_tree(ts, TrainConfig())
    assert isinstance(tree.root, Leaf)
    assert tree.root.label == "A"


def _node_rows(rows, rule, leftward):
    return [r for r in rows if rule.goes_left(r[0][rule.feature]) is leftward]


def test_grow_every_split_matches_oracle():
    cfg = TrainConfig(min_samples=20, min_gain=0.0)
    for seed in range(40):
        ts = random_training_set(seed + 1000, max_rows=120)
        tree = cart.grow_tree(ts, cfg)

        def verify(node, rows):
            if isinstance(node, Leaf):
                return
            oracle = brute_force_best_split(rows, ts.schema)
            assert oracle is not None
            assert node.rule == oracle.rule
            assert abs(node.gain - oracle.gain) <= 1e-12
            verify(node.left, _node_rows(rows, node.rule, True))
            verify(node.right, _node_rows(rows, node.rule, False))

        verify(tree.root, ts.rows)


# ------------------------------------------------------------ predict


def test_predict_single_leaf():
    ts = weekend_split_set({"A": 49}, {"B": 50})
    tree = cart.grow_tree(ts, TrainConfig())
    assert cart.predict(tree, make_fv(weekend=0)) == "B"
    assert cart.predict(tree, make_fv(weekend=1)) == "B"


def test_predict_weekend_path():
    ts = weekend_split_set({"A": 100}, {"B": 100})
    tree = cart.grow_tree(ts, TrainConfig())
    assert cart.predict(tree, make_fv(weekend=1)) == "B"
    assert cart.predict(tree, make_fv(weekend=0)) == "A"


def test_predict_unseen_level_routes_to_heavier_child():
    schema = FeatureSchema([FeatureSpec("k", CATEGORICAL, ("a", "b", "c"))])
    rows = [({"k": "a"}, "A")] * 10 + [({"k": "b"}, "B")] * 5
    tree = cart.grow_tree(TrainingSet(schema, rows), TrainConfig(min_samples=1, min_gain=0.0))
    assert isinstance(tree.root, Split)
    assert tree.root.rule.goes_left("c") is None
    assert cart.predict(tree, {"k": "c"}) == "A"  # heavier (left, n=10) child


def test_predict_unseen_level_tie_goes_left():
    schema = FeatureSchema([FeatureSpec("k", CATEGORICAL, ("a", "b", "c"))])
    rows = [({"k": "a"}, "A")] * 6 + [({"k": "b"}, "B")] * 6
    tree = cart.grow_tree(TrainingSet(schema, rows), TrainConfig(min_samples=1, min_gain=0.0))
    left_label = tree.root.left.label
    assert cart.predict(tree, {"k": "c"}) == left_label


def test_training_rows_land_in_their_leaf():
    ts = random_training_set(77, max_rows=150)
    tree = cart.grow_tree(ts, TrainConfig(min_samples=10, min_gain=0.0))

    def leaf_for(features):
        node = tree.root
        while isinstance(node, Split):
            side = node.rule.goes_left(features[node.rule.feature])
            assert side is not None  # training rows never hit unseen levels
            node = node.left if side else node.right
        return node

    for features, label in ts.rows:
        leaf = leaf_for(features)
        assert leaf.distribution.counts.get(str(label), 0) >= 1


# -------------------------------------------------- internal_features


def test_internal_features_single_leaf_empty():
    ts = weekend_split_set({"A": 49}, {"B": 50})
    assert cart.internal_features(cart.grow_tree(ts, TrainConfig())) == []


def test_internal_features_weekend_only():
    ts = weekend_split_set({"A": 100}, {"B": 100})
    assert cart.internal_features(cart.grow_tree(ts, TrainConfig())) == ["weekend"]


def test_internal_features_breadth_first_order():
    # root splits on x (classes differ across x); below, k refines
    schema = FeatureSchema([FeatureSpec("k", CATEGORICAL, ("a", "b")), FeatureSpec("x", CONTINUOUS)])
    rows = []
    for i in range(40):
        x = float(i % 2)
        k = "ab"[(i // 2) % 2]
        label = "C" if x == 0.0 else ("A" if k == "a" else "B")
        rows.append(({"k": k, "x": x}, label))
    tree = cart.grow_tree(TrainingSet(schema, rows), TrainConfig(min_samples=2, min_gain=0.0))
    feats = cart.internal_features(tree)
    assert feats[0] == tree.root.rule.feature
    assert set(feats) == {"x", "k"}


# ------------------------------------------------------------- config


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(min_samples=0)
    with pytest.raises(ValueError):
        TrainConfig(min_gain=-0.1)
    assert TrainConfig().min_samples == 100
    assert TrainConfig().min_gain == 0.005
