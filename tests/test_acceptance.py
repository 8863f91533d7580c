"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. Tolerances are pinned here, not configurable.
"""

import hashlib
import os
import random
import shutil
import subprocess
import time
from contextlib import contextmanager
from datetime import date, datetime
from fractions import Fraction
from pathlib import Path

import pytest

from delaytree import cart, report, synth
from delaytree.cart import ClassDistribution, Leaf, Split, TrainConfig
from delaytree.cli import main
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
from delaytree.patterns import DelayCategory4, all_patterns, assemble_rows, categorize, pattern_of

from helpers import (
    GAIN_0004_SIDES,
    GAIN_0006_SIDES,
    brute_force_best_split,
    hourly_keys,
    random_training_set,
    weekend_split_set,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


# ------------------------------------------------------------------ 1


def test_criterion_1_impurity_laws():
    with criterion(1, "impurity laws: gini extremes exact, gain nonnegative on 10,000 partitions"):
        for count in (1, 3, 500):
            assert cart.gini(ClassDistribution({"only": count}, count)) == 0.0
        for c in range(2, 28):
            for per_class in (1, 7):
                d = ClassDistribution({f"k{i}": per_class for i in range(c)}, per_class * c)
                assert cart.gini(d) == 1 - 1 / c

        rng = random.Random(0)
        start = time.perf_counter()
        for _ in range(10_000):
            classes = rng.randint(1, 6)
            parent = {f"k{i}": rng.randint(1, 30) for i in range(classes)}
            left = {k: rng.randint(0, v) for k, v in parent.items()}
            right = {k: parent[k] - left[k] for k in parent}
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            nl, nr = sum(left.values()), sum(right.values())
            if nl == 0 or nr == 0:
                continue
            gain = cart.information_gain(
                ClassDistribution(parent, nl + nr),
                ClassDistribution(left, nl),
                ClassDistribution(right, nr),
            )
            assert gain >= 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"10,000 partitions took {elapsed:.2f}s"


# ------------------------------------------------------------------ 2


def _rows_for(rows, rule, leftward):
    return [r for r in rows if rule.goes_left(r[0][rule.feature]) is leftward]


def test_criterion_2_oracle_equivalence():
    with criterion(2, "every grow_tree split matches the brute-force oracle on 500 random datasets"):
        start = time.perf_counter()
        cfg = TrainConfig(min_samples=25, min_gain=0.0)
        splits_checked = 0
        for seed in range(500):
            ts = random_training_set(seed, max_rows=200, max_features=4, max_levels=6)
            tree = cart.grow_tree(ts, cfg)
            stack = [(tree.root, ts.rows)]
            while stack:
                node, rows = stack.pop()
                if isinstance(node, Leaf):
                    continue
                oracle = brute_force_best_split(rows, ts.schema)
                assert oracle is not None
                assert node.rule == oracle.rule, f"seed {seed}: {node.rule} != {oracle.rule}"
                assert abs(node.gain - oracle.gain) <= 1e-12
                splits_checked += 1
                stack.append((node.left, _rows_for(rows, node.rule, True)))
                stack.append((node.right, _rows_for(rows, node.rule, False)))
        elapsed = time.perf_counter() - start
        assert splits_checked > 500  # the datasets genuinely grow trees
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


# ------------------------------------------------------------------ 3


def test_criterion_3_stopping_rules():
    with criterion(3, "min-sample and min-gain stopping rules behave exactly"):
        small = weekend_split_set({"A": 49}, {"B": 50})  # 99 rows
        assert isinstance(cart.grow_tree(small, TrainConfig()).root, Leaf)

        low = weekend_split_set(*GAIN_0004_SIDES)
        best = cart.best_split(low.rows, low.schema)
        assert best.gain == float(Fraction(1, 250))  # engineered: exactly 0.004
        assert isinstance(cart.grow_tree(low, TrainConfig()).root, Leaf)

        high = weekend_split_set(*GAIN_0006_SIDES)
        best = cart.best_split(high.rows, high.schema)
        assert best.gain == float(Fraction(3, 500))  # engineered: exactly 0.006
        tree = cart.grow_tree(high, TrainConfig())
        assert isinstance(tree.root, Split)
        assert tree.root.rule.feature == "weekend"


# ------------------------------------------------------------------ 4


def test_criterion_4_pattern_space_constants():
    with criterion(4, "pattern spaces have 27 and 9 labels; category boundaries closed-right"):
        three = all_patterns((Bridge.PB, Bridge.RB, Bridge.LQ))
        two = all_patterns((Bridge.PB, Bridge.LQ))
        assert len(set(three)) == 27
        assert len(set(two)) == 9
        waits = {"slight delay": 0.0, "delay": 30.0, "heavy delay": 30.5}
        for p in three + two:
            assert pattern_of([waits[part] for part in p.split("-")]) == p

        assert categorize(0.0) is DelayCategory4.NO_DELAY
        assert categorize(1e-9) is DelayCategory4.SLIGHT_DELAY
        assert categorize(15.0) is DelayCategory4.SLIGHT_DELAY
        assert categorize(15.0000001) is DelayCategory4.DELAY
        assert categorize(30.0) is DelayCategory4.DELAY
        assert categorize(30.0000001) is DelayCategory4.HEAVY_DELAY
        assert categorize(10_000.0) is DelayCategory4.HEAVY_DELAY


# ------------------------------------------------------------------ 5


P_BASE = "slight delay-slight delay-slight delay"
P_WEEKEND = "delay-slight delay-slight delay"
P_EVENING = "slight delay-slight delay-heavy delay"


def _pipeline_dataset(cfg, tmp_path, tag):
    out = synth.generate(cfg, tmp_path / tag)
    waits = parse_wait_times(out.wait_times.read_text())
    weather = parse_weather(out.weather.read_text())
    us, ca = parse_holidays(out.holidays.read_text())
    hours = aggregate_hourly(waits)
    features = label_hours(join_weather(hours, weather), us, ca)
    return assemble_rows(hours, features, cfg.direction, cfg.vehicle)


def test_criterion_5_planted_rule_recovery(tmp_path):
    with criterion(5, "planted rules are recovered: root split, accuracy, influential factors"):
        start = time.perf_counter()
        weekend = synth.PlantedRule(
            {"weekend": (1,)}, P_WEEKEND, {Bridge.PB: 17.0}
        )
        cfg = synth.SynthConfig(
            start=date(2016, 8, 22), end=date(2017, 7, 21),  # 334 days = 5010 hours
            seed=42, direction=Direction.TO_US, vehicle=Vehicle.PASSENGER,
            base_waits={Bridge.PB: 5.0, Bridge.RB: 5.0, Bridge.LQ: 5.0},
            rules=(weekend,), label_flip=0.05, jitter=1.0,
        )
        ds = _pipeline_dataset(cfg, tmp_path, "weekend")
        assert len(ds.rows) >= 5000
        ds = ds._replace(rows=ds.rows[:5000])
        tree = cart.grow_tree(ds, TrainConfig())
        assert isinstance(tree.root, Split)
        assert tree.root.rule.feature == "weekend"
        correct = sum(
            cart.predict(tree, row.features) == row.pattern for row in ds.rows
        )
        assert correct / len(ds.rows) >= 0.90
        assert cart.internal_features(tree) == ["weekend"]

        evening = synth.PlantedRule(
            {"hour_interval": ("Evening", "Night")},
            P_EVENING,
            {Bridge.LQ: 32.0},
        )
        cfg2 = synth.SynthConfig(
            start=date(2016, 9, 5), end=date(2017, 3, 31),
            seed=42, direction=Direction.TO_US, vehicle=Vehicle.PASSENGER,
            base_waits={Bridge.PB: 5.0, Bridge.RB: 5.0, Bridge.LQ: 5.0},
            rules=(evening, weekend), label_flip=0.0, jitter=1.0,
        )
        ds2 = _pipeline_dataset(cfg2, tmp_path, "two_rule")
        tree2 = cart.grow_tree(ds2, TrainConfig())
        assert set(cart.internal_features(tree2)) == {"hour_interval", "weekend"}
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"recovery runs took {elapsed:.1f}s"


# ------------------------------------------------------------------ 6


PIPELINE_CFG = """
[synth]
start = 2016-09-05
end = 2016-11-27
seed = 7
direction = to_us
vehicle = passenger
base-pb = 5
base-rb = 5
base-lq = 5
jitter = 1.0
label-flip = 0.05
rule.1 = weekend=1 => PB+17 => delay-slight delay-slight delay
us-holidays = 2016-09-05 2016-11-24
ca-holidays = 2016-10-10

[train]
min-samples = 100
min-gain = 0.005
"""


def test_criterion_6_pipeline_determinism(tmp_path):
    with criterion(6, "pipeline reruns are byte-identical across every artifact"):
        cfg_path = tmp_path / "pipe.cfg"
        cfg_path.write_text(PIPELINE_CFG)
        dirs = []
        for name in ("run_a", "run_b"):
            out_dir = tmp_path / name
            assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
            dirs.append(out_dir)
        a, b = dirs
        rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert rel_a == rel_b
        assert any(p.name == "observations.csv" for p in rel_a)
        assert any(p.suffix == ".json" for p in rel_a)
        assert any(p.suffix == ".dot" for p in rel_a)
        for rel in rel_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), f"{rel} differs"


def _digests(root) -> dict:
    """The sha256 of each file under `root`, by its path under `root`."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def pipeline_here(tmp_path_factory):
    """The pipeline config, and the digests of the files this interpreter writes from it."""
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = tmp / "pipe.cfg"
    cfg.write_text(PIPELINE_CFG)
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(tmp / "here")]) == 0
    return cfg, _digests(tmp / "here")


@pytest.mark.parametrize("minor", range(10, 14), ids=lambda minor: f"python3.{minor}")
def test_every_python_on_path_writes_the_pipeline_bytes_this_one_writes(tmp_path, request, minor):
    """The pipeline under python3.<minor> on PATH (the child needs only the
    standard library) writes the files this interpreter writes. One that is
    absent or does not start is skipped, with a reason that names it, before
    this interpreter runs the pipeline."""
    name = f"python3.{minor}"
    exe = shutil.which(name)
    if exe is None:
        pytest.skip(f"{name} is not on PATH")
    try:
        done = subprocess.run([exe, "-c", "import sys; print(*sys.version_info[:2])"],
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired) as exc:
        pytest.skip(f"{name} ({exe}) does not start: {exc}")
    if done.returncode != 0 or done.stdout.split() != ["3", str(minor)]:
        said = (done.stderr.strip() or done.stdout.strip()).partition("\n")[0]
        pytest.skip(f"{name} ({exe}) does not start as Python 3.{minor}: exit {done.returncode}, {said!r}")
    cfg, want = request.getfixturevalue("pipeline_here")
    env = dict(os.environ, PYTHONPATH=str(Path(cart.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    out = tmp_path / "out"
    done = subprocess.run([exe, "-m", "delaytree", "pipeline", "--config", str(cfg), "--out-dir", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (done.returncode, done.stderr) == (0, ""), exe
    assert _digests(out) == want, exe


# ------------------------------------------------------------------ 7


WAIT_HEADER = "timestamp,bridge,direction,vehicle_type,wait_minutes\n"
WEATHER_HEADER = "timestamp,temperature_f,visibility,precipitation_in,condition\n"


def _three_day_fixture():
    """Hand-built raw feed: 3 days, including out-of-window samples, an
    all-zero hour, and an incomplete hour."""
    rows = []

    def add(day, hour, minute, bridge, wait):
        rows.append(f"2016-08-{day:02d}T{hour:02d}:{minute:02d},{bridge},to_us,passenger,{wait}")

    # day 22: out-of-window samples around an in-window morning
    add(22, 6, 55, "PB", 9.0)   # dropped by the window
    add(22, 22, 0, "PB", 9.0)   # dropped by the window
    for bridge in ("PB", "RB", "LQ"):
        add(22, 7, 0, bridge, 0.0)          # all-zero hour -> dropped later
    add(22, 8, 0, "PB", 18.0)
    add(22, 8, 5, "PB", 22.0)
    add(22, 8, 0, "RB", 5.0)
    add(22, 8, 0, "LQ", 0.0)
    # day 23: incomplete hour 9 (LQ missing), complete hour 10
    add(23, 9, 0, "PB", 12.0)
    add(23, 9, 0, "RB", 3.0)
    add(23, 10, 0, "PB", 31.0)
    add(23, 10, 0, "RB", 0.0)
    add(23, 10, 0, "LQ", 16.0)
    # day 24: one complete quiet-but-nonzero hour
    add(24, 21, 0, "PB", 1.0)
    add(24, 21, 5, "PB", 2.0)
    add(24, 21, 0, "RB", 1.0)
    add(24, 21, 0, "LQ", 1.0)
    wait_csv = WAIT_HEADER + "\n".join(rows) + "\n"
    weather_rows = [
        f"2016-08-{d:02d}T{h:02d}:00,60.0,10,0.0,Clear" for d in (22, 23, 24) for h in (7, 10, 13, 16, 19, 21)
    ]
    weather_csv = WEATHER_HEADER + "\n".join(weather_rows) + "\n"
    return wait_csv, weather_csv


def test_criterion_7_aggregation_and_filtering():
    with criterion(7, "sample-count conservation, 7-21 window, all-zero dropping on a 3-day fixture"):
        wait_csv, weather_csv = _three_day_fixture()
        records = parse_wait_times(wait_csv)
        hours = aggregate_hourly(records)

        in_window = [r for r in records if 7 <= r.timestamp.hour <= 21]
        assert len(in_window) == len(records) - 2
        assert hourly_keys(hours) == {
            ((r.bridge, r.direction, r.vehicle), r.timestamp.replace(minute=0)) for r in in_window
        }
        assert all(7 <= hour.hour <= 21 for _, hour in hourly_keys(hours))
        mean_pb_8 = hours[(Bridge.PB, Direction.TO_US, Vehicle.PASSENGER)][datetime(2016, 8, 22, 8)]
        assert mean_pb_8 == 20.0  # (18 + 22) / 2

        us, ca = parse_holidays("date,country\n")
        features = label_hours(join_weather(hours, parse_weather(weather_csv)), us, ca)
        ds = assemble_rows(hours, features, Direction.TO_US, Vehicle.PASSENGER)
        assert ds.dropped_all_zero == 1       # day 22 hour 7
        assert ds.skipped_incomplete == 1     # day 23 hour 9
        assert [(r.hour_start.day, r.hour_start.hour) for r in ds.rows] == [
            (22, 8), (23, 10), (24, 21),
        ]
        assert [r.pattern for r in ds.rows] == [
            "delay-slight delay-slight delay",
            "heavy delay-slight delay-delay",
            "slight delay-slight delay-slight delay",
        ]
        for row in ds.rows:
            assert any(w > 0 for w in row.waits)


# ------------------------------------------------------------------ 8


def test_criterion_8_serialization_round_trip():
    with criterion(8, "json export/import preserves predictions on 1,000 random vectors"):
        ts = random_training_set(8, max_rows=200)
        tree = cart.grow_tree(ts, TrainConfig(min_samples=5, min_gain=0.0))
        back = report.import_tree(report.export_tree(tree, "json"))
        rng = random.Random(99)
        for _ in range(1000):
            probe = {}
            for spec in ts.schema:
                if spec.kind == "continuous":
                    probe[spec.name] = rng.uniform(-3.0, 13.0)
                else:
                    # includes levels unseen during training
                    probe[spec.name] = rng.choice(spec.levels + spec.levels[:1] + ("f",)) if rng.random() < 0.2 else rng.choice(spec.levels)
            assert cart.predict(back, probe) == cart.predict(tree, probe)
