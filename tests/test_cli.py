"""CLI exit codes, config/flag precedence, and idempotent outputs."""

import json
import math
import signal
from pathlib import Path

import pytest

from delaytree import cli
from delaytree.cli import main, parse_rule
from delaytree.errors import DataError, UsageError
from delaytree.features import HOLIDAYS_HEADER
from delaytree.ingest import WAIT_TIMES_HEADER, WEATHER_HEADER, Bridge, hourly_waits
from delaytree.patterns import OBSERVATIONS_HEADER, pattern_of

PIPE_CFG = """
[pipeline]
out-dir = {out}

[synth]
start = 2016-09-05
end = 2016-10-16
seed = 7
direction = to_us
vehicle = passenger
base-pb = 5
base-rb = 5
base-lq = 5
jitter = 1.0
label-flip = 0.05
rule.1 = weekend=1 => PB+17 => delay-slight delay-slight delay
us-holidays = 2016-09-05
ca-holidays = 2016-10-10

[train]
min-samples = 100
min-gain = 0.005
"""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Synthetic raw feeds plus an observations.csv to train from."""
    root = tmp_path_factory.mktemp("cli_corpus")
    data = root / "data"
    rc = main(
        [
            "synth",
            "--out-dir", str(data),
            "--start", "2016-09-05",
            "--end", "2016-10-16",
            "--seed", "7",
            "--direction", "to_us",
            "--vehicle", "passenger",
            "--base-pb", "5", "--base-rb", "5", "--base-lq", "5",
            "--jitter", "1.0",
            "--label-flip", "0.05",
            "--rule", "weekend=1 => PB+17 => delay-slight delay-slight delay",
        ]
    )
    assert rc == 0
    obs = root / "observations.csv"
    rc = main(
        [
            "ingest",
            "--wait-times", str(data / "wait_times.csv"),
            "--weather", str(data / "weather.csv"),
            "--holidays", str(data / "holidays.csv"),
            "--out", str(obs),
        ]
    )
    assert rc == 0
    return root


def test_train_writes_tree(corpus, tmp_path):
    out = tmp_path / "tree.json"
    rc = main(
        [
            "train",
            "--data", str(corpus / "observations.csv"),
            "--vehicle", "passenger",
            "--direction", "to_us",
            "--min-samples", "100",
            "--min-gain", "0.005",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["vehicle"] == "passenger"
    assert doc["direction"] == "to_us"
    assert doc["nodes"][0]["kind"] == "split"


def test_train_missing_data_exits_2(tmp_path, capsys):
    rc = main(
        [
            "train",
            "--data", str(tmp_path / "missing.csv"),
            "--vehicle", "passenger",
            "--direction", "to_us",
            "--out", str(tmp_path / "t.json"),
        ]
    )
    assert rc == 2
    assert "missing.csv" in capsys.readouterr().err


def test_train_absent_combo_exits_2(corpus, tmp_path, capsys):
    rc = main(
        [
            "train",
            "--data", str(corpus / "observations.csv"),
            "--vehicle", "commercial",
            "--direction", "to_can",
            "--out", str(tmp_path / "t.json"),
        ]
    )
    assert rc == 2
    assert "no rows" in capsys.readouterr().err


def test_render_unknown_format_exits_1(corpus, tmp_path, capsys):
    tree = tmp_path / "tree.json"
    assert main(
        ["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
         "--direction", "to_us", "--out", str(tree)]
    ) == 0
    rc = main(["render", "--tree", str(tree), "--format", "gif"])
    assert rc == 1
    assert "gif" in capsys.readouterr().err


def test_render_dot_and_text(corpus, tmp_path):
    tree = tmp_path / "tree.json"
    main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
          "--direction", "to_us", "--out", str(tree)])
    dot = tmp_path / "tree.dot"
    assert main(["render", "--tree", str(tree), "--format", "dot", "--out", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")
    txt = tmp_path / "tree.txt"
    assert main(["render", "--tree", str(tree), "--format", "text", "--out", str(txt)]) == 0
    assert txt.read_text().startswith("split ")


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["report", "factors", "--help"]], ids=["top", "subcommand"])
def test_help_prints_usage_and_exits_0(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: ") and err == ""


def test_missing_required_value_exits_1(capsys):
    assert main(["train", "--vehicle", "passenger", "--direction", "to_us"]) == 1
    assert "--data" in capsys.readouterr().err


def test_report_pattern_freq(corpus, tmp_path):
    out = tmp_path / "freq.csv"
    rc = main(
        ["report", "pattern-freq", "--data", str(corpus / "observations.csv"),
         "--vehicle", "passenger", "--direction", "to_us", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pattern,count"
    assert len(lines) >= 2


def test_report_hourly_dist(corpus, tmp_path):
    out = tmp_path / "dist.csv"
    rc = main(
        ["report", "hourly-dist", "--wait-times", str(corpus / "data" / "wait_times.csv"),
         "--bridge", "PB", "--vehicle", "passenger", "--direction", "to_us", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text().splitlines()[0] == "hour,no_delay,slight_delay,delay,heavy_delay"


def test_report_factors(corpus, tmp_path):
    tree = tmp_path / "tree.json"
    main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
          "--direction", "to_us", "--out", str(tree)])
    out = tmp_path / "factors.csv"
    assert main(["report", "factors", "--trees", str(tree), "--out", str(out)]) == 0
    assert "weekend" in out.read_text()


def test_report_factors_rejects_two_trees_of_one_combo(corpus, tmp_path, capsys):
    tree = tmp_path / "tree.json"
    assert main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
                 "--direction", "to_us", "--out", str(tree)]) == 0
    again = tmp_path / "again.json"
    again.write_text(tree.read_text())
    out = tmp_path / "factors.csv"
    assert main(["report", "factors", "--trees", str(tree), str(again), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {tree} and {again} both hold the passenger to_us tree\n"
    assert not out.exists()


def test_report_factors_rejects_a_tree_without_vehicle_and_direction(corpus, tmp_path, capsys):
    tree = tmp_path / "tree.json"
    assert main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
                 "--direction", "to_us", "--out", str(tree)]) == 0
    doc = json.loads(tree.read_text())
    doc["vehicle"] = doc["direction"] = None
    tree.write_text(json.dumps(doc))
    assert main(["report", "factors", "--trees", str(tree)]) == 1
    assert capsys.readouterr() == ("", f"error: {tree}: tree json lacks vehicle/direction tags\n")


def test_ingest_rerun_is_byte_identical(corpus, tmp_path):
    data = corpus / "data"
    args = [
        "ingest",
        "--wait-times", str(data / "wait_times.csv"),
        "--weather", str(data / "weather.csv"),
        "--holidays", str(data / "holidays.csv"),
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == (corpus / "observations.csv").read_bytes()


def _weather_rows(corpus, tmp_path, *rows):
    """A weather.csv of the corpus's header and its data rows numbered `rows`."""
    lines = (corpus / "data" / "weather.csv").read_text().splitlines(keepends=True)
    weather = tmp_path / "weather.csv"
    weather.write_text("".join([lines[0]] + [lines[row] for row in rows]))
    return weather


def test_ingest_names_the_weather_file_of_a_stale_hour(corpus, tmp_path, capsys):
    weather = _weather_rows(corpus, tmp_path, 1)  # 2016-09-05T07:00 only
    data = corpus / "data"
    assert main(["ingest", "--wait-times", str(data / "wait_times.csv"), "--weather", str(weather),
                 "--holidays", str(data / "holidays.csv"), "--out", str(tmp_path / "obs.csv")]) == 2
    assert capsys.readouterr().err == (f"data error: {weather}: no weather within 3:00:00 of 2016-09-05T11:00:00; "
                                       "latest earlier record at 2016-09-05T07:00:00\n")


def test_pipeline_names_the_weather_file_without_an_earlier_record(corpus, tmp_path, capsys):
    weather = _weather_rows(corpus, tmp_path, 5)  # 2016-09-05T11:00 only
    data = corpus / "data"
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(f"[pipeline]\nout-dir = {tmp_path / 'out'}\n\n[ingest]\nwait-times = {data / 'wait_times.csv'}\n"
                   f"weather = {weather}\nholidays = {data / 'holidays.csv'}\n")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"data error: {weather}: no weather within 3:00:00 of 2016-09-05T07:00:00; "
                                       "no earlier record\n")


def test_config_supplies_values_and_flags_override(corpus, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "[train]\n"
        f"data = {corpus / 'observations.csv'}\n"
        "vehicle = passenger\n"
        "direction = to_us\n"
        "min-samples = 100000\n"  # absurd: forces a single leaf unless overridden
        f"out = {tmp_path / 'from_cfg.json'}\n"
    )
    assert main(["train", "--config", str(cfg)]) == 0
    doc = json.loads((tmp_path / "from_cfg.json").read_text())
    assert doc["nodes"][0]["kind"] == "leaf"

    out = tmp_path / "overridden.json"
    assert main(["train", "--config", str(cfg), "--min-samples", "100", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["nodes"][0]["kind"] == "split"

    # A [train.<vehicle>.<direction>] section beats [train] for that dataset.
    with cfg.open("a") as fh:
        fh.write("[train.passenger.to_us]\nmin-samples = 100\n")
    out = tmp_path / "per_stream.json"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "overridden.json").read_bytes()

    # The override is looked up first, so the [train] value it hides is never read.
    cfg.write_text(cfg.read_text().replace("min-samples = 100000", "min-samples = abc"))
    out = tmp_path / "hidden_bad_value.json"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "overridden.json").read_bytes()


def test_pipeline_smoke(tmp_path):
    cfg = tmp_path / "pipe.cfg"
    out_dir = tmp_path / "out"
    cfg.write_text(PIPE_CFG.format(out=out_dir))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert (out_dir / "observations.csv").exists()
    assert (out_dir / "trees" / "tree_passenger_to_us.json").exists()
    assert (out_dir / "reports" / "factors.csv").exists()
    assert (out_dir / "reports" / "hourly_dist_PB_passenger_to_us.csv").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--min-gain", "nan"], "min_gain must be a finite number >= 0, not nan"),
        (["--min-gain", "inf"], "min_gain must be a finite number >= 0, not inf"),
        (["--max-depth", "-1"], "max_depth must be >= 0, not -1"),
        (["--min-samples", "\u0661\u0660\u0660"],
         "bad --min-samples '\u0661\u0660\u0660': '\u0661\u0660\u0660' is not an ASCII number"),
        (["--max-depth", "1_0"], "bad --max-depth '1_0': '1_0' is not an ASCII number"),
    ],
    ids=["min-gain-nan", "min-gain-inf", "max-depth-negative", "min-samples-arabic-indic", "max-depth-underscore"],
)
def test_train_rejects_bad_tree_settings(corpus, tmp_path, capsys, flags, message):
    out = tmp_path / "tree.json"
    rc = main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
               "--direction", "to_us", "--out", str(out), *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_pipeline_rejects_nan_min_gain(tmp_path, capsys):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(PIPE_CFG.format(out=tmp_path / "out").replace("min-gain = 0.005", "min-gain = nan"))
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: min_gain must be a finite number >= 0, not nan\n"
    assert list(tmp_path.iterdir()) == [cfg]  # the settings are checked before any file is written


def test_a_negative_seed_is_not_an_alias_of_its_absolute_value(tmp_path, capsys):
    # random.Random(-1) seeds as random.Random(1), so -1 would write seed 1's corpus.
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(PIPE_CFG.format(out=tmp_path / "out").replace("seed = 7", "seed = -1"))
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, not -1\n"
    assert list(tmp_path.iterdir()) == [cfg]
    assert main(["synth", "--config", str(cfg), "--seed=-1", "--out-dir", str(tmp_path / "data")]) == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, not -1\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_pipeline_checks_the_tree_settings_of_a_combo_without_rows(tmp_path, capsys):
    # The synth corpus has passenger to_us rows only, so no tree is grown
    # from [train.commercial.to_can]; its bad value still stops the run.
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(PIPE_CFG.format(out=tmp_path / "out") + "\n[train.commercial.to_can]\nmax-depth = -1\n")
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: max_depth must be >= 0, not -1\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_train_rerun_is_byte_identical(corpus, tmp_path):
    out = tmp_path / "tree.json"
    args = ["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
            "--direction", "to_us", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_data_error_names_file_and_line(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    for content in (
        b"timestamp,bridge,direction,vehicle_type,wait_minutes\nnope,PB,to_us,passenger,1\n",
        b"timestamp,bridge,direction,vehicle_type,wait_minutes\n\xff\n",  # not UTF-8
    ):
        bad.write_bytes(content)
        rc = main(["ingest", "--wait-times", str(bad), "--weather", str(corpus / "data" / "weather.csv"),
                   "--holidays", str(corpus / "data" / "holidays.csv"), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "line 2" in err


# One good row of each CSV format.
_CSV_ROWS = {
    "wait_times.csv": (WAIT_TIMES_HEADER, "2016-09-05T08:00,PB,to_us,passenger,1"),
    "weather.csv": (WEATHER_HEADER, "2016-09-05T08:00,60.5,10,0.1,Rain"),
    "holidays.csv": (HOLIDAYS_HEADER, "2016-09-05,US"),
    "observations.csv": (
        OBSERVATIONS_HEADER,
        "2016-09-05T08:00,to_us,passenger,20.0,5.25,0.0,delay-slight delay-slight delay,"
        "9,Fall,Early_morning,0,1,0,63.5,9,0.1,Rain",
    ),
}
# A 5,000-character field of letters, of digits (past the float range, and
# past the 4,300 digits int reads on Python 3.11+) or a negative number.
_FILLERS = {"letters": "x" * 5000, "digits": "9" * 5000, "negative": "-1." + "0" * 4997}
_LONG_FIELDS = [
    (name, column, kind)
    for name, (header, _) in _CSV_ROWS.items()
    for column in range(len(header))
    for kind in ("letters", "digits")
] + [("wait_times.csv", 4, "negative"), ("weather.csv", 3, "negative")]


@pytest.mark.parametrize(
    "name, column, kind", _LONG_FIELDS,
    ids=[f"{name[:-4]}-{_CSV_ROWS[name][0][column]}-{kind}" for name, column, kind in _LONG_FIELDS],
)
def test_a_long_field_gives_a_short_message(tmp_path, monkeypatch, capsys, name, column, kind):
    monkeypatch.chdir(tmp_path)
    for file, (header, row) in _CSV_ROWS.items():
        if file == name:
            row = ",".join(_FILLERS[kind] if i == column else field for i, field in enumerate(row.split(",")))
        Path(file).write_text(f"{','.join(header)}\n{row}\n")
    if name == "observations.csv":
        argv = ["train", "--data", name, "--vehicle", "passenger", "--direction", "to_us"]
    else:
        argv = ["ingest", "--wait-times", "wait_times.csv", "--weather", "weather.csv", "--holidays", "holidays.csv"]
    assert main([*argv, "--out", "out.txt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {name}: line 2: ") and err.count("\n") == 1 and len(err) < 300, err[:300]


WAIT_HEADER = b"timestamp,bridge,direction,vehicle_type,wait_minutes\n"
WAIT_ROW = b"2016-09-05T08:00,PB,to_us,passenger,1\n"


@pytest.mark.parametrize(
    "content, line",
    [
        (b"\xff" + WAIT_HEADER + WAIT_ROW, 1),
        (WAIT_HEADER + WAIT_ROW + b"2016-09-05T08:05,PB,to_us,passenger,\xe21\n" + WAIT_ROW, 3),
        (WAIT_HEADER + WAIT_ROW * 2 + b"2016-09-05T08:10,PB,to_us,passenger,1\xe2\x82", 4),  # a cut-off euro sign
    ],
    ids=["first", "middle", "unterminated_last"],
)
def test_utf8_error_names_its_line(tmp_path, content, line):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    with pytest.raises(DataError) as exc:
        cli._parse_file(hourly_waits, bad)
    assert str(exc.value) == f"{bad}: line {line}: not UTF-8 text"


def test_an_earlier_data_error_wins_over_a_later_bad_byte(tmp_path):
    # The file is read one line at a time, so line 5 is never decoded.
    bad = tmp_path / "bad.csv"
    bad.write_bytes(WAIT_HEADER + b"nope,PB,to_us,passenger,1\n" + WAIT_ROW * 2 + b"\xff\n")
    with pytest.raises(DataError) as exc:
        cli._parse_file(hourly_waits, bad)
    assert str(exc.value) == f"{bad}: line 2: malformed timestamp 'nope'"


@pytest.mark.parametrize(
    "column, value, message",
    [
        (8, "Monsoon", "season 'Monsoon' is not a declared level"),
        (13, "nan", "temperature_f nan is not a finite number"),
        (6, "delay-slight delay", "pattern 'delay-slight delay' does not fit passenger"),
        (6, "banana-slight delay-slight delay", "pattern 'banana-slight delay-slight delay' has unknown part 'banana'"),
        (6, "delay-slight delay-slight delay-delay",
         "pattern 'delay-slight delay-slight delay-delay' does not fit passenger"),
        (2, "pa\u017f\u017fenger", "unknown vehicle 'pa\u017f\u017fenger'"),
    ],
)
def test_train_rejects_undeclared_level_and_non_finite_value(corpus, tmp_path, capsys, column, value, message):
    lines = (corpus / "observations.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[column] = value
    lines[3] = ",".join(fields)
    bad = tmp_path / "bad_obs.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--data", str(bad), "--vehicle", "passenger", "--direction", "to_us",
               "--out", str(tmp_path / "t.json")])
    assert rc == 2
    assert f"{bad}: line 4: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, value, shown",
    [(7, "1", "month 1"), (9, "Night", "hour_interval 'Night'"), (None, None, None)],
    ids=["month", "hour_interval", "repeat"],
)
def test_observations_row_must_fit_its_hour(corpus, tmp_path, capsys, column, value, shown):
    lines = (corpus / "observations.csv").read_text().splitlines()
    fields = lines[3].split(",")  # passenger to_us on a September morning
    if column is None:
        lines.append(lines[3])
        message = f"line {len(lines)}: passenger to_us {fields[0]!r} repeats line 4"
    else:
        message = f"line 4: {shown} contradicts hour_start {fields[0]!r}"
        fields[column] = value
        lines[3] = ",".join(fields)
    bad = tmp_path / "bad_obs.csv"
    bad.write_text("\n".join(lines) + "\n")
    for argv in (["train", "--data", str(bad), "--out", str(tmp_path / "t.json")],
                 ["report", "pattern-freq", "--data", str(bad)]):
        assert main([*argv, "--vehicle", "passenger", "--direction", "to_us"]) == 2
        assert f"{bad}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "wait_rb, shown", [("banana", "'banana'"), ("5.0", "'5.0'"), ("7" * 150, "'" + "7" * 98 + "\u2026")]
)
def test_a_commercial_row_leaves_wait_rb_blank(corpus, tmp_path, capsys, wait_rb, shown):
    lines = (corpus / "observations.csv").read_text().splitlines()
    fields = lines[3].split(",")  # made a commercial row, valid but for its wait_rb
    fields[2], fields[4] = "commercial", wait_rb
    fields[6] = pattern_of((float(fields[3]), float(fields[5])))
    lines[3] = ",".join(fields)
    bad = tmp_path / "bad_obs.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["report", "pattern-freq", "--data", str(bad), "--vehicle", "commercial", "--direction", "to_us"]) == 2
    assert capsys.readouterr().err.endswith(f"{bad}: line 4: wait_rb {shown} of a commercial row is not blank\n")


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(o, cp, flags):
        raise RuntimeError("something broke")

    summary, section, settings, _ = cli.COMMANDS["render"]
    monkeypatch.setitem(cli.COMMANDS, "render", (summary, section, settings, broken))
    assert main(["render", "--tree", "t.json", "--format", "text"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: something broke\n"


def test_render_cyclic_tree_exits_2(tmp_path, capsys):
    tree = tmp_path / "cyclic.json"
    tree.write_text(json.dumps({
        "schema": [{"name": "x", "kind": "continuous", "levels": None}],
        "nodes": [{"id": 0, "kind": "split", "rule": {"feature": "x", "kind": "threshold", "threshold": 0.5},
                   "gain": 0.5, "n": 2, "counts": {"A": 1, "B": 1}, "label": None, "children": [0, 0]}],
    }))
    rc = main(["render", "--tree", str(tree), "--format", "text"])
    assert rc == 2
    assert f"{tree}: malformed tree json: node 0 is reached twice" in capsys.readouterr().err


def _raise_by_500(leaf):
    """The leaf's own label stays its majority, and n its counts' sum."""
    leaf["counts"][leaf["label"]] += 500
    leaf["n"] += 500


def _relabel_banana(leaf):
    """The leaf's counts all move to a label no passenger pattern has, which
    is then their majority."""
    leaf["counts"] = {"banana": leaf["n"]}
    leaf["label"] = "banana"


def _add_unreached_leaf(doc):
    """A copy of the last node under a new id that no split names."""
    doc["nodes"].append(dict(doc["nodes"][-1], id=len(doc["nodes"])))


def _equal_shares(doc):
    """Both leaves of the root hold the two patterns half and half, so the
    root's split gains nothing; each leaf is still its own majority."""
    for leaf, n in zip(doc["nodes"][1:], (10, 4)):
        leaf["counts"] = {pattern: n // 2 for pattern in leaf["counts"]}
        leaf["n"] = n
        leaf["label"] = min(leaf["counts"])


def _no_nodes(doc):
    """The document {"schema": [], "nodes": []}: no node is the root."""
    doc.clear()
    doc.update(schema=[], nodes=[])


def _deep_list(depth):
    return [] if depth == 0 else [_deep_list(depth - 1)]


# Node 0 of the corpus tree splits its 630 rows on weekend into leaves 1
# (450 rows) and 2 (180); each message is the whole error line.
_ROOT_COUNTS = '{"delay-slight delay-slight delay": 194, "slight delay-slight delay-slight delay": 436}'
_RAISED_COUNTS = '{"delay-slight delay-slight delay": 194, "slight delay-slight delay-slight delay": 936}'
_ROOT_GAIN = "0.3355283446712018"
_LEAF_1_LABEL = '"slight delay-slight delay-slight delay"'


@pytest.mark.parametrize(
    "node, key, value, message",
    [
        (None, "vehicle", 5, "vehicle 5 has the wrong type"),
        ("split", "n", "5", 'node 0 n is "5", derived 630'),
        ("leaf", "label", [1], f"node 1 label is [1], derived {_LEAF_1_LABEL}"),
        ("split", "kind", "banana", "node kind 'banana' is neither leaf nor split"),
        ("split", "gain", math.nan, f"node 0 gain is NaN, derived {_ROOT_GAIN}"),
        ("split", "rule", {"feature": "temperature_f", "kind": "threshold", "threshold": math.inf},
         "threshold inf is not finite"),
        ("split", "rule", {"feature": "nope", "kind": "threshold", "threshold": 1.0},
         "rule feature 'nope' is not in the schema"),
        ("split", "rule", {"feature": "weekend", "kind": "threshold", "threshold": 0.5},
         "'threshold' rule on categorical feature 'weekend'"),
        ("split", "rule", {"feature": "temperature_f", "kind": "subset", "left": [1.0], "right": [2.0]},
         "'subset' rule on continuous feature 'temperature_f'"),
        ("leaf", "n", 5, "node 1 n is 5, derived 450"),
        ("split", "rule", {"feature": "weekend", "kind": "subset", "left": [7, "x"], "right": [1]},
         "subset sides [7, 'x'] and [1] are not two nonempty disjoint sets of levels of 'weekend'"),
        ("split", "rule", {"feature": "weekend", "kind": "subset", "left": [0, 1], "right": [0, 1]},
         "subset sides [0, 1] and [0, 1] are not two nonempty disjoint sets of levels of 'weekend'"),
        ("split", "rule", {"feature": "weekend", "kind": "subset", "left": [False], "right": [1]},
         "subset sides [False] and [1] are not two nonempty disjoint sets of levels of 'weekend'"),
        ("split", "rule", {"feature": "weekend", "kind": "subset", "left": [], "right": [0, 1]},
         "subset sides [] and [0, 1] are not two nonempty disjoint sets of levels of 'weekend'"),
        ("leaf", "label", "banana", f'node 1 label is "banana", derived {_LEAF_1_LABEL}'),
        ("leaf", None, _raise_by_500, f"node 0 counts is {_ROOT_COUNTS}, derived {_RAISED_COUNTS}"),
        ("leaf", "counts", {"x": -3}, "count -3 is negative"),
        ("leaf", "n", -1, "node 1 n is -1, derived 450"),
        ("split", "gain", 0.0, f"node 0 gain is 0.0, derived {_ROOT_GAIN}"),
        ("split", "gain", -0.5, f"node 0 gain is -0.5, derived {_ROOT_GAIN}"),
        ("leaf", None, _relabel_banana, "leaf label 'banana' is not a passenger pattern"),
        ("split", "gain", 0.9, f"node 0 gain is 0.9, derived {_ROOT_GAIN}"),
        ("leaf", "id", 0, "3 nodes are listed but node 0 reaches 1"),
        (None, None, _add_unreached_leaf, "4 nodes are listed but node 0 reaches 3"),
        ("split", "children", [True, 2], "node 0 children is [true, 2], derived [1, 2]"),
        ("split", "label", "banana", 'node 0 label is "banana", derived null'),
        ("leaf", "gain", 0.5, "node 1 gain is 0.5, derived null"),
        ("leaf", "rule", {"feature": "weekend", "kind": "subset", "left": [0], "right": [1]},
         'node 1 rule is {"feature": "weekend", "kind": "subset", "left": [0], "right": [1]}, derived null'),
        ("leaf", "children", [1, 2], "node 1 children is [1, 2], derived null"),
        (None, None, _equal_shares, "node 0 splits its counts with a gain of 0.0"),
        (None, None, _no_nodes, "no node has id 0"),
        # A stated or derived value longer than 100 characters shows its first 99 and "…".
        ("leaf", "gain", _deep_list(500), "node 1 gain is " + "[" * 99 + "…, derived null"),
        ("split", "kind", "x" * 10_000, "node kind '" + "x" * 98 + "… is neither leaf nor split"),
        ("leaf", "label", "x" * 10_000, f'node 1 label is "{"x" * 98}…, derived {_LEAF_1_LABEL}'),
    ],
    ids=["vehicle", "n", "label", "kind", "gain", "threshold", "unknown_feature", "threshold_on_categorical",
         "subset_on_continuous", "n_not_sum", "subset_undeclared", "subset_overlap", "subset_bool", "subset_empty",
         "label_not_majority", "counts_not_children_sum", "negative_count", "negative_n", "zero_gain",
         "negative_gain", "label_not_a_pattern", "gain_not_of_counts", "id_of_node_1_is_0", "unreached_leaf",
         "child_id_true", "split_label", "leaf_gain", "leaf_rule", "leaf_children", "equal_shares", "no_root",
         "deep_list_gain", "long_kind", "long_label"],
)
def test_mistyped_tree_json_exits_2(corpus, tmp_path, capsys, node, key, value, message):
    tree = tmp_path / "tree.json"
    assert main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
                 "--direction", "to_us", "--out", str(tree)]) == 0
    doc = json.loads(tree.read_text())
    target = doc if node is None else next(n for n in doc["nodes"] if n["kind"] == node)
    if callable(value):
        value(target)
    else:
        target[key] = value
    tree.write_text(json.dumps(doc))
    for argv in (["render", "--tree", str(tree), "--format", "text"], ["report", "factors", "--trees", str(tree)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"data error: {tree}: malformed tree json: {message}\n"


def test_invalid_log_env_warns_but_runs(corpus, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DELAYTREE_LOG", "chatty")
    out = tmp_path / "tree.json"
    rc = main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
               "--direction", "to_us", "--out", str(out)])
    assert rc == 0
    assert "DELAYTREE_LOG" in capsys.readouterr().err


ROWS_LINE = "INFO delaytree: passenger to_us: 630 rows, 0 incomplete hours skipped, 0 all-zero hours dropped\n"


@pytest.mark.parametrize(
    "level, info",
    [("info", True), ("INFO", True), ("debug", True), ("error", False), ("", False), ("chatty", False)],
)
def test_log_levels_give_the_info_lines_and_nothing_else(corpus, tmp_path, capsys, monkeypatch, level, info):
    monkeypatch.setenv("DELAYTREE_LOG", level)
    warning = "warning: ignoring DELAYTREE_LOG='chatty' (want error, info or debug)\n" if level == "chatty" else ""
    data = corpus / "data"
    assert main(["ingest", "--wait-times", str(data / "wait_times.csv"), "--weather", str(data / "weather.csv"),
                 "--holidays", str(data / "holidays.csv"), "--out", str(tmp_path / "o.csv")]) == 0
    assert capsys.readouterr().err == warning + (ROWS_LINE if info else "")
    cfg = tmp_path / "pipe.cfg"
    out = tmp_path / "out"
    cfg.write_text(PIPE_CFG.format(out=out))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == warning + (f"{ROWS_LINE}INFO delaytree: pipeline artifacts under {out}\n"
                                                 if info else "")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_hourly_dist_of_a_stream_that_cannot_exist_is_a_usage_error(corpus, tmp_path, capsys, source):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[report]\nbridge = RB\n" if source == "config" else "")
    argv = ["report", "hourly-dist", "--config", str(cfg), "--wait-times", str(corpus / "data" / "wait_times.csv"),
            "--vehicle", "commercial", "--direction", "to_us", "--out", str(tmp_path / "dist.csv")]
    assert main(argv + (["--bridge", "RB"] if source == "flag" else [])) == 1
    assert capsys.readouterr().err == "error: bad --bridge 'RB': RB carries no commercial vehicles\n"
    assert not (tmp_path / "dist.csv").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--base-pb", "nan"], "base wait PB must be >= 0, not nan"),
        (["--jitter", "inf"], "jitter must be a finite number >= 0, not inf"),
        (["--base-pb", "1e308", "--jitter", "1e308"], "base wait PB 1e+308 plus jitter 1e+308 is not finite"),
        (["--rule", "weekend=1 => PB+" + "9" * 400 + " => heavy delay-slight delay-slight delay"],
         "rule-shifted wait PB inf plus jitter 0.0 is not finite"),
        (["--rule", "weekend=1 => PB-10 => slight delay-slight delay-slight delay"],
         "rule-shifted wait PB must be >= 0, not -5.0"),
        (["--rule", "weekend=1 => PB+17 => banana"],
         "rule target 'banana' disagrees with its shifted waits ('delay-slight delay-slight delay')"),
        (["--rule", "weekend => PB+17 => delay-slight delay-slight delay"], "bad rule condition 'weekend'"),
    ],
    ids=["base-nan", "jitter-inf", "overflow", "shift-inf", "shift-negative", "target-junk", "condition-without-value"],
)
def test_synth_rejects_non_finite_settings(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    rc = main(["synth", "--out-dir", str(out), "--start", "2016-09-05", "--end", "2016-09-11", "--seed", "1",
               "--direction", "to_us", "--vehicle", "passenger", "--base-pb", "5", "--base-rb", "5",
               "--base-lq", "5", *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_synth_last_representable_day(tmp_path):
    out = tmp_path / "data"
    rc = main(["synth", "--out-dir", str(out), "--start", "9999-12-31", "--end", "9999-12-31", "--seed", "1",
               "--direction", "to_us", "--vehicle", "passenger", "--base-pb", "5", "--base-rb", "5",
               "--base-lq", "5"])
    assert rc == 0
    hours = (out / "weather.csv").read_text().splitlines()[1:]
    assert [line[:16] for line in hours] == [f"9999-12-31T{h:02d}:00" for h in range(7, 22)]


def test_parse_rule():
    rule = parse_rule("weekend=1 & hour_interval=Evening|Night => PB+17,LQ-2 => delay-slight delay-slight delay")
    assert rule.condition == {"weekend": (1,), "hour_interval": ("Evening", "Night")}
    assert rule.shifts == {Bridge.PB: 17.0, Bridge.LQ: -2.0}
    assert rule.target == "delay-slight delay-slight delay"
    for condition, message in (
        ("banana=1", "unknown feature 'banana' in rule condition"),
        ("weekend=1 & weekend=0", "bad rule condition 'weekend=0': weekend has a condition already"),
        ("weekend=1|1", "bad rule condition 'weekend=1|1': a level repeats"),
    ):
        with pytest.raises(UsageError) as exc:
            parse_rule(f"{condition} => PB+17 => delay-slight delay-slight delay")
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "weekend=1 => PB+17",  # missing target
        "temperature_f=60 => PB+1 => delay-slight delay-slight delay",  # continuous condition
        "weekend=3 => PB+1 => delay-slight delay-slight delay",  # bad level
        "weekend=1 => ZZ+1 => delay-slight delay-slight delay",  # bad bridge
        "weekend=1 => PB+\u0661\u0667 => delay-slight delay-slight delay",  # not ASCII digits
        "weekend=\u0661 => PB+17 => delay-slight delay-slight delay",
    ],
)
def test_parse_rule_rejects(text):
    with pytest.raises(UsageError):
        parse_rule(text)


@pytest.mark.parametrize(
    "content, code, named",
    [
        ("[train]\ndata = {tmp}/a%b.csv\nvehicle = passenger\ndirection = to_us\nout = t.json\n", 2, "a%b.csv"),
        ("[train]\ndata = caf\u00e9.csv\n", 1, "bad.cfg"),  # written as Latin-1, not UTF-8
    ],
)
def test_config_file_text_is_taken_literally(tmp_path, capsys, content, code, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(content.format(tmp=tmp_path).encode("latin-1"))
    assert main(["train", "--config", str(cfg)]) == code
    assert named in capsys.readouterr().err


RULE_A = "weekend=1 => PB+17 => delay-slight delay-slight delay"
RULE_B = "weekend=0 => LQ+17 => slight delay-slight delay-delay"

# Per setting: a valid text, another valid text, and then its bad texts (none
# when any text is valid). An empty flag text means the flag with no argument.
VALUES = {
    "start": ("2016-09-05", "2016-09-12", "2016-13-01", "20160905", "2016-W36-1"),
    "end": ("2016-10-16", "2016-10-23", "16/10/2016"),
    "seed": ("7", "8", "seven", "\u0667", "1_0"),
    "vehicle": ("passenger", "commercial", "bike", "pa\u017f\u017fenger", "commerc\u0131al"),
    "direction": ("to_us", "to_can", "north", "to_u\u017f"),
    "bridge": ("PB", "LQ", "ZZ"),
    "base-pb": ("5", "6.5", "five", "\u0665", "5_0"),
    "base-rb": ("5", "6.5", "five", "\u0665"),
    "base-lq": ("5", "6.5", "five", "5_0"),
    "jitter": ("1.0", "0.5", "some", "\u0661.0", "1_0.0"),
    "label-flip": ("0.05", "0.1", "few", "0.0_5"),
    "rule": (RULE_A, RULE_B, "weekend=1 => PB+17"),
    "us-holidays": ("2016-09-05", "2016-09-05 2016-11-24", "2016-02-30", "20160905"),
    "ca-holidays": ("2016-10-10", "2016-07-01, 2016-10-10", "Thanksgiving"),
    "min-samples": ("100", "5", "many", "\u0661\u0660\u0660", "1_00"),
    "min-gain": ("0.005", "0", "tiny", "0.00_5", "\u0660"),
    "max-depth": ("3", "4", "deep", "\u0663", "1_0"),
    "trees": ("a.json", "b.json", ""),
    "format": ("dot", "text", "gif"),
}
PATHS = ("a%b.csv", "c d.csv")  # every other setting is a path


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_option_table(command, tmp_path, monkeypatch, capsys):
    """Flag beats config beats default, for every setting of every subcommand."""
    summary, section, settings, _ = cli.COMMANDS[command]
    seen = []
    monkeypatch.setitem(cli.COMMANDS, command, (summary, section, settings, lambda o, cp, flags: seen.append(o) or 0))
    cfg = tmp_path / "c.cfg"

    def run(flags, config):
        lines = "".join(f"{key} = {text}\n" for key, text in config.items())
        cfg.write_text(f"[{section}]\n{lines}", encoding="utf-8")
        argv = command.split() + ["--config", str(cfg)]
        for name, text in flags.items():
            argv += [f"--{name}"] + ([text] if text else [])
        seen.clear()
        code = main(argv)
        return code, capsys.readouterr().err, seen[0] if seen else None

    def value(setting, text):
        """The resolved value of one flag or config text."""
        kind = setting.flag or {}
        if kind.get("action") == "append":
            return (setting.convert(text),)
        return setting.convert([text] if "nargs" in kind else text)

    required = {s.name: VALUES.get(s.name, PATHS)[0] for s in settings if s.default is cli.REQUIRED}
    for s in settings:
        a, b, *bads = VALUES.get(s.name, PATHS)
        others = {name: text for name, text in required.items() if name != s.name}
        if s.default is cli.REQUIRED:
            assert run(others, {})[:2] == (1, f"error: missing --{s.name}\n")
        else:
            assert run(others, {})[2][s.name] == s.default
        assert run(others, {s.name: a})[2][s.name] == value(s, a)
        if s.flag is not None:
            flagged = run({**others, s.name: b}, {s.name: a})[2][s.name]
            if s.flag.get("action") == "append":  # --rule adds to the config's rules
                assert flagged == value(s, b) + value(s, a)
            else:
                assert flagged == value(s, b)
        for bad in bads:
            sources = [({}, {s.name: bad})] + ([({s.name: bad}, {})] if s.flag is not None else [])
            for flags, config in sources:
                code, err, _ = run({**others, **flags}, config)
                assert code == 1 and s.name in err, (flags, config, err)


_CONVERTED = [
    (command, s.name) for command, (_, _, settings, _) in cli.COMMANDS.items() for s in settings
    if s.convert not in (str, cli._words)
]


@pytest.mark.parametrize(
    "command, name", _CONVERTED + [("synth", None)], ids=[f"{c}-{n}" for c, n in _CONVERTED] + ["config-file"]
)
def test_a_long_setting_gives_a_short_message(command, name, tmp_path, monkeypatch, capsys):
    """A 5,000-character value of a setting, as a flag and as a config value,
    or a duplicated 5,000-character config key, is shown cut."""
    summary, section, settings, _ = cli.COMMANDS[command]
    monkeypatch.setitem(cli.COMMANDS, command, (summary, section, settings, lambda o, cp, flags: 0))
    long, cfg = "x" * 5000, tmp_path / "c.cfg"
    argv = command.split() + ["--config", str(cfg)]
    for s in settings:
        if s.default is cli.REQUIRED and s.name != name:
            argv += [f"--{s.name}", VALUES.get(s.name, PATHS)[0]]
    runs = [(argv, f"[{section}]\n{long} = 1\n{long} = 2\n")] if name is None else [(argv, f"[{section}]\n{name} = {long}\n")]
    if name is not None and next(s for s in settings if s.name == name).flag is not None:
        runs.append((argv + [f"--{name}", long], ""))
    for args, config in runs:
        cfg.write_text(config, encoding="utf-8")
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300, err[:300]


@pytest.mark.parametrize(
    "rows, skipped, dropped",
    [
        (["2016-09-05T06:59,PB,to_us,passenger,1", "2016-09-05T22:00,LQ,to_can,commercial,0"], 0, 0),
        (["2016-09-05T08:00,PB,to_us,passenger,1", "2016-09-05T08:00,PB,to_us,commercial,0",
          "2016-09-05T08:10,LQ,to_us,commercial,0"], 1, 1),
    ],
    ids=["every_row_outside_the_window", "an_incomplete_and_an_all_zero_hour"],
)
def test_pipeline_without_observations_names_the_wait_file_and_the_hours_it_lost(tmp_path, capsys, rows, skipped,
                                                                                   dropped):
    """And ingest, which shares the check: the same message, exit 2, no file written."""
    wait, weather, holidays = (tmp_path / name for name in ("wait_times.csv", "weather.csv", "holidays.csv"))
    wait.write_text("\n".join([",".join(WAIT_TIMES_HEADER), *rows, ""]))
    weather.write_text(",".join(WEATHER_HEADER) + "\n2016-09-05T08:00,60.5,10,0.1,Rain\n")
    holidays.write_text(",".join(HOLIDAYS_HEADER) + "\n")
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(f"[ingest]\nwait-times = {wait}\nweather = {weather}\nholidays = {holidays}\n")
    message = (f"data error: {wait}: no observations survived ingestion; nothing to train on ({skipped} incomplete "
               f"hours skipped, {dropped} all-zero hours dropped)\n")
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == message
    observations = tmp_path / "observations.csv"
    argv = ["ingest", "--wait-times", str(wait), "--weather", str(weather), "--holidays", str(holidays)]
    assert main(argv + ["--out", str(observations)]) == 2
    assert capsys.readouterr().err == message
    assert not observations.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        ("start = 2016-01-01\n",
         "File contains no section headers. file: 'nosec.cfg', line: 1 'start = 2016-01-01\\n'"),
        ("[train]\ndata\nvehicle = passenger\n", "Source contains parsing errors: 'nosec.cfg' [line  2]: 'data\\n'"),
    ],
    ids=["no_section_header", "a_line_without_a_value"],
)
def test_a_bad_config_file_is_one_line_that_names_the_file(tmp_path, monkeypatch, capsys, content, message):
    monkeypatch.chdir(tmp_path)
    Path("nosec.cfg").write_text(content, encoding="utf-8")
    assert main(["train", "--config", "nosec.cfg"]) == 1
    assert capsys.readouterr().err == f"error: bad config file nosec.cfg: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "pattern-freq", "--data", "{obs}", "--vehicle", "passenger", "--direction", "to_us"],
        ["render", "--tree", "{tree}", "--format", "dot"],
    ],
    ids=["less_than_a_buffer", "more_than_a_buffer"],
)
def test_a_closed_stdout_is_a_data_error_that_names_it(corpus, tmp_path, argv):
    import errno
    import os
    import subprocess
    import sys

    tree = tmp_path / "tree.json"  # grown in full, so that its dot text fills more than a buffer
    assert main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger", "--direction", "to_us",
                 "--min-samples", "1", "--min-gain", "0", "--out", str(tree)]) == 0
    argv = [arg.format(obs=corpus / "observations.csv", tree=tree) for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    read, write = os.pipe()
    os.close(read)  # every write to stdout fails with EPIPE
    try:
        done = subprocess.run([sys.executable, "-m", "delaytree", *argv], stdout=write, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr == f"data error: <stdout>: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


def test_a_stdout_closed_at_start_is_a_data_error_that_names_it(corpus, tmp_path):
    import errno
    import os
    import subprocess
    import sys

    tree = tmp_path / "tree.json"
    assert main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger", "--direction", "to_us",
                 "--out", str(tree)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "delaytree", "render", "--tree", str(tree), "--format", "text"],
                          stderr=subprocess.PIPE, env=env, text=True, timeout=120,
                          preexec_fn=lambda: os.close(1))  # so that sys.stdout is None, as after `>&-`
    assert done.returncode == 2
    assert done.stderr == f"data error: <stdout>: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this platform")
@pytest.mark.parametrize("command", ["ingest", "render"])
def test_a_write_error_is_a_data_error_that_names_the_output_file(corpus, tmp_path, capsys, command):
    data = corpus / "data"
    if command == "ingest":
        argv = ["ingest", "--wait-times", str(data / "wait_times.csv"), "--weather", str(data / "weather.csv"),
                "--holidays", str(data / "holidays.csv")]
    else:
        tree = tmp_path / "tree.json"
        assert main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
                     "--direction", "to_us", "--out", str(tree)]) == 0
        argv = ["render", "--tree", str(tree), "--format", "text"]
    capsys.readouterr()
    assert main([*argv, "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err.startswith("data error: /dev/full: ")


def test_a_write_error_that_names_its_file_keeps_its_message(corpus, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    tree, out = tmp_path / "tree.json", blocker / "tree.txt"
    assert main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
                 "--direction", "to_us", "--out", str(tree)]) == 0
    capsys.readouterr()
    assert main(["render", "--tree", str(tree), "--format", "text", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: [Errno 17] File exists: {str(blocker)!r}\n"


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit on this platform")
@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_a_synth_write_error_names_its_file_and_keeps_the_earlier_files(tmp_path, command):
    import errno
    import os
    import subprocess
    import sys

    out = tmp_path / "out"
    data = out / "data"
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(PIPE_CFG.format(out=out))
    assert main(["synth", "--config", str(cfg), "--out-dir", str(data), "--end", "2016-09-11"]) == 0
    before = {path.name: path.read_bytes() for path in data.iterdir()}
    argv = ["pipeline", "--config", str(cfg)] if command == "pipeline" else [
        "synth", "--config", str(cfg), "--out-dir", str(data)]
    # A file may grow to 100 kB, so six weeks of waits (about 570 kB) fail
    # partway with EFBIG, an OSError that names no file, as a full disk's does.
    limited = ("import resource, signal, sys\n"
               "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
               "resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
               "from delaytree.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", limited, *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    # Nothing else on stderr: a file left open would add a ResourceWarning.
    assert done.stderr == f"data error: {data / 'wait_times.csv'}: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
    assert done.returncode == 2
    assert {path.name: path.read_bytes() for path in data.iterdir()} == before


def test_train_ends_where_the_midpoint_of_two_temperatures_rounds_onto_the_upper_one(tmp_path):
    import os
    import subprocess
    import sys

    # (1.0000000000000002 + 1.0000000000000004) / 2 rounds to 1.0000000000000004,
    # which would send both rows left and split the same node forever.
    lines = [",".join(OBSERVATIONS_HEADER)]
    for hour, waits, temperature in (("08", (20.0, 5.0, 5.0), "1.0000000000000002"),
                                     ("09", (5.0, 5.0, 5.0), "1.0000000000000004")):
        lines.append(",".join([f"2016-09-06T{hour}:00", "to_us", "passenger", *map(repr, waits), pattern_of(waits),
                               "9", "Fall", "Early_morning", "0", "0", "0", temperature, "10", "0.0", "Clear"]))
    obs, tree = tmp_path / "observations.csv", tmp_path / "tree.json"
    obs.write_text("\n".join(lines) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    for argv in (["train", "--data", str(obs), "--vehicle", "passenger", "--direction", "to_us",
                  "--min-samples", "1", "--min-gain", "0", "--out", str(tree)],
                 ["render", "--tree", str(tree), "--format", "text"]):
        done = subprocess.run([sys.executable, "-m", "delaytree", *argv], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(tree.read_text())["nodes"][0]["rule"]["threshold"] == 1.0000000000000002
