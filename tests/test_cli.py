"""CLI exit codes, config/flag precedence, and idempotent outputs."""

import json
import math

import pytest

from delaytree import cli
from delaytree.cli import main, parse_rule
from delaytree.errors import UsageError
from delaytree.ingest import Bridge

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
        b"timestamp,bridge,direction,vehicle_type,wait_minutes\n"  # the hour's sum overflows
        b"2016-09-05T08:00,PB,to_us,passenger,1e308\n2016-09-05T08:05,PB,to_us,passenger,1e308\n",
    ):
        bad.write_bytes(content)
        rc = main(["ingest", "--wait-times", str(bad), "--weather", str(corpus / "data" / "weather.csv"),
                   "--holidays", str(corpus / "data" / "holidays.csv"), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "line 2" in err


@pytest.mark.parametrize(
    "column, value, message",
    [
        (8, "Monsoon", "season 'Monsoon' is not a declared level"),
        (13, "nan", "temperature_f nan is not a finite number"),
        (6, "delay-slight delay", "pattern 'delay-slight delay' does not fit passenger"),
        (6, "banana-slight delay-slight delay", "pattern 'banana-slight delay-slight delay' has unknown part 'banana'"),
        (6, "delay-slight delay-slight delay-delay",
         "pattern 'delay-slight delay-slight delay-delay' does not fit passenger"),
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


@pytest.mark.parametrize(
    "node, key, value, message",
    [
        (None, "vehicle", 5, "vehicle 5 has the wrong type"),
        ("split", "n", "5", "n '5' has the wrong type"),
        ("leaf", "label", [1], "label [1] has the wrong type"),
        ("split", "kind", "banana", "node kind 'banana' is neither leaf nor split"),
        ("split", "gain", math.nan, "gain nan is not finite"),
        ("split", "rule", {"feature": "temperature_f", "kind": "threshold", "threshold": math.inf},
         "threshold inf is not finite"),
    ],
    ids=["vehicle", "n", "label", "kind", "gain", "threshold"],
)
def test_mistyped_tree_json_exits_2(corpus, tmp_path, capsys, node, key, value, message):
    tree = tmp_path / "tree.json"
    assert main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
                 "--direction", "to_us", "--out", str(tree)]) == 0
    doc = json.loads(tree.read_text())
    target = doc if node is None else next(n for n in doc["nodes"] if n["kind"] == node)
    target[key] = value
    tree.write_text(json.dumps(doc))
    for argv in (["render", "--tree", str(tree), "--format", "text"], ["report", "factors", "--trees", str(tree)]):
        assert main(argv) == 2
        assert f"{tree}: malformed tree json: {message}" in capsys.readouterr().err


def test_invalid_log_env_warns_but_runs(corpus, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DELAYTREE_LOG", "chatty")
    out = tmp_path / "tree.json"
    rc = main(["train", "--data", str(corpus / "observations.csv"), "--vehicle", "passenger",
               "--direction", "to_us", "--out", str(out)])
    assert rc == 0
    assert "DELAYTREE_LOG" in capsys.readouterr().err


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
    ],
    ids=["base-nan", "jitter-inf", "overflow", "shift-inf", "shift-negative", "target-junk"],
)
def test_synth_rejects_non_finite_settings(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    rc = main(["synth", "--out-dir", str(out), "--start", "2016-09-05", "--end", "2016-09-11", "--seed", "1",
               "--direction", "to_us", "--vehicle", "passenger", "--base-pb", "5", "--base-rb", "5",
               "--base-lq", "5", *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_parse_rule():
    rule = parse_rule("weekend=1 & hour_interval=Evening|Night => PB+17,LQ-2 => delay-slight delay-slight delay")
    assert rule.condition == {"weekend": (1,), "hour_interval": ("Evening", "Night")}
    assert rule.shifts == {Bridge.PB: 17.0, Bridge.LQ: -2.0}
    assert rule.target == "delay-slight delay-slight delay"


@pytest.mark.parametrize(
    "text",
    [
        "weekend=1 => PB+17",  # missing target
        "temperature_f=60 => PB+1 => delay-slight delay-slight delay",  # continuous condition
        "weekend=3 => PB+1 => delay-slight delay-slight delay",  # bad level
        "weekend=1 => ZZ+1 => delay-slight delay-slight delay",  # bad bridge
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

# Per setting: a valid text, another valid text, and a bad text (None when
# any text is valid). An empty flag text means the flag with no argument.
VALUES = {
    "start": ("2016-09-05", "2016-09-12", "2016-13-01"),
    "end": ("2016-10-16", "2016-10-23", "16/10/2016"),
    "seed": ("7", "8", "seven"),
    "vehicle": ("passenger", "commercial", "bike"),
    "direction": ("to_us", "to_can", "north"),
    "bridge": ("PB", "LQ", "ZZ"),
    "base-pb": ("5", "6.5", "five"),
    "base-rb": ("5", "6.5", "five"),
    "base-lq": ("5", "6.5", "five"),
    "jitter": ("1.0", "0.5", "some"),
    "label-flip": ("0.05", "0.1", "few"),
    "rule": (RULE_A, RULE_B, "weekend=1 => PB+17"),
    "us-holidays": ("2016-09-05", "2016-09-05 2016-11-24", "2016-02-30"),
    "ca-holidays": ("2016-10-10", "2016-07-01, 2016-10-10", "Thanksgiving"),
    "min-samples": ("100", "5", "many"),
    "min-gain": ("0.005", "0", "tiny"),
    "max-depth": ("3", "4", "deep"),
    "trees": ("a.json", "b.json", ""),
    "format": ("dot", "text", "gif"),
}
PATHS = ("a%b.csv", "c d.csv", None)  # every other setting is a path


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_option_table(command, tmp_path, monkeypatch, capsys):
    """Flag beats config beats default, for every setting of every subcommand."""
    summary, section, settings, _ = cli.COMMANDS[command]
    seen = []
    monkeypatch.setitem(cli.COMMANDS, command, (summary, section, settings, lambda o, cp, flags: seen.append(o) or 0))
    cfg = tmp_path / "c.cfg"

    def run(flags, config):
        cfg.write_text(f"[{section}]\n" + "".join(f"{key} = {text}\n" for key, text in config.items()))
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
        a, b, bad = VALUES.get(s.name, PATHS)
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
        if bad is not None:
            sources = [({}, {s.name: bad})] + ([({s.name: bad}, {})] if s.flag is not None else [])
            for flags, config in sources:
                code, err, _ = run({**others, **flags}, config)
                assert code == 1 and s.name in err, (flags, config, err)
