"""Command-line pipeline driver.

Subcommands: synth, ingest, train, render, report (pattern-freq,
hourly-dist, factors), pipeline. Exit codes: 0 success, 1 usage error,
2 data error, 3 internal error (any other exception: a bug). Every setting
is a flag `--name` and a key `name` in the subcommand's section of the INI
`--config` file: the flag beats the config, which beats the default. DELAYTREE_LOG={error,info,debug} controls
verbosity. Each handler imports the `cart`, `report` or `synth` module it
runs when it runs, so importing this module loads none of them.
"""

from __future__ import annotations

import argparse
import configparser
import errno
import os
import re
import sys
from datetime import date
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .errors import DataError, UsageError, cut
from .features import CATEGORICAL, FEATURE_SCHEMA, label_hours, parse_holidays
from .ingest import (
    Bridge, Direction, Vehicle, _hourly_waits_file, _parse_enum, _parse_file, bridges_for, fromisoformat, join_weather,
    number, parse_weather,
)
# Not called here, but perfbench/tracer.py wraps them under these names.
from .ingest import aggregate_hourly, parse_wait_times  # noqa: F401
from .patterns import COMBOS, assemble_rows, pattern_frequencies, read_observations, write_observations

def _info(message: str) -> None:
    """Print `message` as an INFO line if DELAYTREE_LOG is info or debug."""
    if os.environ.get("DELAYTREE_LOG", "").lower() in ("info", "debug"):
        print(f"INFO delaytree: {message}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


REQUIRED = object()  # default of a setting that must be given


class Setting(NamedTuple):
    """Flag `--name` and config key `name`. `convert` turns the text of
    either into the value, raising ValueError or UsageError; `flag` holds
    extra argparse keywords, or is None for a key that has no flag."""

    name: str
    convert: Callable = str
    default: object = REQUIRED
    flag: Optional[dict] = {}


def _config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            cp.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
        except (configparser.Error, UnicodeDecodeError) as exc:
            message = " ".join(map(str.strip, str(exc).splitlines()))  # configparser's can span lines
            raise UsageError(f"bad config file {path}: {cut(message)}") from None
    return cp


def _convert(setting: Setting, raw, where: str):
    try:
        return setting.convert(raw)
    except ValueError as exc:
        raise UsageError(f"bad {where} {cut(repr(raw))}: {cut(str(exc))}") from None


def _resolve(settings, cp: configparser.ConfigParser, sections: list, flags: Optional[dict] = None) -> dict:
    """Each setting's value: its flag, else its key in the first of
    `sections` that has it, else its default. A tree setting that follows
    the vehicle and direction looks in `_tree_sections` instead.

    A repeatable flag (`--rule`) adds to the config's `rule` and `rule.*`
    keys instead of replacing them. Without flags (the pipeline), a missing
    value is named by its config key.
    """
    values = {}
    for setting in settings:
        name = setting.name
        given = None if flags is None else flags.get(name)
        if setting.flag and setting.flag.get("action") == "append":
            found = [(f"--{name}", text) for text in given or ()] + [
                (f"config value [{section}] {key} =", text)
                for section in sections if cp.has_section(section)
                for key, text in sorted(cp[section].items()) if key == name or key.startswith(f"{name}.")
            ]
            values[name] = tuple(_convert(setting, text, where) for where, text in found)
        elif given is not None:
            values[name] = _convert(setting, given, f"--{name}")
        else:
            lookup = sections
            if setting in _TREE and "direction" in values:
                lookup = _tree_sections(values["vehicle"], values["direction"])
            section = next((s for s in lookup if cp.has_option(s, name)), None)
            if section is not None:
                values[name] = _convert(setting, cp.get(section, name), f"config value [{section}] {name} =")
            elif setting.default is REQUIRED:
                raise UsageError(f"missing --{name}" if flags is not None else f"missing [{sections[-1]}] {name}")
            else:
                values[name] = setting.default
    return values


def _date(raw: str) -> date:
    return fromisoformat(date, raw.strip())


def _dates(raw: str) -> frozenset:
    return frozenset(_date(tok) for tok in raw.replace(",", " ").split())


def _member(enum_cls) -> Callable:
    """Converter to a member of enum_cls, by its ASCII name in any case."""
    names = [getattr(member, "label", member.name) for member in enum_cls]
    want = f"want {', '.join(names[:-1])} or {names[-1]}"

    def convert(raw: str):
        try:
            return _parse_enum(enum_cls, raw, "name")
        except DataError:
            raise ValueError(want) from None

    return convert


def _words(raw) -> list:
    """A list flag's values as given, or a config value split on whitespace."""
    words = raw if isinstance(raw, list) else raw.split()
    if not words:
        raise ValueError("want one or more paths")
    return words


_RULE_SHIFT = re.compile(r"(PB|RB|LQ)\s*([+-]\d+(?:\.\d+)?)", re.IGNORECASE | re.ASCII)


def parse_rule(text: str):
    """`cond & cond => PB+17,LQ+2 => target-pattern-label` as a
    synth.PlantedRule; each cond is feature=value or feature=value|value
    (categorical features only, each feature in one cond and each of its
    levels once)."""
    from .synth import PlantedRule
    parts = [p.strip() for p in text.split("=>")]
    if len(parts) != 3:
        raise UsageError(f"bad rule {cut(repr(text))}: want 'condition => shifts => target pattern'")
    condition = {}
    if parts[0]:
        for clause in parts[0].split("&"):
            name, sep, values = clause.partition("=")
            name = name.strip()
            if not sep or not name:
                raise UsageError(f"bad rule condition {cut(repr(clause.strip()))}")
            try:
                spec = FEATURE_SCHEMA.spec(name)
            except KeyError:
                raise UsageError(f"unknown feature {cut(repr(name))} in rule condition") from None
            if spec.kind != CATEGORICAL:
                raise UsageError(f"rule conditions must use categorical features, not {name!r}")
            if name in condition:
                raise UsageError(f"bad rule condition {cut(repr(clause.strip()))}: {name} has a condition already")
            try:
                allowed = tuple(spec.parse(v.strip()) for v in values.split("|"))
            except ValueError as exc:
                raise UsageError(f"bad rule condition {cut(repr(clause.strip()))}: {exc}") from None
            if len(set(allowed)) != len(allowed):
                raise UsageError(f"bad rule condition {cut(repr(clause.strip()))}: a level repeats")
            condition[name] = allowed
    shifts = {}
    if parts[1]:
        for item in parts[1].split(","):
            m = _RULE_SHIFT.fullmatch(item.strip())
            if m is None:
                raise UsageError(f"bad wait shift {cut(repr(item.strip()))}; want e.g. PB+17")
            shifts[Bridge[m.group(1).upper()]] = float(m.group(2))
    return PlantedRule(condition, parts[2], shifts)


_INT, _FLOAT = partial(number, int), partial(number, float)
_STREAM = (Setting("vehicle", _member(Vehicle)), Setting("direction", _member(Direction)))
_SYNTH = (
    Setting("start", _date),
    Setting("end", _date),
    Setting("seed", _INT),
    *_STREAM,
    Setting("base-pb", _FLOAT, None),
    Setting("base-rb", _FLOAT, None),
    Setting("base-lq", _FLOAT, None),
    Setting("jitter", _FLOAT, 0.0),
    Setting("label-flip", _FLOAT, 0.0),
    Setting("rule", parse_rule, (), {"action": "append"}),
    Setting("us-holidays", _dates, frozenset(), None),
    Setting("ca-holidays", _dates, frozenset(), None),
)
_INPUTS = (Setting("wait-times"), Setting("weather"), Setting("holidays"))
_STDOUT = Setting("out", str, None)  # no --out: write to stdout
_TREE = (Setting("min-samples", _INT, 100), Setting("min-gain", _FLOAT, 0.005), Setting("max-depth", _INT, None))


def _tree_sections(vehicle: Vehicle, direction: Direction) -> list:
    """Tree settings resolve per dataset: [train.<vehicle>.<direction>] before [train]."""
    return [f"train.{vehicle.label}.{direction.label}", "train"]


def _emit(text: str, out_path) -> None:
    if out_path is None:
        if sys.stdout is None:  # the process started with fd 1 closed
            raise DataError(f"<stdout>: {OSError(errno.EBADF, os.strerror(errno.EBADF))}")
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, say: the exit's flush of what is left then writes to nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise DataError(f"<stdout>: {exc}") from None
    else:
        path = Path(out_path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        except OSError as exc:
            if exc.filename is not None:  # the message names the file already, as "File exists: '<path>'" does
                raise
            raise DataError(f"{out_path}: {exc}") from None  # such as a full disk, found when the file is closed


def _generate(o: dict, out_dir):
    """Write the synthetic feeds of the synth settings `o` under `out_dir`."""
    from . import synth
    base = {b: o[f"base-{b.name.lower()}"] for b in Bridge if o[f"base-{b.name.lower()}"] is not None}
    cfg = synth.SynthConfig(
        start=o["start"], end=o["end"], seed=o["seed"], direction=o["direction"], vehicle=o["vehicle"],
        base_waits=base, rules=o["rule"], label_flip=o["label-flip"], jitter=o["jitter"],
        us_holidays=o["us-holidays"], ca_holidays=o["ca-holidays"],
    )
    return synth.generate(cfg, out_dir)


def cmd_synth(o, cp, flags) -> int:
    files = _generate(o, o["out-dir"])
    _info(f"wrote {files.wait_times}, {files.weather}, {files.holidays}, {files.emission_log}")
    return 0


def _ingest_datasets(wait_times_path, weather_path, holidays_path):
    """Parse and aggregate + join + label + assemble the combos that have rows; a data error if none has."""
    hours = _hourly_waits_file(wait_times_path)
    # The join runs inside the weather file's error prefix: a stale hour is its fault.
    weather = _parse_file(lambda lines: join_weather(hours, parse_weather(lines)), weather_path)
    us, ca = _parse_file(parse_holidays, holidays_path)
    features = label_hours(weather, us, ca)
    assembled = [assemble_rows(hours, features, direction, vehicle) for vehicle, direction in COMBOS]
    for ds in assembled:
        if ds.rows or ds.skipped_incomplete or ds.dropped_all_zero:
            _info(f"{ds.vehicle.label} {ds.direction.label}: {len(ds.rows)} rows, {ds.skipped_incomplete} incomplete "
                  f"hours skipped, {ds.dropped_all_zero} all-zero hours dropped")
    datasets = {(ds.vehicle, ds.direction): ds for ds in assembled if ds.rows}
    if not datasets:
        raise DataError(f"{wait_times_path}: no observations survived ingestion; nothing to train on "
                        f"({sum(ds.skipped_incomplete for ds in assembled)} incomplete hours skipped, "
                        f"{sum(ds.dropped_all_zero for ds in assembled)} all-zero hours dropped)")
    return datasets, hours


def cmd_ingest(o, cp, flags) -> int:
    datasets, _ = _ingest_datasets(o["wait-times"], o["weather"], o["holidays"])
    _emit(write_observations(list(datasets.values())), o["out"])
    return 0


def _train_config(o: dict):
    from .cart import TrainConfig
    try:
        return TrainConfig(o["min-samples"], o["min-gain"], o["max-depth"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_dataset(data_path, vehicle: Vehicle, direction: Direction):
    datasets = _parse_file(read_observations, data_path)
    ds = datasets.get((vehicle, direction))
    if ds is None or not ds.rows:
        raise DataError(f"{data_path}: no rows for {vehicle.label} {direction.label}")
    return ds


def cmd_train(o, cp, flags) -> int:
    from . import cart, report
    ds = _load_dataset(o["data"], o["vehicle"], o["direction"])
    tree = cart.grow_tree(ds, _train_config(o))
    _emit(report.export_tree(tree, "json"), o["out"])
    return 0


def cmd_render(o, cp, flags) -> int:
    from . import report
    tree = _parse_file(report.import_tree, o["tree"])
    _emit(report.export_tree(tree, o["format"]), o["out"])
    return 0


def cmd_report_pattern_freq(o, cp, flags) -> int:
    from . import report
    ds = _load_dataset(o["data"], o["vehicle"], o["direction"])
    _emit(report.pattern_frequencies_csv(pattern_frequencies(ds)), o["out"])
    return 0


def cmd_report_hourly_dist(o, cp, flags) -> int:
    from . import report
    bridge, vehicle = o["bridge"], o["vehicle"]
    if bridge not in bridges_for(vehicle):  # ingest rejects every row of such a stream
        raise UsageError(f"bad --bridge {bridge.name!r}: {bridge.name} carries no {vehicle.label} vehicles")
    hours = _hourly_waits_file(o["wait-times"])
    shares = report.hourly_distribution(hours, bridge, o["direction"], vehicle)
    _emit(report.hourly_distribution_csv(shares), o["out"])
    return 0


def cmd_report_factors(o, cp, flags) -> int:
    from . import report
    trees, paths = {}, {}
    for path in o["trees"]:
        tree = _parse_file(report.import_tree, path)
        if tree.vehicle is None or tree.direction is None:
            raise UsageError(f"{path}: tree json lacks vehicle/direction tags")
        key = (tree.vehicle, tree.direction)
        if key in paths:
            raise UsageError(f"{paths[key]} and {path} both hold the {tree.vehicle.label} {tree.direction.label} tree")
        trees[key], paths[key] = tree, path
    _emit(report.factor_summary_csv(report.factor_summary(trees)), o["out"])
    return 0


def cmd_pipeline(o, cp, flags) -> int:
    from . import cart, report
    # Every tree setting is checked before any file is written.
    train = {combo: _train_config(_resolve(_TREE, cp, _tree_sections(*combo))) for combo in COMBOS}
    out_dir = Path(o["out-dir"])
    if cp.has_section("synth"):
        files = _generate(_resolve(_SYNTH, cp, ["synth"]), out_dir / "data")
        inputs = (files.wait_times, files.weather, files.holidays)
    else:
        paths = _resolve(_INPUTS, cp, ["ingest"])
        inputs = (paths["wait-times"], paths["weather"], paths["holidays"])

    datasets, hours = _ingest_datasets(*inputs)
    _emit(write_observations(list(datasets.values())), out_dir / "observations.csv")

    trained = {}
    for (vehicle, direction), ds in datasets.items():
        tree = trained[(vehicle, direction)] = cart.grow_tree(ds, train[(vehicle, direction)])
        stem = f"{vehicle.label}_{direction.label}"
        for fmt, suffix in (("json", "json"), ("dot", "dot"), ("text", "txt")):
            _emit(report.export_tree(tree, fmt), out_dir / "trees" / f"tree_{stem}.{suffix}")
        _emit(report.pattern_frequencies_csv(pattern_frequencies(ds)), out_dir / "reports" / f"pattern_freq_{stem}.csv")
        for bridge in ds.bridges:
            shares = report.hourly_distribution(hours, bridge, direction, vehicle)
            _emit(report.hourly_distribution_csv(shares), out_dir / "reports" / f"hourly_dist_{bridge.name}_{stem}.csv")
    _emit(report.factor_summary_csv(report.factor_summary(trained)), out_dir / "reports" / "factors.csv")
    _info(f"pipeline artifacts under {out_dir}")
    return 0


def _tree_format(raw: str) -> str:
    from .report import tree_format
    return tree_format(raw)


# Subcommand -> (help, config section, settings, handler). The handler gets
# the resolved settings, the config and the raw flags.
COMMANDS = {
    "synth": ("generate synthetic input files", "synth", (Setting("out-dir"), *_SYNTH), cmd_synth),
    "ingest": ("raw feeds -> observations.csv", "ingest", (*_INPUTS, Setting("out")), cmd_ingest),
    "train": ("observations.csv -> tree json", "train", (Setting("data"), *_STREAM, *_TREE, Setting("out")), cmd_train),
    "render": (
        "tree json -> dot/text", "render", (Setting("tree"), Setting("format", _tree_format), _STDOUT), cmd_render,
    ),
    "report pattern-freq": (
        "pattern frequency histogram", "report", (Setting("data"), *_STREAM, _STDOUT), cmd_report_pattern_freq,
    ),
    "report hourly-dist": (
        "hourly delay-type distribution", "report",
        (Setting("wait-times"), Setting("bridge", _member(Bridge)), *_STREAM, _STDOUT), cmd_report_hourly_dist,
    ),
    "report factors": (
        "influential-factor summary across trees", "report",
        (Setting("trees", _words, REQUIRED, {"nargs": "+"}), _STDOUT), cmd_report_factors,
    ),
    "pipeline": (
        "run synth/ingest/train/render/report from one config", "pipeline",
        (Setting("out-dir", str, "out"),), cmd_pipeline,
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="delaytree", description=__doc__)
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for command, (summary, section, settings, handler) in COMMANDS.items():
        group, _, name = command.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(group, help="summary artifacts").add_subparsers(
                dest="report_kind", required=True
            )
        p = groups[group].add_parser(name, help=summary)
        p.add_argument("--config", required=command == "pipeline")
        for setting in settings:
            if setting.flag is not None:
                p.add_argument(f"--{setting.name}", dest=setting.name, **setting.flag)
        p.set_defaults(spec=(section, settings, handler))
    return parser


def main(argv=None) -> int:
    raw = os.environ.get("DELAYTREE_LOG", "")
    if raw and raw.lower() not in ("error", "info", "debug"):
        print(f"warning: ignoring DELAYTREE_LOG={raw!r} (want error, info or debug)", file=sys.stderr)
    try:
        args = build_parser().parse_args(argv)
        section, settings, handler = args.spec
        flags = vars(args)
        cp = _config(args.config)
        return handler(_resolve(settings, cp, [section], flags), cp, flags)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
