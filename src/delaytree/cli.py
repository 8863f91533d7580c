"""Command-line pipeline driver.

Subcommands: synth, ingest, train, render, report (pattern-freq,
hourly-dist, factors), pipeline. Exit codes: 0 success, 1 usage error,
2 data error, 3 internal error (any other exception: a bug). Every setting
is a flag `--name` and a key `name` in the subcommand's section of the INI
`--config` file: the flag beats the config, which beats the default. DELAYTREE_LOG={error,info,debug} controls
verbosity.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import re
import sys
from datetime import date
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import cart, report, synth
from .errors import DataError, UsageError
from .features import CATEGORICAL, FEATURE_SCHEMA, label_hours, parse_holidays
from .ingest import Bridge, Direction, Vehicle, hourly_waits, join_weather, parse_weather
# Not called here, but perfbench/tracer.py wraps them under these names.
from .ingest import aggregate_hourly, parse_wait_times  # noqa: F401
from .patterns import COMBOS, assemble_rows, pattern_frequencies, read_observations, write_observations

logger = logging.getLogger("delaytree")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    raw = os.environ.get("DELAYTREE_LOG", "")
    level = _LOG_LEVELS.get(raw.lower()) if raw else logging.WARNING
    if level is None:
        print(f"warning: ignoring DELAYTREE_LOG={raw!r} (want error, info or debug)", file=sys.stderr)
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


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
            cp.read_string(Path(path).read_text(encoding="utf-8"))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise UsageError(f"bad config file {path}: {exc}") from None
    return cp


def _convert(setting: Setting, raw, where: str):
    try:
        return setting.convert(raw)
    except ValueError as exc:
        raise UsageError(f"bad {where} {raw!r}: {exc}") from None


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
    return date.fromisoformat(raw.strip())


def _dates(raw: str) -> frozenset:
    return frozenset(_date(tok) for tok in raw.replace(",", " ").split())


def _member(enum_cls) -> Callable:
    """Converter to a member of enum_cls, by name in any case."""
    names = [getattr(member, "label", member.name) for member in enum_cls]
    want = f"want {', '.join(names[:-1])} or {names[-1]}"

    def convert(raw: str):
        try:
            return enum_cls[raw.strip().upper()]
        except KeyError:
            raise ValueError(want) from None

    return convert


def _words(raw) -> list:
    """A list flag's values as given, or a config value split on whitespace."""
    words = raw if isinstance(raw, list) else raw.split()
    if not words:
        raise ValueError("want one or more paths")
    return words


_RULE_SHIFT = re.compile(r"(PB|RB|LQ)\s*([+-]\d+(?:\.\d+)?)", re.IGNORECASE)


def parse_rule(text: str) -> synth.PlantedRule:
    """`cond & cond => PB+17,LQ+2 => target-pattern-label`; each cond is
    feature=value or feature=value|value (categorical features only)."""
    parts = [p.strip() for p in text.split("=>")]
    if len(parts) != 3:
        raise UsageError(f"bad rule {text!r}: want 'condition => shifts => target pattern'")
    condition = {}
    if parts[0]:
        for clause in parts[0].split("&"):
            name, sep, values = clause.partition("=")
            name = name.strip()
            if not sep or not name:
                raise UsageError(f"bad rule condition {clause.strip()!r}")
            try:
                spec = FEATURE_SCHEMA.spec(name)
            except KeyError:
                raise UsageError(f"unknown feature {name!r} in rule condition") from None
            if spec.kind != CATEGORICAL:
                raise UsageError(f"rule conditions must use categorical features, not {name!r}")
            level_type = type(spec.levels[0])
            try:
                allowed = tuple(level_type(v.strip()) for v in values.split("|"))
            except ValueError:
                raise UsageError(f"bad level list {values!r} for {name!r}") from None
            for level in allowed:
                if level not in spec.levels:
                    raise UsageError(f"{level!r} is not a level of {name!r}")
            condition[name] = allowed
    shifts = {}
    if parts[1]:
        for item in parts[1].split(","):
            m = _RULE_SHIFT.fullmatch(item.strip())
            if m is None:
                raise UsageError(f"bad wait shift {item.strip()!r}; want e.g. PB+17")
            shifts[Bridge[m.group(1).upper()]] = float(m.group(2))
    return synth.PlantedRule(condition, parts[2], shifts)


_STREAM = (Setting("vehicle", _member(Vehicle)), Setting("direction", _member(Direction)))
_SYNTH = (
    Setting("start", _date),
    Setting("end", _date),
    Setting("seed", int),
    *_STREAM,
    Setting("base-pb", float, None),
    Setting("base-rb", float, None),
    Setting("base-lq", float, None),
    Setting("jitter", float, 0.0),
    Setting("label-flip", float, 0.0),
    Setting("rule", parse_rule, (), {"action": "append"}),
    Setting("us-holidays", _dates, frozenset(), None),
    Setting("ca-holidays", _dates, frozenset(), None),
)
_INPUTS = (Setting("wait-times"), Setting("weather"), Setting("holidays"))
_STDOUT = Setting("out", str, None)  # no --out: write to stdout
_TREE = (Setting("min-samples", int, 100), Setting("min-gain", float, 0.005), Setting("max-depth", int, None))


def _tree_sections(vehicle: Vehicle, direction: Direction) -> list:
    """Tree settings resolve per dataset: [train.<vehicle>.<direction>] before [train]."""
    return [f"train.{vehicle.label}.{direction.label}", "train"]


def _parse_file(parser, path):
    """Parse a file's text, prefixing any data error with the path."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {line}: not UTF-8 text") from None
    try:
        return parser(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _synth_config(o: dict) -> synth.SynthConfig:
    base = {b: o[f"base-{b.name.lower()}"] for b in Bridge if o[f"base-{b.name.lower()}"] is not None}
    return synth.SynthConfig(
        start=o["start"], end=o["end"], seed=o["seed"], direction=o["direction"], vehicle=o["vehicle"],
        base_waits=base, rules=o["rule"], label_flip=o["label-flip"], jitter=o["jitter"],
        us_holidays=o["us-holidays"], ca_holidays=o["ca-holidays"],
    )


def cmd_synth(o, cp, flags) -> int:
    files = synth.generate(_synth_config(o), o["out-dir"])
    logger.info("wrote %s, %s, %s, %s", files.wait_times, files.weather, files.holidays, files.emission_log)
    return 0


def _ingest_datasets(wait_times_path, weather_path, holidays_path):
    """Parse and aggregate + join + label + assemble all four combos."""
    hours = _parse_file(hourly_waits, wait_times_path)
    weather = _parse_file(parse_weather, weather_path)
    us, ca = _parse_file(parse_holidays, holidays_path)
    features = label_hours(join_weather(hours, weather), us, ca)
    datasets = {}
    for vehicle, direction in COMBOS:
        ds = assemble_rows(hours, features, direction, vehicle)
        if ds.rows or ds.skipped_incomplete or ds.dropped_all_zero:
            logger.info(
                "%s %s: %d rows, %d incomplete hours skipped, %d all-zero hours dropped",
                vehicle.label, direction.label, len(ds.rows), ds.skipped_incomplete, ds.dropped_all_zero,
            )
        if ds.rows:
            datasets[(vehicle, direction)] = ds
    return datasets, hours


def cmd_ingest(o, cp, flags) -> int:
    datasets, _ = _ingest_datasets(o["wait-times"], o["weather"], o["holidays"])
    _emit(write_observations(list(datasets.values())), o["out"])
    return 0


def _train_config(o: dict) -> cart.TrainConfig:
    try:
        return cart.TrainConfig(o["min-samples"], o["min-gain"], o["max-depth"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_dataset(data_path, vehicle: Vehicle, direction: Direction):
    datasets = _parse_file(read_observations, data_path)
    ds = datasets.get((vehicle, direction))
    if ds is None or not ds.rows:
        raise DataError(f"{data_path}: no rows for {vehicle.label} {direction.label}")
    return ds


def cmd_train(o, cp, flags) -> int:
    ds = _load_dataset(o["data"], o["vehicle"], o["direction"])
    tree = cart.grow_tree(ds, _train_config(o))
    _emit(report.export_tree(tree, "json"), o["out"])
    return 0


def cmd_render(o, cp, flags) -> int:
    tree = _parse_file(report.import_tree, o["tree"])
    _emit(report.export_tree(tree, o["format"]), o["out"])
    return 0


def cmd_report_pattern_freq(o, cp, flags) -> int:
    ds = _load_dataset(o["data"], o["vehicle"], o["direction"])
    _emit(report.pattern_frequencies_csv(pattern_frequencies(ds)), o["out"])
    return 0


def cmd_report_hourly_dist(o, cp, flags) -> int:
    hours = _parse_file(hourly_waits, o["wait-times"])
    dist = report.hourly_distribution(hours, o["bridge"], o["direction"], o["vehicle"])
    _emit(report.hourly_distribution_csv(dist), o["out"])
    return 0


def cmd_report_factors(o, cp, flags) -> int:
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
    out_dir = Path(o["out-dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    if cp.has_section("synth"):
        files = synth.generate(_synth_config(_resolve(_SYNTH, cp, ["synth"])), out_dir / "data")
        inputs = (files.wait_times, files.weather, files.holidays)
    else:
        paths = _resolve(_INPUTS, cp, ["ingest"])
        inputs = (paths["wait-times"], paths["weather"], paths["holidays"])

    datasets, hours = _ingest_datasets(*inputs)
    if not datasets:
        raise DataError("no observations survived ingestion; nothing to train on")
    _emit(write_observations(list(datasets.values())), out_dir / "observations.csv")

    trained = {}
    for (vehicle, direction), ds in datasets.items():
        tree = cart.grow_tree(ds, _train_config(_resolve(_TREE, cp, _tree_sections(vehicle, direction))))
        trained[(vehicle, direction)] = tree
        stem = f"{vehicle.label}_{direction.label}"
        _emit(report.export_tree(tree, "json"), out_dir / "trees" / f"tree_{stem}.json")
        _emit(report.export_tree(tree, "dot"), out_dir / "trees" / f"tree_{stem}.dot")
        _emit(report.export_tree(tree, "text"), out_dir / "trees" / f"tree_{stem}.txt")
        _emit(report.pattern_frequencies_csv(pattern_frequencies(ds)), out_dir / "reports" / f"pattern_freq_{stem}.csv")
        for bridge in ds.bridges:
            dist = report.hourly_distribution(hours, bridge, direction, vehicle)
            _emit(report.hourly_distribution_csv(dist), out_dir / "reports" / f"hourly_dist_{bridge.name}_{stem}.csv")
    _emit(report.factor_summary_csv(report.factor_summary(trained)), out_dir / "reports" / "factors.csv")
    logger.info("pipeline artifacts under %s", out_dir)
    return 0


# Subcommand -> (help, config section, settings, handler). The handler gets
# the resolved settings, the config and the raw flags.
COMMANDS = {
    "synth": ("generate synthetic input files", "synth", (Setting("out-dir"), *_SYNTH), cmd_synth),
    "ingest": ("raw feeds -> observations.csv", "ingest", (*_INPUTS, Setting("out")), cmd_ingest),
    "train": ("observations.csv -> tree json", "train", (Setting("data"), *_STREAM, *_TREE, Setting("out")), cmd_train),
    "render": (
        "tree json -> dot/text", "render", (Setting("tree"), Setting("format", report.tree_format), _STDOUT), cmd_render,
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
    _setup_logging()
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
