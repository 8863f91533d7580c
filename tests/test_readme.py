"""The README's commands and library-use code run as written, so the
documented interface cannot drift from the package."""

import os
import re
import shlex
import subprocess
import sys
from datetime import date
from pathlib import Path

from delaytree import synth
from delaytree.ingest import Bridge, Direction, Vehicle

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    one_pass, two_step = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    weekend = synth.PlantedRule({"weekend": (1,)}, "delay-slight delay-slight delay", {Bridge.PB: 17.0})
    cfg = synth.SynthConfig(
        start=date(2016, 9, 5), end=date(2016, 10, 2), seed=3, direction=Direction.TO_US,
        vehicle=Vehicle.PASSENGER, base_waits={Bridge.PB: 5.0, Bridge.RB: 5.0, Bridge.LQ: 5.0},
        rules=(weekend,), jitter=1.0, us_holidays=frozenset({date(2016, 9, 5)}),
    )
    synth.generate(cfg, tmp_path)
    monkeypatch.chdir(tmp_path)

    namespace: dict = {}
    exec(compile(one_pass, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("split weekend in ")
    assert printed[-1] == namespace["ds"].rows[0].pattern
    assert len(namespace["ds"].rows) == 28 * 15
    assert len(namespace["features"]) == 28 * 15

    hours = namespace["hours"]
    exec(compile(two_step, str(README), "exec"), namespace)
    assert namespace["hours"] == hours


def _run(argv, cwd):
    """Run `delaytree argv` in its own `-X dev` process, which prints a
    ResourceWarning for each file left open; it must exit 0 and print no error."""
    env = dict(os.environ, PYTHONPATH=str(Path(synth.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    env.pop("DELAYTREE_LOG", None)
    done = subprocess.run([sys.executable, "-X", "dev", "-m", "delaytree", *argv], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, ""), argv


def _files(root):
    """The bytes of each file under `root`, by its path under `root`."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_readme_commands_write_identical_files_one_process_each(tmp_path):
    text = README.read_text(encoding="utf-8")
    (pipe_cfg,) = re.findall(r"```ini\n# pipe\.cfg\n(.*?)```", text, re.DOTALL)
    stages = re.search(r"The stages are also individual subcommands:\n\n```sh\n(.*?)```", text, re.DOTALL)[1]
    commands = [shlex.split(line) for line in stages.replace("\\\n", " ").splitlines()]
    assert commands and all(argv[0] == "delaytree" for argv in commands)
    for run in ("first", "second", "stages"):
        (tmp_path / run).mkdir()
        (tmp_path / run / "pipe.cfg").write_text(pipe_cfg, encoding="utf-8")

    for run in ("first", "second"):
        _run(["pipeline", "--config", "pipe.cfg"], tmp_path / run)
    pipeline = _files(tmp_path / "first" / "out")
    assert _files(tmp_path / "second" / "out") == pipeline

    trees = [name for name in pipeline if name.startswith("trees/") and name.endswith(".json")]
    assert trees
    for tree in trees:
        _run(["render", "--tree", f"first/out/{tree}", "--format", "json", "--out", "rendered.json"], tmp_path)
        assert (tmp_path / "rendered.json").read_bytes() == pipeline[tree], tree

    for argv in commands:
        _run(argv[1:], tmp_path / "stages")
    want = {name: data for name, data in pipeline.items() if name.startswith("data/")}
    for written, piped in [
        ("observations.csv", "observations.csv"),
        ("tree.json", "trees/tree_passenger_to_us.json"),
        ("tree.dot", "trees/tree_passenger_to_us.dot"),
        ("freq.csv", "reports/pattern_freq_passenger_to_us.csv"),
        ("dist.csv", "reports/hourly_dist_PB_passenger_to_us.csv"),
        ("factors.csv", "reports/factors.csv"),
    ]:
        want[written] = pipeline[piped]
    staged = _files(tmp_path / "stages")
    assert [name for name, data in want.items() if staged.get(name) != data] == []
