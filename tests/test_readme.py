"""The README's library-use code runs as written on a small synthetic
corpus, so the documented API cannot drift from the package."""

import re
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
