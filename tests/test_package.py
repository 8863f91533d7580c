"""The package is its modules: importing one loads it and what it imports,
and the package itself loads nothing."""

import ast
import subprocess
import sys
from datetime import date
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _added_modules(statement: str) -> list:
    """The names a fresh interpreter adds to sys.modules by running `statement`."""
    code = (
        f"import sys\nsys.path.insert(0, {str(SRC)!r})\nbefore = set(sys.modules)\n"
        f"{statement}\nprint(sorted(set(sys.modules) - before))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return ast.literal_eval(done.stdout)


def test_import_loads_only_the_modules_named():
    assert _added_modules("import delaytree") == ["delaytree"]
    added = _added_modules("import delaytree.ingest")
    assert [name for name in added if name.startswith("delaytree")] == ["delaytree", "delaytree.errors", "delaytree.ingest"]


def test_cli_loads_no_handler_module_and_no_dataclass_or_logging_machinery():
    # A module that `site` already imported on this host is not added, so the
    # guard compares with a bare start of the same interpreter.
    added = set(_added_modules("import delaytree.cli"))
    unwanted = {"delaytree.cart", "delaytree.report", "delaytree.synth", "dataclasses", "inspect", "logging", "json",
                "pickle"}
    assert added & unwanted == set()


def test_ingest_runs_without_the_tree_report_and_synth_modules(tmp_path):
    from delaytree import synth
    from delaytree.ingest import Bridge, Direction, Vehicle

    cfg = synth.SynthConfig(
        start=date(2016, 9, 5), end=date(2016, 9, 11), seed=1, direction=Direction.TO_US,
        vehicle=Vehicle.PASSENGER, base_waits={Bridge.PB: 5.0, Bridge.RB: 5.0, Bridge.LQ: 5.0},
    )
    files = synth.generate(cfg, tmp_path)
    argv = ["ingest", "--wait-times", str(files.wait_times), "--weather", str(files.weather),
            "--holidays", str(files.holidays), "--out", str(tmp_path / "observations.csv")]
    added = _added_modules(f"from delaytree.cli import main\nassert main({argv!r}) == 0")
    assert [name for name in added if name.startswith("delaytree.")] == [
        "delaytree.cli", "delaytree.errors", "delaytree.features", "delaytree.ingest", "delaytree.patterns",
    ]
    assert (tmp_path / "observations.csv").is_file()
