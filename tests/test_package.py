"""The package is its modules: importing one loads it and what it imports,
and the package itself loads nothing."""

import ast
import subprocess
import sys
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
