"""Check the strict wait-file parse under any Python 3.10+, with the standard library alone.

    python3.10 tests/strict_path_check.py

pytest and hypothesis need not be installed, so this runs under an interpreter
that has only its standard library, such as the oldest one pyproject.toml
allows. It imports delaytree from this checkout's src/, which compiles the
strict pattern, writes a week of synth's wait file with LF and with CRLF line
ends, and checks that `_strict_groups` takes each file and gives the groups of
the exact loop. A file with one bad wait in any of the first 13 rows of a run
must not be taken: a wait that a failed row left in its group would make up
for the row the pattern skipped. It prints one line and exits 0, or fails
with a traceback.
"""

import sys
import tempfile
from datetime import date
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from delaytree import synth  # noqa: E402
from delaytree.ingest import Bridge, Direction, Vehicle, _parse_file, _strict_groups, _wait_groups  # noqa: E402


def main() -> int:
    cfg = synth.SynthConfig(date(2016, 8, 22), date(2016, 8, 28), 7, Direction.TO_US, Vehicle.PASSENGER,
                            {Bridge.PB: 5.0, Bridge.RB: 10.0, Bridge.LQ: 20.0}, jitter=3.0)
    with tempfile.TemporaryDirectory() as tmp:
        data = synth.generate(cfg, Path(tmp, "synth")).wait_times.read_bytes()
        for name, text in (("LF", data), ("CRLF", data.replace(b"\n", b"\r\n"))):
            path = Path(tmp, f"{name}.csv")
            path.write_bytes(text)
            with open(path, "rb") as file:
                groups = _strict_groups(file)
            assert groups is not None, f"{name}: the strict path did not take the file"
            assert groups == _parse_file(_wait_groups, path), f"{name}: the strict path's groups differ"
        lines = data.splitlines(keepends=True)
        for row in range(1, 14):
            path = Path(tmp, "bad.csv")
            path.write_bytes(b"".join(lines[:row] + [lines[row].replace(b"\n", b"x\n")] + lines[row + 1:]))
            with open(path, "rb") as file:
                assert _strict_groups(file) is None, f"the strict path took a bad wait in row {row} of a run"
    print(f"Python {sys.version.split()[0]}: the strict path reads a synth week with LF and CRLF line ends, "
          "and no bad wait in rows 1 to 13")
    return 0


if __name__ == "__main__":
    sys.exit(main())
