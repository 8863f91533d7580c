"""Check the strict wait-file parse under any Python 3.10+, with the standard library alone.

    python3.10 tests/strict_path_check.py

pytest and hypothesis need not be installed, so this runs under an interpreter
that has only its standard library, such as the oldest one pyproject.toml
allows. It imports delaytree from this checkout's src/, which compiles the
strict pattern, writes a week of synth's wait file with LF and with CRLF line
ends, and checks that `_hourly_waits_file` gives each file's table with the
strict path alone: the exact loop reads the header and no row, and that
`_file_groups` gives the exact loop's samples, so no row is merged twice,
which an hour's mean cannot show when all its samples are. A file with one
bad wait in any of the first 13 rows of a run, of the first run and of the
first run past the first block, must give the exact loop's message and line:
a wait that a failed row left in its group would make up for the row the
pattern skipped, and past the first block the line counts the rows before it. It prints one line and exits 0, or fails
with a traceback.
"""

import sys
import tempfile
from datetime import date
from functools import partial
from itertools import accumulate
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from delaytree import ingest, synth  # noqa: E402
from delaytree.errors import DataError  # noqa: E402
from delaytree.ingest import (  # noqa: E402
    Bridge, Direction, Vehicle, _file_groups, _hourly_waits_file, _parse_file, _wait_groups, hourly_waits,
)


def _outcome(read, path):
    """The table `read(path)` gives, or its data error's message."""
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def _exact_loop_reads(path):
    """`_outcome(_hourly_waits_file, path)`, and the lines the exact loop read."""
    read, wait_groups = [], ingest._wait_groups
    ingest._wait_groups = lambda lines, groups=None: wait_groups((read.append(line) or line for line in lines), groups)
    try:
        return _outcome(_hourly_waits_file, path), read
    finally:
        ingest._wait_groups = wait_groups


def main() -> int:
    cfg = synth.SynthConfig(date(2016, 8, 22), date(2016, 8, 28), 7, Direction.TO_US, Vehicle.PASSENGER,
                            {Bridge.PB: 5.0, Bridge.RB: 10.0, Bridge.LQ: 20.0}, jitter=3.0)
    with tempfile.TemporaryDirectory() as tmp:
        data = synth.generate(cfg, Path(tmp, "synth")).wait_times.read_bytes()
        for name, text in (("LF", data), ("CRLF", data.replace(b"\n", b"\r\n"))):
            path = Path(tmp, f"{name}.csv")
            path.write_bytes(text)
            table, read = _exact_loop_reads(path)
            assert table == _parse_file(hourly_waits, path), f"{name}: the table differs from the exact loop's"
            assert read == [text.splitlines(keepends=True)[0].decode()], f"{name}: the exact loop read a row"
            with open(path, "rb") as file:
                assert _file_groups(file) == _parse_file(_wait_groups, path), f"{name}: the samples differ"
        lines = data.splitlines(keepends=True)
        ends = list(accumulate(map(len, lines)))  # ends[r - 1]: the bytes before lines[r]
        key = lambda line: line[:13] + line[16:].rpartition(b",")[0]  # noqa: E731 - a run's hour and stream texts
        late = next(r for r in range(2, len(lines))
                    if ends[r - 1] > ingest._BLOCK and key(lines[r]) != key(lines[r - 1]))
        for first in (1, late):  # the first run, and the first run past the first block
            for row in range(first, first + 13):
                path = Path(tmp, "bad.csv")
                path.write_bytes(b"".join(lines[:row] + [lines[row].replace(b"\n", b"x\n")] + lines[row + 1:]))
                want = _outcome(partial(_parse_file, hourly_waits), path)
                assert str(want).startswith(f"{path}: line {row + 1}: malformed wait_minutes "), want
                assert _exact_loop_reads(path)[0] == want, f"a bad wait in line {row + 1}: not the exact loop's error"
    print(f"Python {sys.version.split()[0]}: the strict path reads a synth week with LF and CRLF line ends to the "
          "exact loop's samples, and a bad wait in rows 1 to 13 of a run, in or past the first block, gives the "
          "exact loop's message and line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
