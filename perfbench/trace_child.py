"""Run one delaytree command in-process through `cli.main`, traced.

    python3 perfbench/trace_child.py SPANS_JSON SRC_DIR -- ARGS...

Imports `delaytree.cli` from SRC_DIR under a `cli.import` span, wraps the
public functions listed in tracer.RUN_WRAPS, runs `cli.main(ARGS)` and
writes the spans and counts to SPANS_JSON. Exits with main's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


def main(argv) -> int:
    spans_path, src_dir, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON SRC_DIR -- ARGS...")
    sys.path.insert(0, src_dir)
    tracer = tracing.Tracer()
    with tracer.span("cli.import"):
        from delaytree import cli
    tracing.install(tracer, tracing.RUN_WRAPS)
    code = cli.main(args)
    Path(spans_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
