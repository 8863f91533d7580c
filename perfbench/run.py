#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of delaytree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs are generated from
the seed with `delaytree.synth.generate` (the set-up, timed at least
SETUP_MIN_REPEATS times), then its commands run as a user runs them: one
`python -m delaytree` process per command, one at a time, in a closed
loop with a single client, repeated for as many whole workload runs as
fit in S seconds (at least one). Every
workload run passes the output gate: exit codes, expected artifacts, and
sha256 digests of the artifacts and inputs against perfbench/digests.json
(or, for a seed with no recorded digests, against the run's first
workload run).

With --trace 1 untraced and traced workload runs alternate; a traced run
executes each command in-process through `cli.main` with the public
functions wrapped (see tracer.py), and per-layer metrics are reported.

A summary with quartiles, sample counts, fail_ratio and machine context
goes to stderr and to .perfbench_work/results/; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = BENCH_DIR / "workloads.json"
DIGESTS = BENCH_DIR / "digests.json"

# Set-up repeats until it has taken SETUP_MIN_S, within these counts, so a
# set-up of a fraction of a second still gets a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_S = 3.0
# The whole benchmark process must end within 180 s; no workload run starts
# once the previous one says it would end after this many seconds.
DEADLINE_S = 160.0

sys.path.insert(0, str(BENCH_DIR))
import tracer as tracing  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------------ set-up


def _synth_configs(spec: dict, seed: int):
    from datetime import date

    from delaytree import synth
    from delaytree.cli import parse_rule
    from delaytree.ingest import Direction, Vehicle, bridges_for

    s = spec["synth"]
    configs = []
    for i, (vehicle_name, direction_name) in enumerate(s["streams"]):
        vehicle = Vehicle[vehicle_name.upper()]
        configs.append(
            synth.SynthConfig(
                start=date.fromisoformat(s["start"]),
                end=date.fromisoformat(s["end"]),
                seed=seed + i,
                direction=Direction[direction_name.upper()],
                vehicle=vehicle,
                base_waits={b: s["base_wait"] for b in bridges_for(vehicle)},
                rules=tuple(parse_rule(text) for text in s["rules"][vehicle_name]),
                label_flip=s["label_flip"],
                jitter=s["jitter"],
                us_holidays=frozenset(date.fromisoformat(d) for d in s["us_holidays"]),
                ca_holidays=frozenset(date.fromisoformat(d) for d in s["ca_holidays"]),
            )
        )
    return configs


def _pipeline_config(spec: dict) -> str:
    lines = [
        "[pipeline]",
        "out-dir = out",
        "",
        "[ingest]",
        "wait-times = ../inputs/wait_times.csv",
        "weather = ../inputs/weather.csv",
        "holidays = ../inputs/holidays.csv",
        "",
        "[train]",
    ]
    lines += [f"{key} = {value}" for key, value in spec["train"].items()]
    return "\n".join(lines) + "\n"


def setup(spec: dict, seed: int, dest: Path) -> float:
    """Generate the workload's inputs into `dest`; returns seconds taken.

    One synth.generate call per stream; the wait files are concatenated in
    stream order and weather and holidays come from the first stream.
    """
    from delaytree import synth

    configs = _synth_configs(spec, seed)
    shutil.rmtree(dest, ignore_errors=True)
    start = time.perf_counter()
    streams = dest / "streams"
    outs = [synth.generate(cfg, streams / str(i)) for i, cfg in enumerate(configs)]
    os.replace(outs[0].wait_times, dest / "wait_times.csv")
    os.replace(outs[0].weather, dest / "weather.csv")
    os.replace(outs[0].holidays, dest / "holidays.csv")
    with open(dest / "wait_times.csv", "ab") as combined:
        for out in outs[1:]:
            with open(out.wait_times, "rb") as part:
                part.readline()  # header
                shutil.copyfileobj(part, combined)
    (dest / "pipeline.cfg").write_text(_pipeline_config(spec), encoding="utf-8")
    elapsed = time.perf_counter() - start
    shutil.rmtree(streams)
    return elapsed


# ------------------------------------------------------------- output gate


def digest_tree(root: Path, prefix: str) -> dict:
    """sha256 of every regular file under root, keyed by prefix/relpath."""
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[f"{prefix}/{path.relative_to(root).as_posix()}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def check_outputs(codes, artifacts, digests: dict, reference) -> list[str]:
    """Problems with one workload run; empty when it passes the gate.

    codes: exit code per command; artifacts: expected paths under run/;
    digests: what the run left (inputs/... and run/...); reference: the
    digests it must equal, or None for the first run of an unrecorded seed.
    """
    problems = [f"command {k + 1} exited {code}" for k, code in enumerate(codes) if code != 0]
    missing = {f"run/{name}" for name in artifacts} - set(digests)
    problems += [f"missing artifact {name}" for name in sorted(missing)]
    if reference is not None:
        for name in sorted((set(reference) | set(digests)) - missing):
            if reference.get(name) != digests.get(name):
                problems.append(f"digest mismatch {name}")
    return problems


def recorded_digests(workload: str, seed: int):
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


# ---------------------------------------------------------- workload runs


class _Child:
    """The one child process alive at a time, killed at the deadline."""

    proc = None

    @classmethod
    def kill(cls, *_):
        if cls.proc is not None and cls.proc.returncode is None:
            cls.proc.kill()


def spawn(argv, cwd: Path, log: Path, env: dict, deadline: float):
    """Run argv to completion; returns (wall s, cpu s, peak RSS MB, exit code)."""
    signal.setitimer(signal.ITIMER_REAL, max(0.5, deadline - time.monotonic()))
    try:
        with open(log, "ab") as err:
            start = time.perf_counter()
            proc = _Child.proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _Child.proc = None
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


class Workload:
    def __init__(self, name: str, spec: dict, seed: int, deadline: float):
        self.name = name
        self.spec = spec
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / name
        self.inputs = self.dir / "inputs"
        self.run_dir = self.dir / "run"
        self.spans_dir = self.dir / "spans"
        self.log = self.dir / "stderr.log"
        self.env = dict(os.environ)
        self.env.pop("DELAYTREE_LOG", None)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.reference = recorded_digests(name, seed)
        self.input_digests: dict = {}

    def prepare(self, min_repeats: int, max_repeats: int, min_s: float) -> tuple[list[float], list[str]]:
        """Set up min_repeats times, and more until min_s seconds or
        max_repeats; returns set-up times and problems."""
        times, problems = [], []
        while len(times) < min_repeats or (sum(times) < min_s and len(times) < max_repeats):
            times.append(setup(self.spec, self.seed, self.inputs))
            digests = digest_tree(self.inputs, "inputs")
            if len(times) == 1:
                self.input_digests = digests
            elif digests != self.input_digests:
                problems.append(f"set-up {len(times)} wrote different inputs than set-up 1")
        return times, problems

    def raw_rows(self) -> int:
        with open(self.inputs / "wait_times.csv", "rb") as fh:
            return sum(1 for _ in fh) - 1

    def run(self, traced: bool) -> dict:
        """One workload run: every command, then the output gate."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        shutil.rmtree(self.spans_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.spans_dir.mkdir(parents=True)
        wall = cpu = rss = 0.0
        codes = []
        for k, args in enumerate(self.spec["commands"]):
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(self.spans_dir / f"{k}.json"), str(SRC), "--", *args]
            else:
                argv = [sys.executable, "-m", "delaytree", *args]
            w, c, r, code = spawn(argv, self.run_dir, self.log, self.env, self.deadline)
            wall += w
            cpu += c
            rss = max(rss, r)
            codes.append(code)
        digests = {**self.input_digests, **digest_tree(self.run_dir, "run")}
        problems = check_outputs(codes, self.spec["artifacts"], digests, self.reference)
        if self.reference is None and not problems:
            self.reference = digests
        result = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "problems": problems}
        if traced:
            dumps = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(self.spans_dir.glob("*.json"))]
            result["layers"], result["root_span_s"] = tracing.metrics_from_dumps(dumps)
        return result


# ---------------------------------------------------------------- metrics


def summarize(values) -> dict:
    """Median, quartiles, count and the highest percentile that has at
    least ten samples beyond it (None when there are too few)."""
    values = sorted(values)
    n = len(values)
    quart = statistics.quantiles(values, n=4) if n > 1 else [values[0]] * 3
    high = None
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            high = {"pct": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}
            break
    return {"median": statistics.median(values), "q1": quart[0], "q3": quart[2], "n": n, "high": high}


def machine_context() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "loadavg_at_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    context = machine_context()

    if not (SRC / "delaytree" / "cli.py").is_file():
        raise BenchError(f"no delaytree sources under {SRC}")
    specs = json.loads(WORKLOADS.read_text(encoding="utf-8"))["workloads"]
    if args.workload not in specs:
        raise BenchError(f"unknown workload {args.workload!r}; want one of {sorted(specs)}")
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _Child.kill)

    wl = Workload(args.workload, specs[args.workload], args.seed, started + DEADLINE_S)
    wl.dir.mkdir(parents=True, exist_ok=True)
    wl.log.write_bytes(b"")
    setup_tracer = None
    if args.trace:
        setup_tracer = tracing.Tracer()
        tracing.install(setup_tracer, tracing.SETUP_WRAPS)
    if args.trace:
        setup_times, problems = wl.prepare(1, 1, 0.0)
    else:
        setup_times, problems = wl.prepare(SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S)
    raw_rows = wl.raw_rows()

    runs = []
    rounds = 0
    loop_start = time.perf_counter()
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            runs.append(wl.run(traced))
        rounds += 1
        elapsed = time.perf_counter() - loop_start
        # Start another round only if one more of the average length fits.
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
        if time.monotonic() + 2 * elapsed / rounds > wl.deadline:
            break

    failed = sum(1 for r in runs if r["problems"])
    for r in runs:
        problems += r["problems"]
    untraced = [r for r in runs if not r["traced"]]
    wall = summarize([r["wall_s"] for r in untraced])
    stats = {
        "wall_s": (wall, "s"),
        "cpu_s": (summarize([r["cpu_s"] for r in untraced]), "s"),
        "peak_rss_mb": (summarize([r["peak_rss_mb"] for r in untraced]), "MB"),
        "setup_s": (summarize(setup_times), "s"),
    }
    # raw rows per second is a rate over the median wall time.
    stats["raw_rows_per_s"] = ({"median": raw_rows / wall["median"], "q1": raw_rows / wall["q3"],
                                "q3": raw_rows / wall["q1"], "n": wall["n"], "high": None}, "1/s")

    if args.trace:
        traced_runs = [r for r in runs if r["traced"]]
        setup_layers, _ = tracing.metrics_from_dumps([setup_tracer.dump()])
        per_run = []
        for r in traced_runs:
            m = {**setup_layers, **r["layers"]}
            m["cli.self_s"] = r["wall_s"] - r["root_span_s"]
            m["trace.wall_s"] = r["wall_s"]
            m["trace.overhead_s"] = r["wall_s"] - wall["median"]
            per_run.append(m)
        metrics = {}
        absent = []
        for name, unit, _better in tracing.METRICS:
            values = [m[name] for m in per_run if name in m]
            if len(values) < len(per_run):
                absent.append(name)
            else:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        absent = []
        order = ("wall_s", "cpu_s", "raw_rows_per_s", "peak_rss_mb", "setup_s")
        metrics = {name: {"value": stats[name][0]["median"], "unit": stats[name][1]} for name in order}

    attempted = len(runs)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": context,
        "raw_rows": raw_rows,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "absent": absent,
        "stats": {name: {"unit": unit, **s} for name, (s, unit) in stats.items()},
        "runs": runs,
        "digests": wl.reference,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace} nproc={context['nproc']} "
          f"python={context['python']} load={context['loadavg_at_start'][0]:.2f} raw_rows={raw_rows}", file=sys.stderr)
    for name, (s, unit) in stats.items():
        high = f" p{s['high']['pct']}={s['high']['value']:.4g}" if s["high"] else " (n < 20: no percentile above the median)"
        print(f"  {name:15s} {s['median']:12.4f} {unit:4s} q1={s['q1']:.4f} q3={s['q3']:.4f} n={s['n']}{high}", file=sys.stderr)
    print(f"  fail_ratio      {failed / attempted:12.4f} ratio ({failed}/{attempted})", file=sys.stderr)
    for problem in problems:
        print(f"  problem: {problem}", file=sys.stderr)
    for name in absent:
        print(f"  absent: {name}", file=sys.stderr)
    if args.trace:
        traced_wall = metrics["trace.wall_s"]["value"]
        shares = [(name, metrics[name]["value"] / traced_wall) for name in
                  [f"{layer}.self_s" for layer in tracing.LAYERS if layer != "synth"] + ["cli.import_s", "cli.self_s"]
                  if name in metrics]
        print("  share of traced wall: " + " ".join(f"{name}={share:.3f}" for name, share in shares), file=sys.stderr)

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
