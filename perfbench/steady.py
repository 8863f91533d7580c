#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every end-to-end metric.

    python3 perfbench/steady.py [--workloads NAME ...] [--seeds 1-10] [--record]

Runs `perfbench/run.py` once per workload and seed, one process at a time,
with BENCHMARK.json's run_seconds, from the root of the checkout. For each
workload it prints, per end-to-end metric and unit, the median, quartiles
and count of the per-seed values and their spread ((q3 - q1) / median)
beside the metric's bound, then fail_ratio and the machine context.

--record writes the output digests of every passing run into
perfbench/digests.json, so later runs on those seeds are gated against
them. Record only from code whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = ROOT / ".perfbench_work" / "results"
DIGESTS = BENCH_DIR / "digests.json"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    return line, report


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    summary = {}
    for workload in args.workloads:
        lines, reports = [], []
        for seed in args.seeds:
            line, report = run_one(workload, seed, bench["run_seconds"], 0)
            lines.append(line)
            reports.append(report)
            if args.record and line["correct"]:
                recorded.setdefault(workload, {})[str(seed)] = report["digests"]
        attempted = sum(line["attempted"] for line in lines)
        failed = sum(line["failed"] for line in lines)
        print(f"\n{workload}: seeds {args.seeds[0]}..{args.seeds[-1]}, {len(lines)} runs, "
              f"correct {sum(line['correct'] for line in lines)}/{len(lines)}")
        print(f"  {'metric':15s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s} {'spread':>7s} {'bound':>6s}")
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [line["metrics"][name]["value"] for line in lines]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            median = statistics.median(values)
            spread = (q3 - q1) / median
            rows[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3, "n": len(values),
                          "spread": spread, "bound": metric["bound"]}
            print(f"  {name:15s} {metric['unit']:5s} {median:12.4f} {q1:12.4f} {q3:12.4f} {len(values):3d} "
                  f"{spread:7.4f} {metric['bound']:6.3f}")
        print(f"  {'fail_ratio':15s} {'ratio':5s} {failed / attempted:12.4f}  ({failed} failed of {attempted} workload runs)")
        machines = {(r["machine"]["nproc"], r["machine"]["python"]) for r in reports}
        loads = [r["machine"]["loadavg_at_start"][0] for r in reports]
        print(f"  machine: nproc/python {sorted(machines)}, load average at start {min(loads):.2f}..{max(loads):.2f}")
        summary[workload] = {"metrics": rows, "attempted": attempted, "failed": failed,
                             "fail_ratio": failed / attempted, "machine": [r["machine"] for r in reports]}

    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "steady.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if args.record:
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
