#!/usr/bin/env python3
"""Run every workload over several seeds and print the spread per metric.

    python3 bench/all.py --seeds 1-10

Workloads are interleaved within each seed (rationals, grids, monte-carlo,
then the next seed), so slow drifts of the machine hit all of them alike.
For each workload and end-to-end metric the table gives the median over
seeds and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure the bounds in BENCHMARK.json rest on.  ``fail_ratio`` is failed
jobs over attempted jobs, summed over all runs of the workload.  Each run
lasts BENCHMARK.json's ``run_seconds``, as the bounds assume.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
METRICS = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
           ("peak_rss_mb", "MiB"))


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2", help="e.g. 1-10 or 1,7")
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for seed in _seeds(args.seeds):
        for workload in WORKLOADS:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4f}"
                              for k, v in result["metrics"].items())
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"{values}", flush=True)

    all_correct = True
    print(f"{'workload':12s} {'metric':12s} {'unit':6s} {'median':>10s} "
          f"{'spread':>8s}  runs")
    for workload, results in runs.items():
        for name, unit in METRICS:
            values = [r["metrics"][name]["value"] for r in results]
            print(f"{workload:12s} {name:12s} {unit:6s} "
                  f"{statistics.median(values):10.4f} {_spread(values):8.4f}  "
                  f"{len(values)}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload:12s} {'fail_ratio':12s} {'ratio':6s} "
              f"{failed / attempted:10.4f} {'':8s}  {failed} of {attempted} jobs")
        all_correct &= all(r["correct"] for r in results)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
