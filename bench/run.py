#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload rationals --seed 1 --seconds 40 --trace 0

The job list is generated from the seed here, then the workload is run
repeatedly, each repetition in a fresh Python process (``child.py``) so
imports and the process-wide threshold cache start cold, as they do for a
CLI user.  Repetitions continue while the next one is expected to finish
within ``--seconds`` (at least ``MIN_REPS``).  Medians over repetitions
are reported.

The shared host's speed drifts by a fifth or more from one minute to the
next, and a whole run drifts with it.  So this process runs a fixed
reference kernel (``calibrate.py``) around each repetition: before each
of its set-up samples, just before and just after it.  Every time the
repetition measured is scaled by ``CAL_PASS_S`` over the mean kernel
time, so times are reported in seconds at the host speed at which one
kernel pass takes ``CAL_PASS_S``.  The raw times and each repetition's
scale are in the provenance line.

``--trace 0`` reports the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb).  setup_s is the scaled median over every repetition's spawn
plus ``EXTRA_SETUPS`` set-up-only spawns before each repetition.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones, the tracing overhead, and writes the spans of
the last traced repetition to ``.bench_run/spans-<workload>-seed<seed>.jsonl``.

The first repetition checks every job's output with its oracle; every
later one must produce byte-identical outputs, or all its jobs count as
failed.  The last stdout line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is the run's provenance.  Exit code 2 when the program
under test is missing, 1 when a repetition crashes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import kernel_seconds
from tracer import metric_units
from workloads import WORKLOADS, make_jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "polarfractal"
WORKDIR = ROOT / ".bench_run"

MIN_REPS = 3
# Set-up samples per repetition besides the repetition's own spawn.  One
# spawn takes about 0.2 s and its time swings by a third from second to
# second, so a run takes several per repetition and reports their median.
EXTRA_SETUPS = 3
CHILD_TIMEOUT_S = 150
# Seconds one pass of the reference kernel takes at the reference host
# speed, about its median on a 2-core Intel Xeon VM.
CAL_PASS_S = 0.1


class RepCrashed(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # Only the Monte Carlo pool may start threads, and never more than nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_rep(jobs_json: str, env: dict[str, str], spans: Path | None,
             check: bool, cal_s: list[float]) -> dict:
    """One repetition in a fresh process and a fresh temporary directory,
    between two passes of the reference kernel; ``cal_s`` holds the
    times of the passes made since the previous repetition."""
    cal_s = [*cal_s, kernel_seconds()]
    tmp = tempfile.mkdtemp(prefix="rep-", dir=WORKDIR)
    try:
        jobs_path = Path(tmp) / "jobs.json"
        jobs_path.write_text(jobs_json)
        cmd = [sys.executable, str(BENCH / "child.py"), "--jobs", str(jobs_path),
               "--tmp", tmp]
        if spans is not None:
            cmd += ["--trace", str(spans)]
        if check:
            cmd.append("--check")
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    cal_s.append(kernel_seconds())
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepCrashed(f"repetition exited {proc.returncode}:\n{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = (rep["ready_ns"] - spawn_ns) / 1e9
    rep["scale"] = CAL_PASS_S / statistics.mean(cal_s)
    return rep


def _setup_sample(env: dict[str, str]) -> float:
    """Seconds from spawning a child until its first job could run."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "--setup-only"],
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepCrashed(f"set-up child exited {proc.returncode}:\n{proc.stderr}")
    return (json.loads(proc.stdout)["ready_ns"] - spawn_ns) / 1e9


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # not a git checkout; git would find an outer one
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _median(reps: list[dict], key: str) -> float:
    """Median over repetitions of a time, each scaled to reference speed."""
    return statistics.median(rep[key] * rep["scale"] for rep in reps)


def _timed_reps(seconds: float, run_one) -> list:
    """Call ``run_one(i)`` for i = 0, 1, ... at least MIN_REPS times, then
    while the next call is expected to end within ``seconds`` of the start."""
    start = time.monotonic()
    reps, durations = [], []
    while True:
        t0 = time.monotonic()
        reps.append(run_one(len(reps)))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(durations) > seconds:
            return reps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"program under test not found at {PACKAGE}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    jobs = make_jobs(args.workload, args.seed, nproc)
    jobs_json = json.dumps([dataclasses.asdict(job) for job in jobs])
    WORKDIR.mkdir(exist_ok=True)
    env = _child_env()
    # Byte-compile once, untimed: an installed CLI has its bytecode cached.
    subprocess.run([sys.executable, "-c", "import polarfractal.cli"], env=env,
                   check=True, timeout=CHILD_TIMEOUT_S)

    spans = WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        if args.trace:
            pairs = _timed_reps(args.seconds, lambda i: (
                _run_rep(jobs_json, env, None, check=i == 0, cal_s=[]),
                _run_rep(jobs_json, env, spans, check=False, cal_s=[])))
            plain = [p[0] for p in pairs]
            traced = [p[1] for p in pairs]
            reps = plain + traced
        else:
            def run_one(i: int) -> dict:
                setups, cal_s = [], []
                for _ in range(EXTRA_SETUPS):
                    cal_s.append(kernel_seconds())
                    setups.append(_setup_sample(env))
                rep = _run_rep(jobs_json, env, None, check=i == 0, cal_s=cal_s)
                rep["setup_samples"] = setups + [rep["setup_s"]]
                return rep
            reps = _timed_reps(args.seconds, run_one)
    except RepCrashed as exc:
        print(exc, file=sys.stderr)
        return 1

    failures = list(reps[0]["failures"])
    failed = len(failures)
    for i, rep in enumerate(reps):
        if rep["digest"] != reps[0]["digest"]:
            failed += rep["attempted"]
            failures.append([None, f"repetition {i}",
                             "outputs differ from the checked repetition"])
    if args.trace:
        units = metric_units()
        values = {name: statistics.median(rep["layers"][name] for rep in traced)
                  for name in units}
        traced_wall = _median(traced, "wall_s")
        values["trace.untraced_wall_s"] = _median(plain, "wall_s")
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - values["trace.untraced_wall_s"]
        values["trace.self_coverage"] = statistics.median(
            rep["self_s_total"] / rep["wall_s"] for rep in traced)
        values["trace.spans"] = statistics.median(rep["spans"] for rep in traced)
        units.update({"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
                      "trace.overhead_s": "s", "trace.self_coverage": "ratio",
                      "trace.spans": "count"})
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        metrics = {
            "wall_s": {"value": _median(reps, "wall_s"), "unit": "s"},
            "cpu_s": {"value": _median(reps, "cpu_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(
                s * rep["scale"] for rep in reps for s in rep["setup_samples"]),
                "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                rep["peak_rss_mb"] for rep in reps), "unit": "MiB"},
        }

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": reps[0]["numpy"],
        "nproc": nproc, "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(), "jobs": len(jobs), "reps": len(reps),
        "skipped_trace_targets": reps[-1].get("skipped", []),
        "per_rep": [{k: rep[k] for k in ("wall_s", "cpu_s", "setup_s",
                                         "setup_samples", "peak_rss_mb",
                                         "scale")
                     if k in rep} for rep in reps],
        "failures": failures[:20],
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
