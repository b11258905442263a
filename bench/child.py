"""One repetition of a workload, in a fresh Python process.

Started by ``run.py`` with the job list in a JSON file.  The process
imports numpy and ``polarfractal.cli`` (the set-up a CLI user pays),
stamps the moment the first job can run, then runs every job through
``polarfractal.cli.main(argv, out=...)`` in one closed loop: each job
starts when the previous one returns.  With ``--check`` the oracles run
after the timed loop; every repetition reports a digest of its outputs.
With ``--setup-only`` it stops at that moment: one more set-up sample.
The last stdout line is one JSON object with the measurements.

Usage: python child.py --jobs JOBS.json --tmp DIR [--check] [--trace SPANS.jsonl]
       python child.py --setup-only
"""

from __future__ import annotations

import time

import numpy  # noqa: F401  (set-up cost, paid before the first job)
from polarfractal import cli

READY_NS = time.monotonic_ns()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

from oracles import Result, check_all  # noqa: E402
from workloads import Job  # noqa: E402


def _stdout_path(tmp: str, i: int) -> str:
    return os.path.join(tmp, f"stdout-{i}.txt")


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space (VmHWM).

    Not ``getrusage``'s ru_maxrss: Linux carries that across exec from
    the parent that spawned the process, so a parent larger than this
    process would set its floor."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_jobs(jobs: list[Job], tmp: str, tracer=None) -> tuple[list[Result], dict]:
    """Run the jobs back to back; returns the results and the loop's wall
    and CPU seconds.  Each job's stdout goes to a file in ``tmp``, as a
    shell redirect would send it, so the harness holds no output in memory
    while the run's peak RSS is taken; ``read_files`` reads it back."""
    results = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        argv = [a.replace("{tmp}", tmp) for a in job.argv]
        with open(_stdout_path(tmp, i), "w", encoding="utf-8", newline="") as out:
            try:
                rc, error = cli.main(argv, out=out), ""
            except Exception as exc:  # a raise is a failed job, not a crash
                rc, error = None, repr(exc)
        results.append(Result(rc, "", error=error))
    times = {"wall_s": time.perf_counter() - t0,
             "cpu_s": time.process_time() - cpu0}
    return results, times


def read_files(jobs: list[Job], results: list[Result], tmp: str) -> int:
    """Attach each job's stdout and written files to its result; returns
    total output bytes."""
    total = 0
    for i, (job, result) in enumerate(zip(jobs, results)):
        with open(_stdout_path(tmp, i), encoding="utf-8", newline="") as fh:
            result.stdout = fh.read()
        total += os.path.getsize(_stdout_path(tmp, i))
        name = job.params.get("file")
        if name and os.path.exists(os.path.join(tmp, name)):
            with open(os.path.join(tmp, name), "rb") as fh:
                result.files[name] = fh.read()
            total += len(result.files[name])
    return total


def digest(results: list[Result]) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(f"{result.rc}\0{result.stdout}\0".encode())
        for name in sorted(result.files):
            h.update(result.files[name])
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs")
    parser.add_argument("--tmp")
    parser.add_argument("--check", action="store_true",
                        help="run every job's oracle after the timed loop")
    parser.add_argument("--trace", help="write spans here and trace the run")
    parser.add_argument("--setup-only", action="store_true",
                        help="report when the first job could run, run none")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"ready_ns": READY_NS}))
        return
    if not (args.jobs and args.tmp):
        parser.error("--jobs and --tmp are required")
    with open(args.jobs) as fh:
        jobs = [Job(tuple(j["argv"]), j["oracle"], j["params"], j["ref"])
                for j in json.load(fh)]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        skipped = tracer.install()
    results, times = run_jobs(jobs, args.tmp, tracer)
    peak_mb = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    out_bytes = read_files(jobs, results, args.tmp)
    failures = check_all(jobs, results) if args.check else []
    record = {
        "ready_ns": READY_NS, **times, "peak_rss_mb": peak_mb,
        "attempted": len(jobs),
        "failures": [[i, " ".join(jobs[i].argv), why] for i, why in failures],
        "digest": digest(results), "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.counts["cli.output_bytes"] += out_bytes
        tracer.write_spans(args.trace)
        record["layers"] = tracer.metrics()
        record["self_s_total"] = tracer.total_self_s()
        record["spans"] = len(tracer.spans)
        record["skipped"] = skipped
    print(json.dumps(record))


if __name__ == "__main__":
    main()
