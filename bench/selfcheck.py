#!/usr/bin/env python3
"""Check the benchmark's oracles: they pass on real outputs and bite on
corrupted ones.

    python3 bench/selfcheck.py --seeds 1,2

For each seed and workload the job list is run once in this process, and
every job must pass its oracle.  Then each job's output is corrupted in a
small, targeted way (a flipped bit, a theta moved by 1e-8, a count moved
by six standard deviations, ...) and its oracle must fail; so must a job
that exits non-zero.  Exit code 0 only when every check held.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from child import read_files, run_jobs  # noqa: E402
from oracles import check_all, check_job  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


def _stdout(result, text):
    return dataclasses.replace(result, stdout=text)


def _edit_json(result, edit):
    doc = json.loads(result.stdout)
    edit(doc)
    return _stdout(result, json.dumps(doc) + "\n")


def _edit_csv(text, row, col, edit):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = edit(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _with_file(result, name, blob):
    return dataclasses.replace(result, files={**result.files, name: blob})


def _shift(delta):
    return lambda cell: repr(float(cell) + delta)


def _threshold(job, result):
    def edit(doc):
        doc["theta"] = doc["theta"] + 1e-9 if job.params.get("golden") else 0.0
    return _edit_json(result, edit)


def _threshold_pair(job, result):
    return _edit_json(result, lambda doc: doc.update(theta=doc["theta"] + 1e-8))


def _same(job, result):
    text = result.stdout
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return _stdout(result, text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])


def _heavy(job, result):
    flipped = {"member = true\n": "member = false\n",
               "member = false\n": "member = true\n"}
    return _stdout(result, flipped[result.stdout])


def _selfsim(job, result):
    return _stdout(result, result.stdout.replace("violations = 0",
                                                 "violations = 1"))


def _feller(job, result):
    bump = lambda cell: str(Fraction(cell) + Fraction(1, 1 << 24))  # noqa: E731
    return _stdout(result, _edit_csv(result.stdout, 2, 1, bump))


def _entropy(job, result):
    return _stdout(result, _edit_csv(result.stdout, 1, 1, _shift(1e-8)))


def _polar_set(job, result):
    return _edit_json(result, lambda doc: doc["indices"].pop())


def _rm_set(job, result):
    n, r = job.params["n"], job.params["r"]
    light = (1 << (n - r - 1)) - 1  # popcount n - r - 1: below the order

    def edit(doc):
        doc["indices"] = sorted([light] + doc["indices"][1:])
    return _edit_json(result, edit)


def _matrix(job, result):
    name = job.params["file"]
    blob = bytearray(result.files[name])
    if job.params["format"] == "text":
        blob[0] = ord("1") if blob[0] == ord("0") else ord("0")
    else:
        blob[12] ^= 1  # first payload byte, after magic and header
    return _with_file(result, name, bytes(blob))


def _measure(job, result):
    return _stdout(result, _edit_csv(result.stdout, 1, 1, _shift(1e-6)))


def _plot(job, result):
    if "file" in job.params:
        name = job.params["file"]
        text = _edit_csv(result.files[name].decode(), 6, 1, _shift(1e-5))
        return _with_file(result, name, text.encode())
    return _edit_json(result, lambda doc: doc["points"][5].__setitem__(
        1, doc["points"][5][1] + 1e-5))


def _min_nonneg(job, result):
    n, trials = job.params["n"], job.params["trials"]
    p = math.comb(n, n // 2) / 2.0 ** n
    frac = p + 6 * math.sqrt(p * (1 - p) / trials)
    return _stdout(result, f"fraction_min_nonnegative = {frac!r}\n")


def _walk_mc(job, result):
    """Move walks from row r = 0 to r = 1, keeping the total, until row 0
    sits six standard deviations below its expected count."""
    n, trials = job.params["n"], job.params["trials"]
    p = math.comb(n, (n - 1) // 2) / 2.0 ** (n - 1)
    lines = result.stdout.splitlines()
    c0, c1 = int(lines[1].split(",")[1]), int(lines[2].split(",")[1])
    move = c0 - int(trials * p - 6 * math.sqrt(trials * p * (1 - p)))
    text = _edit_csv(result.stdout, 1, 1, lambda _: str(c0 - move))
    return _stdout(result, _edit_csv(text, 2, 1, lambda _: str(c1 + move)))


CORRUPT = {
    "threshold": _threshold, "threshold_pair": _threshold_pair,
    "repeat": _same, "same_bytes": _same, "heavy": _heavy,
    "selfsim": _selfsim, "feller": _feller, "entropy": _entropy,
    "polar_set": _polar_set, "rm_set": _rm_set, "matrix": _matrix,
    "measure": _measure, "plot": _plot, "min_nonneg": _min_nonneg,
    "walk_mc": _walk_mc,
}


def check_workload(workload: str, seed: int) -> list[str]:
    """Problems found for one workload and seed (empty when all held)."""
    jobs = make_jobs(workload, seed, len(os.sched_getaffinity(0)))
    workdir = ROOT / ".bench_run"
    workdir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selfcheck-", dir=workdir)
    try:
        results, _ = run_jobs(jobs, tmp)
        read_files(jobs, results, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failures = check_all(jobs, results)
    problems = [f"job {i} ({' '.join(jobs[i].argv)}) failed: {why}"
                for i, why in failures]
    for i, job in enumerate(jobs):
        for label, bad in (
                ("corrupted", CORRUPT[job.oracle](job, results[i])),
                ("exit code 2", dataclasses.replace(results[i], rc=2))):
            trial = results[:i] + [bad] + results[i + 1:]
            if check_job(jobs, trial, i) is None:
                problems.append(f"job {i} ({job.oracle}): {label} output "
                                "passed its oracle")
    kinds = sorted({job.oracle for job in jobs})
    print(f"{workload} seed {seed}: {len(jobs) - len(failures)} of "
          f"{len(jobs)} jobs passed, "
          f"{2 * len(jobs)} corruptions checked, oracles {', '.join(kinds)}; "
          f"{len(problems)} problems", flush=True)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2")
    args = parser.parse_args()
    problems = []
    for seed in (int(s) for s in args.seeds.split(",")):
        for workload in WORKLOADS:
            problems += check_workload(workload, seed)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
