"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation (the argv given to ``polarfractal.cli.main``)
plus the name of the oracle that checks its output and the oracle's
parameters.  Job lists depend only on the workload name, the seed and the
thread cap; the program under test sees nothing but the generated argv.
Paths in argv are written as ``{tmp}/name`` and resolved against the fresh
temporary directory of each run.

Standard library only: the job list is built in the parent process, before
any timed child process starts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("rationals", "grids", "monte-carlo")

# rationals: one threshold query per stratum of log2(q) over [log2 3, 15],
# paired with its complement.  Long periods cost time linearly in the
# period length, so in strata whose target period is long the draw is
# rejected until the period lies within _PERIOD_TOL of the stratum's
# target _PERIOD_FRACTION * q.  That keeps the total period length, and so
# the workload's cost, nearly the same on every seed.
_THRESHOLD_QUERIES = 60
_LOG2_Q_MAX = 15
_PERIOD_FRACTION = 0.25
_PERIOD_TOL = 0.1
_PERIOD_TARGET_MIN = 64
_MAX_DRAWS = 20_000
_REPEATS = 15
_HEAVY_QUERIES = 30
_SELFSIM_SAMPLES = 30

# monte-carlo: trials per job, in the 10^5 range.
_MIN_NONNEG_TRIALS = 100_000
_WALK_TRIALS = 200_000
_MEASURE_TRIALS = 300_000


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    oracle: str
    params: dict = field(default_factory=dict)
    ref: int | None = None  # index of the job this one is checked against


def _odd_part(q: int) -> int:
    while q % 2 == 0:
        q //= 2
    return q


def period_length(x: Fraction) -> int:
    """Length of the recurring block of x's binary expansion: the order of
    2 modulo the odd part of the denominator (0 for dyadic x)."""
    m = _odd_part(x.denominator)
    if m == 1:
        return 0
    k, v = 1, 2 % m
    while v != 1:
        v = v * 2 % m
        k += 1
    return k


def _draw_nondyadic(rng: random.Random, lo: float, hi: float) -> Fraction:
    q = max(3, round(2 ** rng.uniform(lo, hi)))
    if q & (q - 1) == 0:
        q += 1
    while True:
        x = Fraction(rng.randrange(1, q), q)
        if x.denominator & (x.denominator - 1):
            return x


def threshold_queries(rng: random.Random, count: int) -> list[Fraction]:
    """2/3 (the golden-ratio landmark) plus ``count - 1`` stratified,
    period-targeted non-dyadic rationals, all distinct and none the
    complement of another."""
    xs = [Fraction(2, 3)]
    taken = {Fraction(2, 3), Fraction(1, 3)}
    lo0, hi0 = math.log2(3), float(_LOG2_Q_MAX)
    # 2/3 stands for the first stratum, whose only denominator is 3.
    for i in range(1, count):
        lo = lo0 + (hi0 - lo0) * i / count
        hi = lo0 + (hi0 - lo0) * (i + 1) / count
        target = _PERIOD_FRACTION * 2 ** ((lo + hi) / 2)
        best = None
        for _ in range(_MAX_DRAWS):
            x = _draw_nondyadic(rng, lo, hi)
            if x in taken:
                continue
            miss = abs(period_length(x) - target)
            if best is None or miss < best[0]:
                best = (miss, x)
            if target < _PERIOD_TARGET_MIN or miss <= _PERIOD_TOL * target:
                break
        x = best[1]
        xs.append(x)
        taken.update((x, 1 - x))
    return xs


def _rationals(rng: random.Random, threads: int) -> list[Job]:
    xs = threshold_queries(rng, _THRESHOLD_QUERIES)
    jobs: list[Job] = []
    for x in xs:
        params = {"x": str(x)}
        if x == Fraction(2, 3):
            params["golden"] = True
        jobs.append(Job(("threshold", str(x), "--json"), "threshold", params))
        jobs.append(Job(("threshold", str(1 - x), "--json"), "threshold_pair",
                        {"x": str(1 - x)}, ref=len(jobs) - 1))
    for i in sorted(rng.sample(range(len(jobs)), _REPEATS)):
        jobs.append(Job(jobs[i].argv, "repeat", ref=i))
    for x in xs[::len(xs) // _HEAVY_QUERIES]:
        jobs.append(Job(("heavy", str(x), "--rho", "1/2"), "heavy",
                        {"x": str(x), "rho": "1/2"}))
    for extra in ((), ("--set", "heavy", "--rho", "1/2")):
        jobs.append(Job(("selfsim", "--n", "3", "--samples",
                         str(_SELFSIM_SAMPLES), "--seed",
                         str(rng.randrange(1 << 31)), *extra),
                        "selfsim", {"checked": 8 * _SELFSIM_SAMPLES}))
    jobs.append(Job(("walk", "--n", "12", "--exhaustive"), "feller", {"m": 12}))
    rho = Fraction(rng.randrange(11, 18), 20)
    jobs.append(Job(("entropy", "--rho", str(rho), "--n", "100,1000"),
                    "entropy", {"rho": str(rho), "n": [100, 1000]}))
    return jobs


def _grids(rng: random.Random, threads: int) -> list[Job]:
    def eps() -> str:
        return f"{rng.uniform(0.3, 0.7):.3f}"

    k20 = (1 << 19) + rng.randrange(-1 << 14, 1 << 14)
    k11 = 1536 + rng.randrange(-64, 65)
    return [
        Job(("construct", "polar", "--eps", eps(), "--n", "20", "--k", str(k20),
             "--json"), "polar_set", {"n": 20, "k": k20}),
        Job(("construct", "rm", "--n", "20", "--r", "10", "--json"), "rm_set",
            {"n": 20, "r": 10}),
        Job(("construct", "polar", "--eps", eps(), "--n", "11", "--k", str(k11),
             "--matrix-out", "{tmp}/g11.txt"), "matrix",
            {"n": 11, "k": k11, "file": "g11.txt", "format": "text"}),
        Job(("construct", "rm", "--n", "13", "--r", "6", "--matrix-out",
             "{tmp}/g13.bin", "--matrix-format", "binary", "--json"), "matrix",
            {"n": 13, "r": 6, "file": "g13.bin", "format": "binary"}),
        Job(("measure", "--eps", eps(), "--depths", "10,16,20,22,24"),
            "measure", {"depths": [10, 16, 20, 22, 24]}),
        Job(("plot-fractal", "-m", "13", "-o", "{tmp}/curve.csv"), "plot",
            {"m": 13, "file": "curve.csv"}),
        Job(("plot-fractal", "-m", "11", "--json"), "plot", {"m": 11}),
    ]


def _monte_carlo(rng: random.Random, threads: int) -> list[Job]:
    def seed() -> str:
        return str(rng.randrange(1 << 31))

    base = [
        (("walk", "--n", "1000", "--trials", str(_MIN_NONNEG_TRIALS), "--seed",
          seed(), "--min-nonneg"), "min_nonneg",
         {"n": 1000, "trials": _MIN_NONNEG_TRIALS}),
        (("walk", "--n", "301", "--trials", str(_WALK_TRIALS), "--seed", seed()),
         "walk_mc", {"n": 301, "trials": _WALK_TRIALS}),
        (("measure", "--eps", "0.3", "--depths", "26,30,40", "--trials",
          str(_MEASURE_TRIALS), "--seed", seed()), "measure",
         {"depths": [26, 30, 40]}),
    ]
    jobs: list[Job] = []
    for argv, oracle, params in base:
        jobs.append(Job((*argv, "--threads", "1"), oracle, params))
        jobs.append(Job((*argv, "--threads", str(min(2, threads))),
                        "same_bytes", ref=len(jobs) - 1))
    return jobs


_BUILDERS = {"rationals": _rationals, "grids": _grids,
             "monte-carlo": _monte_carlo}


def make_jobs(workload: str, seed: int, threads: int) -> list[Job]:
    """The job list of ``workload`` for ``seed``; ``threads`` caps the
    thread count any job asks for."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, max(1, threads))
