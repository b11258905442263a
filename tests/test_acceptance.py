"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
verdict lines.
"""

import functools
import io
import math
import random
import time
from fractions import Fraction

import numpy as np

from polarfractal import fractal
from polarfractal.cli import main
from polarfractal.codes import heavy_membership, kronecker_row, rm_index_set
from polarfractal.expansions import is_dyadic
from polarfractal.polarization import bec_leaf_values
from polarfractal.thresholds import threshold_of_rational

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def criterion(number, name, limit_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                assert elapsed < limit_seconds, (
                    f"runtime {elapsed:.1f}s exceeds {limit_seconds}s")
            except BaseException:
                print(f"[FAIL] criterion {number:2d}: {name}")
                raise
            print(f"[PASS] criterion {number:2d}: {name} "
                  f"({elapsed:.2f}s < {limit_seconds}s)")
        return wrapper
    return decorate


def run_cli(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    assert rc == 0, f"exit code {rc} for {argv}"
    return buf.getvalue()


def random_non_dyadic(rng, q_max):
    while True:
        q = rng.randrange(2, q_max + 1)
        p = rng.randrange(1, q)
        x = Fraction(p, q)
        if not is_dyadic(x):
            return x


@criterion(1, "golden-ratio threshold", 1.0)
def test_criterion_01_golden_ratio():
    out = run_cli(["threshold", "2/3"])
    theta = float(out.splitlines()[1].split(" = ")[1])
    assert abs(theta - GOLDEN) <= 1e-10


@criterion(2, "threshold triple 1/6, 1/3, 2/3", 1.0)
def test_criterion_02_threshold_triple():
    t16 = threshold_of_rational(Fraction(1, 6)).theta
    t13 = threshold_of_rational(Fraction(1, 3)).theta
    t23 = threshold_of_rational(Fraction(2, 3)).theta
    assert abs(t16 - 0.214) <= 0.001
    assert abs(t13 - 0.382) <= 0.001
    assert abs(t23 - 0.618) <= 0.001
    assert t16 < t13 < t23


@criterion(3, "symmetry over 200 random rationals", 30.0)
def test_criterion_03_symmetry_suite():
    rng = random.Random(0xC0FFEE)
    for _ in range(200):
        x = random_non_dyadic(rng, 500)
        theta = threshold_of_rational(x).theta
        mirror = threshold_of_rational(1 - x).theta
        assert abs(theta + mirror - 1.0) <= 1e-9, x


@criterion(4, "capacity conservation at depth 16", 5.0)
def test_criterion_04_conservation():
    n = 16
    for eps in [i / 10 for i in range(1, 10)]:
        leaves = bec_leaf_values(eps, n)
        total = float((1.0 - leaves).sum())
        assert abs(total - (1 << n) * (1.0 - eps)) <= (1 << n) * 1e-12


@criterion(5, "measure convergence trend", 30.0)
def test_criterion_05_measure_convergence():
    estimates = fractal.measure_scan(0.5, [10, 16, 20], delta=1e-3)
    goods = [e.fraction_good for e in estimates]
    bads = [e.fraction_bad for e in estimates]
    assert goods == sorted(goods)
    assert bads == sorted(bads)
    assert abs(goods[-1] - 0.5) <= 0.1
    assert abs(bads[-1] - 0.5) <= 0.1


@criterion(6, "row weight identity up to depth 10", 10.0)
def test_criterion_06_weight_identity():
    failures = 0
    for n in range(11):
        for h in range(1 << n):
            if int(kronecker_row(n, h).sum()) != 1 << bin(h).count("1"):
                failures += 1
    assert failures == 0


@criterion(7, "Reed-Muller extremes", 1.0)
def test_criterion_07_rm_extremes():
    for n in range(13):
        assert rm_index_set(0, n).indices == ((1 << n) - 1,)
        assert rm_index_set(n, n).indices == tuple(range(1 << n))


@criterion(8, "heavy-set boundary cases", 1.0)
def test_criterion_08_heavy_boundary():
    assert heavy_membership(Fraction(2, 3), Fraction(1, 2))
    assert not heavy_membership(Fraction(1, 3), Fraction(1, 2))
    rng = random.Random(55)
    for _ in range(50):
        x = Fraction(rng.randrange(0, 1001), 1000)
        assert heavy_membership(x, 0)
    dyadics = [Fraction(1, 2), Fraction(3, 8), Fraction(7, 16), Fraction(1, 1024)]
    for rho in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(99, 100)):
        for x in dyadics:
            assert heavy_membership(x, rho)


@criterion(9, "walk identity and crossing bound", 20.0)
def test_criterion_09_walk_identity():
    for m in range(1, 13):
        for row in fractal.feller_identity_table(m):
            assert row.defect == 0, (m, row.r)
            assert row.bound >= float(row.cumulative), (m, row.r)


@criterion(10, "phase transition decay", 60.0)
def test_criterion_10_phase_transition():
    trials, seed = 1_000_000, 20260808
    f_short = fractal.walk_min_nonnegative_fraction(100, trials, seed)
    f_long = fractal.walk_min_nonnegative_fraction(1000, trials, seed)
    assert f_long <= f_short / 2.0


@criterion(11, "entropy-count dimension witness", 5.0)
def test_criterion_11_entropy_witness():
    for rho in (Fraction(1, 2), Fraction(3, 5), Fraction(7, 10),
                Fraction(4, 5), Fraction(9, 10)):
        gap = abs(fractal.entropy_count(1000, rho)
                  - fractal.binary_entropy(float(rho)))
        assert gap <= 0.02, rho


@criterion(12, "self-similarity suites", 60.0)
def test_criterion_12_selfsim_suites():
    rng = random.Random(424242)
    for n in (1, 2, 3):
        for k in range(1, (1 << n) + 1):
            lo, hi = fractal.cell_bounds(n, k)
            samples = []
            while len(samples) < 100:
                x = random_non_dyadic(rng, 300)
                if lo < x < hi:
                    samples.append(x)
            assert fractal.selfsim_check(
                samples, n, k, lambda x: threshold_of_rational(x).theta) == []
            for rho in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                assert fractal.selfsim_check(samples, n, k, functools.partial(
                    heavy_membership, rho=rho)) == []


@criterion(13, "figure data reproduction", 60.0)
def test_criterion_13_figure_reproduction():
    out = run_cli(["plot-fractal", "-m", "10"])
    rows = [tuple(map(float, line.split(",")))
            for line in out.strip().splitlines()[1:]]
    assert len(rows) == 1024
    xs = np.array([r[0] for r in rows])
    theta = np.array([r[1] for r in rows])
    assert np.all(np.diff(xs) > 0)
    assert np.abs(theta + theta[::-1] - 1.0).max() <= 1e-6
    for target in (Fraction(1, 6), Fraction(1, 3), Fraction(2, 3)):
        nearest = int(np.abs(xs - float(target)).argmin())
        exact = threshold_of_rational(target).theta
        assert abs(theta[nearest] - exact) <= 0.01, target


@criterion(14, "determinism across thread counts", 60.0)
def test_criterion_14_determinism():
    stochastic_commands = [
        ["walk", "--n", "300", "--trials", "100000", "--seed", "7"],
        ["walk", "--n", "200", "--trials", "100000", "--seed", "7",
         "--min-nonneg"],
        ["measure", "--eps", "0.3", "--depths", "27", "--trials", "50000",
         "--seed", "7"],
    ]
    for argv in stochastic_commands:
        outputs = {run_cli(argv + ["--threads", t]) for t in ("1", "4", "8")}
        assert len(outputs) == 1, argv
    selfsim = ["selfsim", "--n", "2", "--samples", "10", "--seed", "13"]
    assert run_cli(selfsim) == run_cli(selfsim)
