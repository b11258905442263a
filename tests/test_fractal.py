import functools
import itertools
import math
import random
import threading
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarfractal import fractal
from polarfractal.codes import heavy_membership
from polarfractal.errors import ResourceLimitError
from polarfractal.expansions import is_dyadic
from polarfractal.polarization import _apply_rows, bec_leaf_values
from polarfractal.thresholds import threshold_of_rational


def theta(x):
    return threshold_of_rational(x).theta


def heavy(rho):
    return functools.partial(heavy_membership, rho=rho)


class TestMeasureScan:
    def test_depth_zero_all_unresolved(self):
        est, = fractal.measure_scan(0.4, [0], delta=1e-3)
        assert est.fraction_unresolved == 1.0

    def test_fractions_sum_to_one(self):
        for est in fractal.measure_scan(0.5, [4, 10, 14], delta=1e-3):
            total = est.fraction_good + est.fraction_bad + est.fraction_unresolved
            assert total == pytest.approx(1.0, abs=1e-15)

    def test_eps_half_symmetric(self):
        est, = fractal.measure_scan(0.5, [12], delta=1e-3)
        assert est.fraction_good == est.fraction_bad

    def test_small_eps_mostly_good(self):
        est, = fractal.measure_scan(0.01, [16], delta=1e-3)
        assert est.fraction_good > 0.9

    def test_good_fraction_grows_with_depth(self):
        ests = fractal.measure_scan(0.5, [10, 16, 20], delta=1e-3)
        goods = [e.fraction_good for e in ests]
        assert goods == sorted(goods)

    def test_exact_depths_match_leaf_values(self):
        # One pass serves every depth, in the order asked, repeats too.
        eps, delta, depths = 0.3, 1e-3, [12, 0, 3, 12, 18, 7]
        for est, n in zip(fractal.measure_scan(eps, depths, delta), depths):
            z = bec_leaf_values(eps, n)
            good, bad = int((z <= delta).sum()), int((z >= 1.0 - delta).sum())
            assert est.depth == n
            assert (est.fraction_good, est.fraction_bad) == \
                (good / z.size, bad / z.size)
            assert est.fraction_unresolved == (z.size - good - bad) / z.size

    def test_deep_scan_requires_trials(self):
        with pytest.raises(ResourceLimitError):
            fractal.measure_scan(0.5, [26], delta=1e-3)

    def test_bad_depth_raises_before_the_draw(self, monkeypatch):
        def drew(key):
            pytest.fail("paths were drawn before every depth was checked")

        monkeypatch.setattr(np.random, "Philox", drew)
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            fractal.measure_scan(0.3, [40, -1], mc_trials=3_000_000, seed=1)

    def test_bad_depth_raises_before_the_exact_pass(self, monkeypatch):
        def counted(*args):
            pytest.fail("leaves were computed before every depth was checked")

        monkeypatch.setattr(fractal, "bec_leaf_counts", counted)
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            fractal.measure_scan(0.5, [24, -1], 1e-300)

    def test_monte_carlo_counts_match_exact_fractions(self, monkeypatch):
        # Sampled at enumerable depths against the exact leaf fractions,
        # each count within 5 binomial sigma.
        eps, depths, delta, trials = 0.3, [10, 16, 20], 1e-3, 200_000
        exact = fractal.measure_scan(eps, depths, delta)
        monkeypatch.setattr(fractal, "MAX_LEAF_LIST_DEPTH", 0)
        sampled = fractal.measure_scan(eps, depths, delta, mc_trials=trials,
                                       seed=41)
        for got, want in zip(sampled, exact):
            for g, p in ((got.fraction_good, want.fraction_good),
                         (got.fraction_bad, want.fraction_bad)):
                sigma = math.sqrt(trials * p * (1 - p))
                assert abs(g * trials - p * trials) <= 5 * sigma

    def test_deep_depths_share_one_pass(self):
        scan = fractal.measure_scan(0.3, [40, 26, 10, 40, 30], mc_trials=20000,
                                    seed=9, threads=2)
        assert [e.depth for e in scan] == [40, 26, 10, 40, 30]
        assert scan[0] == scan[3]
        alone = fractal.measure_scan(0.3, [40], mc_trials=20000, seed=9)
        assert alone[0] == scan[0]

    def test_monte_carlo_deterministic(self):
        a = fractal.measure_scan(0.5, [30], mc_trials=20000, seed=9)
        b = fractal.measure_scan(0.5, [30], mc_trials=20000, seed=9)
        c = fractal.measure_scan(0.5, [30], mc_trials=20000, seed=9, threads=4)
        assert a == b == c


class TestCellGeometry:
    def test_bounds(self):
        assert fractal.cell_bounds(2, 1) == (0, Fraction(1, 4))
        assert fractal.cell_bounds(2, 4) == (Fraction(3, 4), 1)

    def test_index(self):
        # cell_shift_pair accepts x only in the closed cell k that holds it.
        fractal.cell_shift_pair(Fraction(1, 3), 1, 1)
        fractal.cell_shift_pair(Fraction(2, 3), 1, 2)
        fractal.cell_shift_pair(Fraction(1), 3, 8)
        with pytest.raises(ValueError):
            fractal.cell_shift_pair(Fraction(2, 3), 1, 1)

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=999),
           st.integers(min_value=1, max_value=1000))
    def test_affine_identity(self, n, k, p, q):
        k = 1 + (k - 1) % (1 << n)
        lo, hi = fractal.cell_bounds(n, k)
        x = lo + (hi - lo) * Fraction(p % (q + 1), q)
        left, right = fractal.cell_shift_pair(x, n, k)
        # The 1-insertion satisfies 2 f(b 1 a) - k 2^-n = f(b a) exactly,
        # and the 0-insertion mirrors it at the left endpoint.
        assert 2 * right - hi == x
        assert 2 * left - lo == x


class TestSelfSimThreshold:
    def test_paper_cell_example(self):
        # Inserting a bit at the front of 1/3 gives 1/6 and 2/3.
        left, right = fractal.cell_shift_pair(Fraction(1, 3), 0, 1)
        assert (left, right) == (Fraction(1, 6), Fraction(2, 3))
        assert fractal.selfsim_check([Fraction(1, 3)], 0, 1, theta) == []

    def test_random_corpus_no_violations(self):
        rng = random.Random(606)
        for n in (1, 2):
            for k in range(1, (1 << n) + 1):
                lo, hi = fractal.cell_bounds(n, k)
                samples = []
                while len(samples) < 8:
                    x = Fraction(rng.randrange(1, 200), rng.randrange(3, 200))
                    if is_dyadic(x) or not lo < x < hi:
                        continue
                    samples.append(x)
                assert fractal.selfsim_check(samples, n, k, theta) == []

    def test_rejects_dyadic_sample(self):
        for key in (theta, heavy(Fraction(1, 2))):
            with pytest.raises(ValueError, match="non-dyadic"):
                fractal.selfsim_check([Fraction(1, 4)], 1, 1, key)

    def test_violation_record(self):
        # A key that falls along the cell breaks the order at every sample.
        assert fractal.selfsim_check([Fraction(1, 3)], 0, 1, lambda x: -x) == [
            fractal.SelfsimViolation(Fraction(1, 3), 0, 1, Fraction(-1, 6),
                                     Fraction(-1, 3), Fraction(-2, 3),
                                     Fraction(1, 3))]

    def test_defect_slack(self):
        # Key values at 0-shift, x and 1-shift: 1/6, 1/3 and 2/3.
        x = Fraction(1, 3)
        step = {Fraction(1, 6): 0.5 + 1e-9, x: 0.5, Fraction(2, 3): 0.5}
        assert fractal.selfsim_check([x], 0, 1, step.get) == []
        step[Fraction(1, 6)] = 0.5 + 2e-9
        violation, = fractal.selfsim_check([x], 0, 1, step.get)
        assert violation.defect == pytest.approx(2e-9)


class TestSelfSimHeavy:
    def test_two_thirds_chain(self):
        # Inserting 1 into 2/3's expansion gives 5/6, which stays heavy.
        left, right = fractal.cell_shift_pair(Fraction(2, 3), 1, 2)
        assert right == Fraction(5, 6)
        assert heavy_membership(Fraction(5, 6), Fraction(1, 2))
        assert fractal.selfsim_check([Fraction(2, 3)], 1, 2,
                                     heavy(Fraction(1, 2))) == []

    def test_one_third_vacuous(self):
        left, _ = fractal.cell_shift_pair(Fraction(1, 3), 1, 1)
        assert left == Fraction(1, 6)
        assert not heavy_membership(Fraction(1, 6), Fraction(1, 2))
        assert fractal.selfsim_check([Fraction(1, 3)], 1, 1,
                                     heavy(Fraction(1, 2))) == []

    def test_rho_zero_trivial(self):
        samples = [Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)]
        assert fractal.selfsim_check(samples, 1, 1, heavy(Fraction(0))) == []

    def test_membership_violation_record(self):
        # Bools subtract as 0 and 1: x and its 0-shift are members, the
        # 1-shift is not, so the defect is 1.
        below_half = lambda x: x < Fraction(1, 2)  # noqa: E731
        assert fractal.selfsim_check([Fraction(1, 3)], 0, 1, below_half) == [
            fractal.SelfsimViolation(Fraction(1, 3), 0, 1, True, True, False,
                                     1)]

    def test_random_corpus(self):
        rng = random.Random(19)
        for rho in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for k in (1, 2):
                lo, hi = fractal.cell_bounds(1, k)
                samples = []
                while len(samples) < 20:
                    x = Fraction(rng.randrange(1, 500), rng.randrange(3, 500))
                    if is_dyadic(x) or not lo < x < hi:
                        continue
                    samples.append(x)
                assert fractal.selfsim_check(samples, 1, k, heavy(rho)) == []


class TestEntropyCount:
    def test_matches_exact_bigint_sum(self):
        # Independent oracle: exact binomial tail via integers.
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randrange(5, 120)
            rho = Fraction(rng.randrange(0, 101), 100)
            tail = sum(math.comb(n, j) for j in range(math.ceil(rho * n), n + 1))
            want = math.log2(tail) / n
            assert fractal.entropy_count(n, rho) == pytest.approx(want, abs=1e-9)

    def test_rho_half_tends_to_one(self):
        value = fractal.entropy_count(1000, Fraction(1, 2))
        assert value > 0.99
        assert value <= 1.0

    def test_rho_one_single_string(self):
        assert fractal.entropy_count(1000, 1) == 0.0

    def test_convergence_to_binary_entropy(self):
        assert fractal.entropy_count(1000, Fraction(7, 10)) == pytest.approx(
            0.8813, abs=0.02)

    def test_large_n(self):
        got = fractal.entropy_count(10**6, Fraction(3, 4))
        assert got == pytest.approx(fractal.binary_entropy(0.75), abs=1e-3)

    def test_horizon_cap(self):
        """At the cap, rho = 0 sums all n + 1 terms in about 40 MiB; past
        it, the check fires before any array is made."""
        n = fractal._MAX_ENTROPY_N
        tracemalloc.start()
        try:
            got = fractal.entropy_count(n, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(1.0, abs=1e-12)
        assert peak < 48 << 20
        for too_far in (n + 1, 10**11):
            with pytest.raises(ResourceLimitError):
                fractal.entropy_count(too_far, 0)


def test_binary_entropy_values():
    assert fractal.binary_entropy(0.5) == 1.0
    assert fractal.binary_entropy(0.0) == 0.0
    assert fractal.binary_entropy(1.0) == 0.0
    assert fractal.binary_entropy(0.7) == pytest.approx(0.8812908992306927)


def brute_force_crossings(horizon):
    counts = {}
    for bits in itertools.product((0, 1), repeat=horizon):
        s = sign = crossings = 0
        for b in bits:
            s += 2 * b - 1
            if s != 0:
                current = 1 if s > 0 else -1
                if sign != 0 and current != sign:
                    crossings += 1
                sign = current
        counts[crossings] = counts.get(crossings, 0) + 1
    return counts


def cellwise_crossing_counts(horizon):
    """The crossing dynamic program stepped one walk value at a time."""
    rmax = horizon // 2 + 1
    size = 2 * horizon + 1
    state = np.zeros((size, 2, rmax + 1), dtype=np.int64)
    state[horizon + 1, 1, 0] = 1
    state[horizon - 1, 0, 0] = 1
    for _ in range(1, horizon):
        nxt = np.zeros_like(state)
        for i in range(size):
            cell = state[i]
            for j in (i - 1, i + 1):
                if not 0 <= j < size:
                    continue
                if j == horizon:
                    nxt[j] += cell
                else:
                    sgn = 1 if j > horizon else 0
                    nxt[j, sgn, :] += cell[sgn]
                    nxt[j, sgn, 1:] += cell[1 - sgn, :-1]
        state = nxt
    totals = state.sum(axis=(0, 1))
    return {r: int(c) for r, c in enumerate(totals) if c}


class TestWalkDistribution:
    @pytest.mark.parametrize("horizon", [1, 2, 3, 8, 13])
    def test_exhaustive_matches_brute_force(self, horizon):
        stats = fractal.walk_distribution(horizon)
        assert stats.counts_by_crossings == brute_force_crossings(horizon)
        assert stats.total == 1 << horizon

    def test_exhaustive_matches_cellwise_program(self):
        for horizon in range(1, 26):
            assert (fractal._exact_crossing_counts(horizon)
                    == cellwise_crossing_counts(horizon)), horizon

    def test_probabilities_exact(self):
        stats = fractal.walk_distribution(7)
        assert sum(stats.probability(r) for r in range(4)) == 1
        assert (1 << 7) % stats.probability(0).denominator == 0

    def test_exhaustive_at_the_horizon_cap_matches_closed_form(self):
        stats = fractal.walk_distribution(65)
        assert stats.total == sum(stats.counts_by_crossings.values()) == 1 << 65
        assert all(stats.probability(r)
                   == fractal.crossing_count_closed_form(65, r)
                   for r in range(34))

    def test_exhaustive_horizon_cap(self):
        with pytest.raises(ResourceLimitError):
            fractal.walk_distribution(66)

    def test_monte_carlo_needs_seed(self):
        with pytest.raises(ValueError):
            fractal.walk_distribution(10, trials=100)

    def test_monte_carlo_reproducible_across_threads(self):
        a = fractal.walk_distribution(50, trials=30000, seed=3)
        b = fractal.walk_distribution(50, trials=30000, seed=3, threads=4)
        assert a.counts_by_crossings == b.counts_by_crossings

    def test_monte_carlo_matches_closed_form_at_301(self):
        # The benchmark oracle's rule: rows with at least 25 expected walks
        # within 5 sigma, the sparse rows pooled within 5 sigma + 3.
        n, trials = 301, 200_000
        m = (n - 1) // 2
        stats = fractal.walk_distribution(n, trials=trials, seed=43)
        assert sum(stats.counts_by_crossings.values()) == trials
        pooled_count = pooled_mean = 0.0
        for r in range(m + 1):
            p = float(fractal.crossing_count_closed_form(n, r))
            mean, got = trials * p, stats.counts_by_crossings.get(r, 0)
            if mean >= 25:
                assert abs(got - mean) <= 5 * math.sqrt(mean * (1 - p))
            else:
                pooled_count += got
                pooled_mean += mean
        assert abs(pooled_count - pooled_mean) <= 5 * math.sqrt(pooled_mean) + 3

    def test_monte_carlo_tracks_exact(self):
        stats = fractal.walk_distribution(15, trials=200000, seed=17)
        exact = fractal.walk_distribution(15)
        for r in range(3):
            got = stats.counts_by_crossings.get(r, 0) / stats.total
            want = float(exact.probability(r))
            assert got == pytest.approx(want, abs=0.01)


class TestFellerIdentity:
    @pytest.mark.parametrize("m", [1, 3, 6, 9])
    def test_zero_defect(self, m):
        for row in fractal.feller_identity_table(m):
            assert row.defect == 0

    def test_closed_form_normalizes(self):
        for m in (2, 5, 8):
            total = sum(fractal.crossing_count_closed_form(2 * m + 1, r)
                        for r in range(m + 1))
            assert total == 1

    @pytest.mark.parametrize("m", [1, 4, 8, 12])
    def test_bound_dominates_cdf(self, m):
        for row in fractal.feller_identity_table(m):
            assert row.bound >= float(row.cumulative)

    def test_closed_form_requires_odd(self):
        with pytest.raises(ValueError):
            fractal.crossing_count_closed_form(4, 0)


class TestMinNonnegative:
    def test_matches_ballot_closed_form(self):
        # P(S_m >= 0 for all m <= n) = C(n, n/2) 2^-n at even n.
        n, trials = 100, 400000
        exact = math.comb(n, n // 2) / 2.0**n
        got = fractal.walk_min_nonnegative_fraction(n, trials, seed=23)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(got - exact) <= 5 * sigma

    def test_matches_ballot_closed_form_past_many_blocks(self):
        # n = 1000 runs the byte walk through 125 bytes and 16 drops.
        n, trials = 1000, 200000
        exact = math.comb(n, n // 2) / 2.0**n
        got = fractal.walk_min_nonnegative_fraction(n, trials, seed=47)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(got - exact) <= 5 * sigma

    def test_deterministic(self):
        a = fractal.walk_min_nonnegative_fraction(64, 50000, seed=5)
        b = fractal.walk_min_nonnegative_fraction(64, 50000, seed=5, threads=8)
        assert a == b

    def test_decays_with_horizon(self):
        f100 = fractal.walk_min_nonnegative_fraction(100, 100000, seed=1)
        f400 = fractal.walk_min_nonnegative_fraction(400, 100000, seed=1)
        assert f400 < f100


# Horizons around the byte and 64-step block edges of the packed folds.
HORIZONS = [1, 2, 3, 7, 63, 64, 65, 130, 301]


def packed_rows(seed, rows, n):
    """Random packed paths, the first six rows fixed patterns: all down,
    all up, up-down, down-up, and two that return to 0 every 4 steps."""
    packed = np.random.default_rng(seed).integers(
        0, 256, size=(rows, -(-n // 8)), dtype=np.uint8)
    for i, byte in enumerate((0x00, 0xFF, 0xAA, 0x55, 0x99, 0x66)):
        packed[i] = byte
    return packed


def balanced_paths(seed, rows, n, eps):
    """Packed paths whose z never saturates, so every step shows: three
    random steps, then the worse step (bit 1) exactly when z > 1/2, which
    keeps z inside [1/4, 3/4]."""
    bits = np.zeros((rows, n), dtype=np.uint8)
    bits[:, :3] = np.random.default_rng(seed).integers(0, 2, size=(rows, 3))[:, :n]
    z = np.full(rows, eps)
    for t in range(n):
        if t >= 3:
            bits[:, t] = z > 0.5
        z = np.where(bits[:, t] == 1, z * z, z * (2.0 - z))
    return np.packbits(bits, axis=1)


def sign_fill_crossings(packed, n):
    """Crossings of each row's walk: a zero takes the sign one step
    earlier, and a crossing is a change of that filled sign."""
    steps = np.unpackbits(packed, axis=1, count=n).astype(np.int8) * 2 - 1
    walk = np.cumsum(steps, axis=1, dtype=np.int32)
    signs = np.sign(walk).astype(np.int8)
    filled = signs.copy()
    zero = filled[:, 1:] == 0
    filled[:, 1:][zero] = signs[:, :-1][zero]
    return (filled[:, 1:] != filled[:, :-1]).sum(axis=1)


class TestPackedFolds:
    @pytest.mark.parametrize("n", HORIZONS + [66, 127, 128, 129, 1000])
    def test_crossings_match_sign_fill(self, n):
        packed = packed_rows(n, 2000, n)
        want = sign_fill_crossings(packed, n)
        size = n // 2 + 2
        for row, r in zip(packed[:100], want):
            got = fractal._crossing_counts(row[None, :], n)
            assert got.tolist() == [int(k == r) for k in range(size)]
        got = fractal._crossing_counts(packed, n)
        assert got.tolist() == np.bincount(want, minlength=size).tolist()

    @pytest.mark.parametrize("n", HORIZONS + [8, 9, 1000])
    def test_never_negative_matches_running_minimum(self, n):
        packed = packed_rows(100 + n, 3000, n)
        # The same rows made to die within their first 8 bytes: row i takes
        # k = i mod 8 balanced bytes (0xAA), then a down step.
        dying = packed.copy()
        k = np.arange(len(dying)) % min(8, dying.shape[1])
        head = dying[:, :8]
        head[np.arange(head.shape[1]) < k[:, None]] = 0xAA
        dying[np.arange(len(dying)), k] &= 0x7F
        for rows in (packed, dying):
            bits = np.unpackbits(rows, axis=1, count=n).astype(np.int64)
            want = (np.cumsum(2 * bits - 1, axis=1).min(axis=1) >= 0).sum()
            assert fractal._never_negative_count(rows, n).tolist() == [want]
        assert want == 0  # no dying row survives

    @pytest.mark.parametrize("depths", [HORIZONS, [1], [7, 64], [26, 30, 40]])
    def test_shared_measure_pass_matches_per_depth_loops(self, depths):
        # From eps = 1e-300 a 1 bit underflows to 0.0, and from
        # 1 - 2^-27 a 0 bit reaches 1.0 exactly.
        saturated = set()
        for eps in (0.3, 1e-300, 1.0 - 2.0**-27):
            packed = np.vstack([
                packed_rows(len(depths), 400, depths[-1]),
                balanced_paths(len(depths), 100, depths[-1], eps)])
            rows = len(packed)
            bits = np.unpackbits(packed, axis=1, count=depths[-1])
            got = fractal._bec_leaf_samples(packed, eps, depths)
            assert len(got) == len(depths)
            for depth, z_got in zip(depths, got):
                z = np.full(rows, eps)
                for t in range(depth):
                    bit = bits[:, t] == 1
                    z = np.where(bit, z * z, z * (2.0 - z))
                assert ([v.hex() for v in z_got.tolist()]
                        == [v.hex() for v in z.tolist()])
                saturated |= {0.0, 1.0} & set(z.tolist())
        assert saturated == {0.0, 1.0}

    def test_saturated_paths_stop_at_the_next_64_steps(self, monkeypatch):
        """From eps = 1e-300 every random path is at 0.0 within 64 steps
        (a 1 bit before step 458 underflows), so the walk stops there and
        every deeper depth gets those zeros; without the stop, 300
        steps."""
        steps = []

        def counted(v, bits):
            steps.append(len(bits))
            return _apply_rows(v, bits)

        packed = packed_rows(9, 400, 300)[6:]  # no all-down row
        monkeypatch.setattr(fractal, "_apply_rows", counted)
        got = fractal._bec_leaf_samples(packed, 1e-300, [30, 70, 300])
        assert sum(steps) == 64
        assert [z.tolist() for z in got[1:]] == [[0.0] * len(packed)] * 2
        bits = np.unpackbits(packed, axis=1, count=30) == 1
        z = np.full(len(packed), 1e-300)
        for bit in bits.T:
            z = np.where(bit, z * z, z * (2.0 - z))
        assert ([v.hex() for v in got[0].tolist()]
                == [v.hex() for v in z.tolist()])


class TestChunkStream:
    @pytest.mark.parametrize("seed", [1, 5, 2**40 + 3])
    @pytest.mark.parametrize("rows,width", [(1, 1), (3, 5), (7, 13), (1000, 38)])
    def test_raw_bytes_match_generator_integers(self, seed, rows, width):
        """Chunk i holds the bytes ``Generator.integers`` draws from the
        Philox stream jumped by i, here for jumps 0, 1 and 2, the last
        chunk short; 3 x 5 and 7 x 13 bytes are not whole 64-bit words."""
        chunks = []

        def record(packed, n):
            chunks.append(packed.copy())
            return np.zeros(1)

        trials = 2 * fractal._CHUNK_TRIALS + rows
        fractal._mc_accumulate(trials, seed, 1, 8 * width - 3, record)
        full = (fractal._CHUNK_TRIALS, width)
        assert [c.shape for c in chunks] == [full, full, (rows, width)]
        for jump, got in enumerate(chunks):
            rng = np.random.Generator(np.random.Philox(key=seed).jumped(jump))
            want = rng.integers(0, 256, size=got.shape, dtype=np.uint8)
            assert np.array_equal(got, want)


class TestChunkBudget:
    def test_crossing_fold_stays_packed(self):
        # One 16384-path chunk of 4096 steps is 8 MiB packed; unpacked at
        # once, its steps alone would take 64 MiB.
        packed = packed_rows(4096, 1 << 14, 4096)
        tracemalloc.start()
        try:
            counts = fractal._crossing_counts(packed, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == 1 << 14
        assert peak < 16 << 20

    @pytest.mark.parametrize("fold,n", [
        (lambda packed: fractal._bec_leaf_samples(packed, 0.3, [26, 30, 40]),
         40),
        (lambda packed: fractal._crossing_counts(packed, 301), 301)],
        ids=["measure-depth-40", "crossings-301"])
    def test_fold_temporaries_are_a_few_planes(self, fold, n):
        """A fold of one 2^14-row chunk unpacks a byte (8 bit-planes of
        16 KiB) at a time and subtracts int8 step rows: with z and its
        samples it peaks under 1.5 MiB.  Unpacking 64 steps at a time and
        a float64 matrix of the 40 steps took 5.1 MiB at depth 40 and
        3.5 MiB at n = 301."""
        packed = packed_rows(n, 1 << 14, n)
        fold(packed)
        tracemalloc.start()
        try:
            fold(packed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 19

    def test_largest_chunk_runs_and_one_more_byte_raises(self):
        """The budget, 2^25 packed bytes, is 2^14 paths of 16384 steps."""
        rows, n = 1 << 14, 16384
        assert 0 < fractal.walk_min_nonnegative_fraction(n, rows, seed=1) < 0.02
        with pytest.raises(ResourceLimitError):
            fractal.walk_min_nonnegative_fraction(n + 1, rows, seed=1)
        # Fewer trials than one chunk make a smaller chunk.
        assert fractal.walk_min_nonnegative_fraction(n + 1, rows - 8, seed=1) > 0
        with pytest.raises(ResourceLimitError):
            fractal.walk_distribution((1 << 28) + 1, 1, seed=1)

    @pytest.mark.parametrize("call", [
        lambda: fractal.walk_distribution(8, 10**12, seed=1),
        lambda: fractal.walk_min_nonnegative_fraction(8, 10**12, seed=1),
        lambda: fractal.measure_scan(0.3, [40], mc_trials=10**12, seed=1)],
        ids=["walk", "min_nonneg", "measure"])
    def test_trials_past_chunk_cap_raise_before_any_draw(self, monkeypatch,
                                                         call):
        """10^12 trials are 61 million chunks, past the 2^14-chunk cap."""
        def drew(key):
            pytest.fail("paths were drawn past the chunk cap")

        monkeypatch.setattr(np.random, "Philox", drew)
        with pytest.raises(ResourceLimitError, match="exceed 16384 chunks"):
            call()

    def test_chunk_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(fractal, "_MAX_CHUNKS", 3)
        trials = 3 * fractal._CHUNK_TRIALS
        assert fractal.walk_min_nonnegative_fraction(8, trials, seed=1) > 0
        with pytest.raises(ResourceLimitError):
            fractal.walk_min_nonnegative_fraction(8, trials + 1, seed=1)


class TestDrawAhead:
    @pytest.mark.parametrize("threads,used", [(1, 1), (2, 2), (3, 3), (8, 5)])
    def test_calling_thread_folds_in_chunk_order(self, monkeypatch, threads,
                                                 used):
        """Five chunks on a host that reports 64 CPUs: every fold runs in
        the calling thread, gets chunk 0, 1, 2, ... (told apart by their
        first paths), and finds used - 1 chunks drawn past it, or all that
        are left, however long it waits for more."""
        monkeypatch.setattr(fractal.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(fractal.os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        seed, chunks, real = 3, 5, np.random.Philox
        drawn = []

        def philox(key):
            def jumped(i):
                stream = real(key=key).jumped(i)

                def random_raw(size):
                    raw = stream.random_raw(size)
                    drawn.append(i)
                    return raw
                return SimpleNamespace(random_raw=random_raw)
            return SimpleNamespace(jumped=jumped)

        caller, seen, ahead = threading.get_ident(), [], []

        def fold(packed, n):
            i = len(seen)
            want = real(key=seed).jumped(i).random_raw(1).astype("<u8")
            seen.append(threading.get_ident() == caller
                        and np.array_equal(packed[0], want.view(np.uint8)))
            due = min(i + used, chunks)
            deadline = time.monotonic() + 5.0
            while len(drawn) < due and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.02)  # room for a draw too many to show
            ahead.append(len(drawn) - (i + 1))
            return np.ones(1, dtype=np.int64)

        monkeypatch.setattr(np.random, "Philox", philox)
        trials = (chunks - 1) * fractal._CHUNK_TRIALS + 5
        total = fractal._mc_accumulate(trials, seed, threads, 64, fold)
        assert total.tolist() == [chunks]
        assert seen == [True] * chunks
        assert ahead == [min(used - 1, chunks - 1 - i) for i in range(chunks)]


class TestThreadCap:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Record the max_workers of every pool started, on a host that
        reports 64 CPUs unless a test says otherwise.  A run on ``used``
        threads starts a pool of used - 1 drawing threads (the calling
        thread folds), so none when it uses one."""
        sizes = []
        real = fractal.ThreadPoolExecutor

        def recorder(max_workers):
            sizes.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(fractal, "ThreadPoolExecutor", recorder)
        monkeypatch.setattr(fractal.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(fractal.os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        return sizes

    @pytest.mark.parametrize("chunks,threads,used", [(2, 10_000, 2),
                                                     (5, 8, 5), (5, 3, 3)])
    def test_capped_at_chunk_count(self, pools, chunks, threads, used):
        trials = (chunks - 1) * fractal._CHUNK_TRIALS + 1
        want = fractal.walk_min_nonnegative_fraction(30, trials, seed=2)
        assert pools == []
        got = fractal.walk_min_nonnegative_fraction(30, trials, seed=2,
                                                    threads=threads)
        assert pools == [used - 1]
        assert got == want

    @pytest.mark.parametrize("cpus,used", [({0}, []), ({0, 3}, [1])])
    def test_capped_at_cpu_affinity(self, pools, monkeypatch, cpus, used):
        """64 CPUs, of which the process may run on ``cpus``."""
        monkeypatch.setattr(fractal.os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        trials = 3 * fractal._CHUNK_TRIALS
        got = fractal.walk_distribution(21, trials=trials, seed=4, threads=8)
        assert pools == used
        assert got == fractal.walk_distribution(21, trials=trials, seed=4)

    @pytest.mark.parametrize("cpus", [1, None])
    def test_capped_at_cpu_count(self, pools, monkeypatch, cpus):
        """Where the platform has no ``sched_getaffinity``."""
        monkeypatch.delattr(fractal.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(fractal.os, "cpu_count", lambda: cpus)
        trials = 3 * fractal._CHUNK_TRIALS
        got = fractal.walk_distribution(21, trials=trials, seed=4, threads=8)
        assert pools == []
        assert got == fractal.walk_distribution(21, trials=trials, seed=4)

    def test_one_chunk_runs_inline(self, pools):
        a = fractal.measure_scan(0.3, [30], mc_trials=1000, seed=5, threads=8)
        assert pools == []
        assert a == fractal.measure_scan(0.3, [30], mc_trials=1000, seed=5)
