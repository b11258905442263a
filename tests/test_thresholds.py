import decimal
import math
import random
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from polarfractal import thresholds
from polarfractal.codes import polar_index_set
from polarfractal.errors import ResourceLimitError, TrivialPeriodError
from polarfractal.expansions import Variant, is_dyadic, real_to_expansion
from polarfractal.polarization import _apply_rows, apply_path
from polarfractal.thresholds import (period_fixed_points, threshold_curve,
                                     threshold_estimate_batch,
                                     threshold_of_rational)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def estimate(prefix, **kwargs):
    """A one-row ``threshold_estimate_batch`` call."""
    row = np.array([prefix], dtype=np.uint8)
    return float(threshold_estimate_batch(row, **kwargs)[0])


def digits(spec, n):
    """First n digits of an expansion; a terminating one goes on in 0s."""
    return list((spec.preamble + (spec.period or b"\0") * n)[:n])


def bisect_oracle(f, lo, hi, iters=200):
    """Plain bisection on a sign change, independent of the library path."""
    f_lo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0) == (f_lo < 0):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15:
            break
    return 0.5 * (lo + hi)


class TestPeriodFixedPoints:
    def test_golden_ratio_period(self):
        report = period_fixed_points([1, 0])
        assert report.interior_unique
        assert report.interior[0] == pytest.approx(GOLDEN, abs=1e-10)

    def test_one_repelling_root_on_short_periods(self):
        # Every period of 2 to 8 bits holding both bits has one interior
        # root r, and exact Fraction evaluation of p at lo and hi, at most
        # 2^-12 from r, brackets it as repelling: p(lo) < lo, p(hi) > hi.
        count = 0
        for k in range(2, 9):
            for v in range(1, (1 << k) - 1):
                period = [(v >> (k - 1 - i)) & 1 for i in range(k)]
                report = period_fixed_points(period)
                assert report.interior_unique, period
                r = Fraction(report.interior[0])
                lo = max(r - Fraction(1, 4096), r / 2)
                hi = min(r + Fraction(1, 4096), (1 + r) / 2)
                assert decimal_path(lo, period) < lo, period
                assert decimal_path(hi, period) > hi, period
                count += 1
        assert count == 494

    def test_mirrored_period(self):
        # Interior fixed point of (2z - z^2)^2 = z, located independently.
        expected = bisect_oracle(lambda z: (2 * z - z * z) ** 2 - z, 0.2, 0.5)
        report = period_fixed_points([0, 1])
        assert report.interior[0] == pytest.approx(expected, abs=1e-12)
        assert report.interior[0] == pytest.approx(0.3819660113, abs=1e-9)

    def test_period_110(self):
        # p(z) = 2 z^4 - z^8 from composing square, square, worse.
        expected = bisect_oracle(lambda z: 2 * z**4 - z**8 - z, 0.85, 0.99)
        report = period_fixed_points([1, 1, 0])
        assert report.interior_unique
        zeta = report.interior[0]
        assert 0.90 < zeta < 0.95
        assert zeta == pytest.approx(expected, abs=1e-12)

    def test_residuals_on_random_periods(self):
        rng = random.Random(5)
        for _ in range(40):
            k = rng.randrange(2, 11)
            period = [rng.randrange(2) for _ in range(k)]
            if 0 not in period or 1 not in period:
                continue
            report = period_fixed_points(period)
            for r in report.interior:
                residual = abs(apply_path(r, period) - r)
                assert residual <= 1e-10

    @pytest.mark.parametrize("x", [Fraction(6394, 30375), Fraction(1, 100003),
                                   Fraction(2, 3), Fraction(5, 7)])
    def test_long_periods_match_decimal_roots(self, x):
        # Periods of 8100, 100002, 2 and 3 bits.
        period = real_to_expansion(x).period
        report = period_fixed_points(period)
        assert report.interior_unique
        assert_root_within(period, report.interior[0], 2)

    def test_ends_that_do_not_meet_give_two_roots(self, monkeypatch):
        # Ends that stop apart, also after wide passes, are two roots,
        # each with its complement, and the threshold of a rational with
        # that period is flagged; ends 1 ulp apart are one root, the
        # upper end's.
        monkeypatch.setattr(thresholds, "_undo_ends",
                            lambda rbits, *ends: (0.3, 0.7, 0.8, 0.2))
        monkeypatch.setattr(thresholds, "_undo_wide",
                            lambda rbits, z, y: (z, y))
        report = period_fixed_points([1, 0])
        assert report.interior == (0.3, 0.8)
        assert report.complements == (0.7, 0.2)
        assert not report.interior_unique
        thresholds._threshold_cached.cache_clear()
        try:
            result = threshold_of_rational(Fraction(2, 3))
        finally:
            thresholds._threshold_cached.cache_clear()
        assert result.multiplicity_flag and result.theta == 0.8
        near = math.nextafter(0.3, 1.0)
        monkeypatch.setattr(thresholds, "_undo_ends",
                            lambda rbits, *ends: (0.3, 0.7, near, 0.7))
        assert period_fixed_points([1, 0]).interior == (near,)
        # Ends that stop apart, but whose wide passes meet, are one root.
        monkeypatch.setattr(thresholds, "_undo_ends",
                            lambda rbits, *ends: (0.3, 0.7, 0.8, 0.2))
        monkeypatch.setattr(thresholds, "_undo_wide",
                            lambda rbits, z, y: (0.5, 0.5))
        report = period_fixed_points([1, 0])
        assert report.interior == (0.5,) and report.complements == (0.5,)

    @pytest.mark.parametrize("k", [27, 54])
    def test_stalled_ends_of_weak_periods_meet(self, k):
        # 0^(k-1) 1 contracts by about 1/2 a period, and for these k its
        # binary64 ends stall 2 to 6 ulps apart around one root.
        period = [0] * (k - 1) + [1]
        report = period_fixed_points(period)
        assert report.interior_unique
        assert_root_within(period, report.interior[0], 1)

    def test_root_below_start_is_reported(self):
        # 0^499 1 has its root near 4^-499, below 1e-300, where the lower
        # end starts: it is reported, not the start.
        period = [0] * 499 + [1]
        report = period_fixed_points(period)
        assert report.interior_unique and report.interior[0] < 1e-300
        assert_root_within(period, report.interior[0], 2)

    @pytest.mark.parametrize("period", [[0] * 2000 + [1], [1] * 2000 + [0]])
    def test_root_past_binary64_raises(self, period):
        # Roots near 4^-2000 and 1 - 4^-2000: an end reaches z = 0.0 or
        # y = 0.0, which is not reported as a root.
        with pytest.raises(ResourceLimitError, match="too close to 0 or 1"):
            period_fixed_points(period)

    def test_pass_cap(self, monkeypatch):
        # 10 converges by a factor of about 1.53 a period, so its ends
        # meet only after several 32-step passes.
        monkeypatch.setattr(thresholds, "_MAX_PASSES", 3)
        with pytest.raises(ResourceLimitError, match="exceeds 3 passes"):
            period_fixed_points([1, 0])

    @pytest.mark.parametrize("bits,z,y", [
        ((0,) * 48, 1e-300, 1.0), ((1,) * 48, 1.0, 1e-300),
        ((0,) * 40, 5e-324, 1.0), ((1, 0, 0, 1) * 10, 0.3, 0.7),
        ((1, 1, 0) * 11, 0.75, 0.25), ((0, 1) * 16, 1e-200, 1.0)])
    def test_wide_steps_round_once(self, bits, z, y):
        # The exact steps, from the start's accurate coordinate, against
        # the pair steps in 120 digits: both coordinates correctly
        # rounded, also where they end subnormal or underflow.
        with decimal.localcontext() as ctx:
            ctx.prec = 120
            dz, dy = Decimal(z), Decimal(y)
            dz, dy = (dz, 1 - dz) if z <= y else (1 - dy, dy)
            for b in reversed(bits):
                if b:
                    s = dz.sqrt()
                    dz, dy = s, dy / (1 + s)
                else:
                    s = dy.sqrt()
                    dz, dy = dz / (1 + s), s
            want = (float(dz), float(dy))
        assert thresholds._undo_wide(bits[::-1], z, y) == want

    @pytest.mark.parametrize("period", [[0], [1], [0, 0], [1, 1, 1], []])
    def test_trivial_period_rejected(self, period):
        # The message spells the bits as digits, not as bytes escapes.
        text = "".join(map(str, period))
        with pytest.raises(TrivialPeriodError, match=f"^period '{text}' "):
            period_fixed_points(period)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_])
    def test_numpy_period(self, dtype):
        period = (1, 1, 0, 1, 0)
        got = period_fixed_points(np.array(period, dtype=dtype))
        assert got == period_fixed_points(period)

    @pytest.mark.parametrize("bad", ["0101", [1.0, 0.0], np.array([1.0, 0.0]),
                                     [1, 0, 2], b"01"])
    def test_bad_bits_rejected(self, bad):
        with pytest.raises(ValueError):
            period_fixed_points(bad)


class TestThresholdOfRational:
    def test_golden_ratio(self):
        result = threshold_of_rational(Fraction(2, 3))
        assert result.theta == pytest.approx(GOLDEN, abs=1e-10)
        assert result.certainty == "exact-bec"
        assert not result.multiplicity_flag

    def test_paper_triple(self):
        t16 = threshold_of_rational(Fraction(1, 6)).theta
        t13 = threshold_of_rational(Fraction(1, 3)).theta
        t23 = threshold_of_rational(Fraction(2, 3)).theta
        assert t16 == pytest.approx(0.214, abs=1e-3)
        assert t13 == pytest.approx(0.382, abs=1e-3)
        assert t23 == pytest.approx(0.618, abs=1e-3)
        assert t16 < t13 < t23

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(3, 4),
                                   Fraction(5, 8), Fraction(0), Fraction(1),
                                   Fraction(11, 1024)])
    def test_dyadic_threshold_is_one(self, x):
        assert threshold_of_rational(x).theta == 1.0

    def test_preamble_pullback(self):
        # theta(1/6) solves g0(eps) = zeta with zeta the interior point of
        # the 01-period map; invert by hand: eps = 1 - sqrt(1 - zeta).
        zeta = period_fixed_points([0, 1]).interior[0]
        expected = 1.0 - math.sqrt(1.0 - zeta)
        assert threshold_of_rational(Fraction(1, 6)).theta == pytest.approx(
            expected, abs=1e-12)

    @pytest.mark.parametrize("x", [Fraction(1, 1022), Fraction(1, 478)])
    def test_small_preamble_threshold(self, x):
        # The 50-digit root of the period map, pulled back through the
        # preamble map by 50-digit bisection: theta is below 1e-2 here,
        # so an absolute bisection width in binary64 loses its low digits.
        spec = real_to_expansion(x)
        want = decimal_preimage(spec.preamble, decimal_root(spec.period))
        theta = threshold_of_rational(x).theta
        assert abs(Decimal(theta) - want) <= 2 * Decimal(math.ulp(theta))

    @pytest.mark.parametrize("x", [Fraction(1, 1022), Fraction(385, 1314)])
    def test_preamble_rounds_once(self, x):
        # The preamble is undone in the wide run that ends the root, not
        # from the rounded root, so theta is correctly rounded: within 0.5
        # ulp of the 60-digit root pulled back in 60 digits (a second
        # rounding put these two 0.93 and 0.91 ulp off).
        spec = real_to_expansion(x)
        assert spec.preamble
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            want = decimal_bisect(spec.period, Decimal(0), Decimal(1), 200)
            for b in reversed(spec.preamble):
                want = want.sqrt() if b else 1 - (1 - want).sqrt()
        theta = threshold_of_rational(x).theta
        assert abs(Decimal(theta) - want) <= Decimal(math.ulp(theta)) / 2

    def test_random_preambles(self):
        # Rationals with a preamble of 1 to 11 bits: theta, against the
        # 50-digit preimage of the library's own period root, is within
        # 3 ulps per preamble bit.
        rng = random.Random(1022)
        for _ in range(200):
            k, r = rng.randrange(1, 12), rng.randrange(3, 200, 2)
            p = rng.randrange(1, r << k)
            x = Fraction(p, r << k)
            spec = real_to_expansion(x)
            if not spec.preamble or not spec.period:
                continue
            zeta = period_fixed_points(spec.period).interior[-1]
            want = decimal_preimage(spec.preamble, Decimal(zeta))
            theta = threshold_of_rational(x).theta
            tol = 3 * len(spec.preamble) * Decimal(math.ulp(float(want)))
            assert abs(Decimal(theta) - want) <= tol, x

    def test_domain_error(self):
        with pytest.raises(ValueError):
            threshold_of_rational(Fraction(7, 5))

    @pytest.mark.parametrize("a,k", [(0, 60), (0xABCDE, 24),
                                     ((1 << 40) - 3, 40), (5, 200),
                                     pytest.param(0xFFFFF << 99980, 100000,
                                                  id="1^20-0^99980")])
    def test_preamble_pulled_back_exactly(self, a, k):
        # x = (a + 1/3) / 2^k: theta is the correctly rounded pull-back of
        # the root r = (3 - sqrt 5) / 2 of the period 01 (1 - r of 10)
        # through a preamble of up to 10^5 bits, as 60-digit pair steps
        # give it.  1^20 0^99980 takes z near 2^-99980, far below
        # binary64, before 20 square roots bring it back near 0.94.
        spec = real_to_expansion(Fraction(3 * a + 1, 3 << k))
        assert len(spec.preamble) >= 20
        assert spec.period in (bytes((0, 1)), bytes((1, 0)))
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            r = (3 - Decimal(5).sqrt()) / 2
            z, y = (r, 1 - r) if spec.period == bytes((0, 1)) else (1 - r, r)
            for b in reversed(spec.preamble):
                if b:
                    s = z.sqrt()
                    z, y = s, y / (1 + s)
                else:
                    s = y.sqrt()
                    z, y = z / (1 + s), s
            want = float(z)
        assert threshold_of_rational(Fraction(3 * a + 1, 3 << k)).theta == want

    def test_long_preamble_cost(self):
        # A wide step costs the same at any scale, so a 10^5-bit preamble
        # takes about 0.2 s; theta, near 0.38 * 2^-100000, is past binary64.
        start = time.process_time()
        with pytest.raises(ResourceLimitError, match="too close to 0 or 1"):
            threshold_of_rational(Fraction(1, 3 << 100000))
        assert time.process_time() - start < 10.0

    @pytest.mark.parametrize("x", [Fraction(1, 3 << 1100),
                                   1 - Fraction(1, 3 << 1100)],
                             ids=["theta", "complement"])
    def test_pulled_back_past_binary64_raises(self, x):
        # A preamble of 1100 0s (1s) pulls the root of 01 (10) to near
        # 0.38 * 2^-1100 (1 minus it), below the least subnormal: theta, or
        # its complement, would be 0.0, which is not reported as a root.
        spec = real_to_expansion(x)
        with pytest.raises(ResourceLimitError, match="too close to 0 or 1"):
            period_fixed_points(spec.period, spec.preamble)
        with pytest.raises(ResourceLimitError, match="too close to 0 or 1"):
            threshold_of_rational(x)

    @pytest.mark.parametrize("k,tiny", [(1060, 3.895e-320),
                                        (60, 4.1738472492426927e-19)])
    def test_pulled_back_pair_holds_tiny_roots(self, k, tiny):
        # Near 0 theta keeps its subnormal or normal value; near 1 it rounds
        # to 1.0 while the complement keeps the same value, so neither is
        # past binary64.
        x = Fraction(1, 3 << k)
        assert threshold_of_rational(x).theta == tiny
        spec = real_to_expansion(1 - x)
        report = period_fixed_points(spec.period, spec.preamble)
        assert (report.interior, report.complements) == ((1.0,), (tiny,))
        assert threshold_of_rational(1 - x).theta == 1.0

    @pytest.mark.parametrize("k", range(9, 31))
    def test_near_one_roots(self, k):
        # x = (2^k - 1)/(2^(k+1) - 1) = 0.(0 1^k), 511/1023 at k = 9, has
        # theta near 1 - 2^-k, which takes the upper end's y to resolve:
        # within 2 ulps of its 60-digit root, and complementary to
        # theta(1 - x) up to the rounding of their sum.
        x = Fraction((1 << k) - 1, (1 << (k + 1)) - 1)
        spec = real_to_expansion(x)
        assert spec.period == bytes((0,) + (1,) * k) and not spec.preamble
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            want = decimal_bisect(spec.period, Decimal(0), Decimal(1), 200)
        theta = threshold_of_rational(x).theta
        assert abs(Decimal(theta) - want) <= 2 * Decimal(math.ulp(theta))
        assert symmetry_defect(x) <= 2.0 ** -52

    def test_long_period_memory(self):
        # The 2^20-bit period of 1/1048573 goes to the root passes as bytes,
        # repeated, sliced and reversed as bytes: about 3 MiB of tracemalloc
        # peak, where tuples of its bits took 32 MiB.
        thresholds._threshold_cached.cache_clear()
        tracemalloc.start()
        try:
            threshold_of_rational(Fraction(1, 1048573))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20

    def test_pinned_threshold_digits(self):
        # tests/test_cli.py pins the digits of theta(6394/30375), whose
        # 8100-bit period has no preamble: its root is within 0.5 ulp.
        x = Fraction(6394, 30375)
        spec = real_to_expansion(x)
        assert len(spec.period) == 8100 and not spec.preamble
        theta = threshold_of_rational(x).theta
        assert theta == 0.41864925646825829
        assert_root_within(spec.period, theta, 0.5)

    @pytest.mark.parametrize("k", range(20, 26))
    def test_top_edge_root(self, k):
        # x = 0.[1^k 0] has theta = 1 - 2^(-2k), above 1 - 1e-12: the
        # upper end must resolve it in y, and 1 - x gives the complement.
        q = (1 << (k + 1)) - 1
        x = Fraction(q - 1, q)
        theta = threshold_of_rational(x).theta
        assert theta == 1.0 - 2.0 ** (-2 * k)
        assert apply_path(theta, [1] * k + [0]) == theta
        assert theta + threshold_of_rational(1 - x).theta == 1.0

    @pytest.mark.parametrize("k", [20, 25, 30, 40])
    def test_small_period_roots(self, k):
        # x = 1/(2^k - 1) repeats 0^(k-1) 1, whose root is about 4^(1-k):
        # halving z from 1/2 while p(z) > z finds its binade, and a linear
        # bisection in 60 digits its digits.  The root is far below 1e-15,
        # so only a relative stop keeps its digits.
        x = Fraction(1, (1 << k) - 1)
        bits = (0,) * (k - 1) + (1,)
        assert real_to_expansion(x).period == bytes(bits)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            hi = Decimal(1) / 2
            while decimal_path(hi / 2, bits) > hi / 2:
                hi /= 2
            want = decimal_bisect(bits, hi / 2, hi, 200)
        theta = threshold_of_rational(x).theta
        assert abs(Decimal(theta) - want) <= 4 * Decimal(math.ulp(theta))

    def test_long_period_small_root(self):
        # 2/5561 has a 2706-bit period and theta near 8.2e-4.  Its 60-digit
        # root is bisected from a bracket 2^-30 relative either side of
        # theta, whose two ends are checked in decimal first.
        x = Fraction(2, 5561)
        bits = real_to_expansion(x).period
        theta = threshold_of_rational(x).theta
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            lo = Decimal(theta) * (1 - Decimal(2) ** -30)
            hi = Decimal(theta) * (1 + Decimal(2) ** -30)
            assert decimal_path(lo, bits) < lo and decimal_path(hi, bits) > hi
            want = decimal_bisect(bits, lo, hi, 100)
        assert abs(Decimal(theta) - want) <= 4 * Decimal(math.ulp(theta))


def symmetry_defect(x):
    """|theta(x) + theta(1 - x) - 1|, zero for every non-dyadic x."""
    return abs(threshold_of_rational(x).theta
               + threshold_of_rational(1 - x).theta - 1.0)


class TestSymmetry:
    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(1, 5),
                                   Fraction(2, 5), Fraction(3, 7)])
    def test_defect_small(self, x):
        assert symmetry_defect(x) <= 1e-9

    def test_dyadic_rejected(self):
        # The relation excludes dyadic x: x and 1 - x both have theta = 1.
        assert symmetry_defect(Fraction(1, 4)) == 1.0

    def test_random_corpus(self):
        rng = random.Random(31337)
        checked = 0
        while checked < 40:
            q = rng.randrange(3, 400)
            p = rng.randrange(1, q)
            x = Fraction(p, q)
            if is_dyadic(x):
                continue
            assert symmetry_defect(x) <= 1e-9, x
            checked += 1


def test_monotone_self_similarity_order():
    # Prefixing a 0 cannot raise the threshold, prefixing a 1 cannot lower it.
    rng = random.Random(4451)
    checked = 0
    while checked < 30:
        q = rng.randrange(3, 300)
        p = rng.randrange(1, q)
        x = Fraction(p, q)
        if is_dyadic(x):
            continue
        theta = threshold_of_rational(x).theta
        lower = threshold_of_rational(x / 2).theta
        upper = threshold_of_rational((1 + x) / 2).theta
        assert lower <= theta + 1e-9
        assert theta <= upper + 1e-9
        checked += 1


def test_endpoint_derivatives_vanish():
    # Finite differences with step 1e-6 at both endpoints.
    h = 1e-6
    for period in ([1, 0], [0, 1], [1, 1, 0], [0, 0, 1, 1]):
        assert apply_path(h, period) / h <= 1e-4
        assert (1.0 - apply_path(1.0 - h, period)) / h <= 1e-4


class TestThresholdEstimate:
    def test_all_ones_prefix(self):
        assert estimate([1]) == pytest.approx(1.0, abs=1e-6)

    def test_all_zeros_prefix(self):
        assert estimate([0]) == pytest.approx(0.0, abs=1e-6)

    def test_two_thirds_prefix(self):
        prefix = digits(real_to_expansion(Fraction(2, 3)), 40)
        assert estimate(prefix) == pytest.approx(GOLDEN, abs=1e-4)

    def test_estimate_matches_exact_on_corpus(self):
        # Depth-40 prefixes of 100 random rationals against the exact path.
        rng = random.Random(2024)
        prefixes, exact = [], []
        while len(prefixes) < 100:
            q = rng.randrange(3, 1001)
            p = rng.randrange(1, q)
            x = Fraction(p, q)
            if is_dyadic(x):
                continue
            prefixes.append(digits(real_to_expansion(x), 40))
            exact.append(threshold_of_rational(x).theta)
        estimates = threshold_estimate_batch(np.array(prefixes, dtype=np.uint8))
        assert np.abs(estimates - np.array(exact)).max() <= 1e-3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimate([])


def full_budget_estimate(prefixes):
    """The prefix estimator of earlier releases, with no early exit: every
    row takes all 60 halvings of [0, 1] on the sign of p(mid) - mid, with
    the ``np.where`` forward walk over every bit, in one block.  A row
    whose midpoint is a binary64 fixed point of p (pinned) keeps its
    bracket, so later halvings repeat that midpoint.  Returns the
    estimates and the mask of rows that were pinned.  Forward maps and a
    sign test: independent of the inverse passes of the library."""
    cols = prefixes.T != 0
    lo, hi = np.zeros(prefixes.shape[0]), np.ones(prefixes.shape[0])
    pinned = np.zeros(prefixes.shape[0], dtype=bool)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        v = mid
        for bit in cols:
            v = v * np.where(bit, v, 2.0 - v)
        pinned |= v == mid
        lo = np.where(v < mid, mid, lo)
        hi = np.where(v > mid, mid, hi)
    return 0.5 * (lo + hi), pinned


def unretired_estimate(prefixes, passes):
    """``passes`` passes of the pair steps of ``_undo_ends`` over every row
    from (z, y) = (1, 1e-300), written per bit on (z, y) with ``np.where``
    and with no row retired: the z each row ends at."""
    z, y = np.ones(len(prefixes)), np.full(len(prefixes), 1e-300)
    for _ in range(passes):
        for bit in prefixes.T[::-1] != 0:
            s = np.sqrt(np.where(bit, z, y))
            other = np.where(bit, y, z) / (1.0 + s)
            z, y = np.where(bit, s, other), np.where(bit, other, s)
    return z


def plot_prefixes(m, depth):
    """Cell bits of j, then the alternating tail, one row at a time."""
    rows = []
    for j in range(1 << m):
        bits = [(j >> (m - 1 - i)) & 1 for i in range(m)]
        while len(bits) < depth:
            bits.append(1 - bits[-1])
        rows.append(bits[:depth])
    return np.array(rows, dtype=np.uint8)


def hexes(values):
    # float.hex tells -0.0 from 0.0 and matches nan with nan.
    return [v.hex() for v in np.asarray(values).tolist()]


# Ulps within which an estimate lies of a 60-digit root of its prefix
# map; the worst row of threshold_curve(11, 40) is 3.34 ulps off, that of
# threshold_curve(13, 40) 3.76 (the 60 halvings were up to 28.6 off).
ROW_ULPS = 4


class TestThresholdCurve:
    def test_pinned_rows_match_full_budget(self):
        # Where a forward halving pins a midpoint that p fixes in binary64,
        # the inverse passes end within 1 ulp of that midpoint.
        m, depth = 11, 40
        want, pinned = full_budget_estimate(plot_prefixes(m, depth))
        assert pinned.any()
        curve = threshold_curve(m, depth)
        xs = [(2 * j + 1) / (1 << (m + 1)) for j in range(1 << m)]
        assert [x for x, _ in curve] == xs
        got = np.array([th for _, th in curve])
        assert (np.abs(got - want) <= np.spacing(want))[pinned].all()

    def test_pinned_scalar_matches_full_budget(self):
        # Cell 1365 of the m = 11 grid is 1010...: one bisection midpoint
        # is a binary64 fixed point of its prefix map.
        row = plot_prefixes(11, 40)[1365]
        want, pinned = full_budget_estimate(row[None, :])
        assert pinned[0]
        assert abs(estimate(row) - want[0]) <= math.ulp(want[0])
        assert_root_within(row.tolist(), estimate(row), ROW_ULPS)

    @pytest.mark.parametrize("prefix", [
        digits(real_to_expansion(Fraction(1, 9)), 24),
        digits(real_to_expansion(Fraction(5, 7)), 200),
        [1, 0] * 150, [0, 1, 1], [1, 0, 0, 0, 1, 1, 0, 1] * 40])
    def test_scalar_matches_full_budget(self, prefix):
        # One row is within 1 ulp of the 60 forward halvings on these
        # short periods, and within ROW_ULPS of the 60-digit root.
        want, _ = full_budget_estimate(np.array([prefix], dtype=np.uint8))
        theta = estimate(prefix)
        assert abs(theta - want[0]) <= math.ulp(theta)
        assert_root_within(list(prefix), theta, ROW_ULPS)

    @pytest.mark.parametrize("m,depth", [(1, 1), (3, 2), (4, 4), (5, 9), (6, 13),
                                         (11, 40), (8, 60)])
    def test_short_and_long_depths(self, m, depth):
        # Depths up to m give all-0 and all-1 rows, exactly 0.0 and 1.0;
        # every other row is within ROW_ULPS of its 60-digit root.
        curve = threshold_curve(m, depth)
        for row, (_, theta) in zip(plot_prefixes(m, depth).tolist(), curve):
            if 0 in row and 1 in row:
                assert_root_within(row, theta, ROW_ULPS)
            else:
                assert theta.hex() == float(1 in row).hex()

    @pytest.mark.parametrize("m,depth", [(11, 40), (8, 60), (12, 4096)])
    def test_complementary_rows_sum_to_one(self, m, depth):
        # Cells j and 2^m - 1 - j have complementary bits, so complementary
        # roots: each rounded pair sums to 1 within 2^-52.
        theta = np.array([th for _, th in threshold_curve(m, depth)])
        assert np.abs(theta + theta[::-1] - 1.0).max() <= 2.0 ** -52

    def test_deep_curve_memory(self):
        # The 2^12 x 4096 prefix matrix (16 MiB) is read in place, a column
        # a bit; the halvings held it as float64 step constants (128 MiB).
        tracemalloc.start()
        try:
            threshold_curve(12, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20

    def test_include_dyadics(self):
        curve = threshold_curve(3, 40, include_dyadics=True)
        assert [x for x, _ in curve] == [k / 16 for k in range(1, 16)]
        assert all(th == 1.0 for x, th in curve if (16 * x) % 2 == 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            threshold_curve(0, 40)
        with pytest.raises(ValueError):
            threshold_curve(3, 0)
        with pytest.raises(ResourceLimitError):
            threshold_curve(17, 40)

    def test_prefix_bit_budget(self, monkeypatch):
        # The check fires before the 2^m x depth prefix matrix exists.
        for m, depth in ((16, 257), (12, 4097), (1, 4097), (16, 10 ** 12)):
            with pytest.raises(ResourceLimitError, match="the cap at grid"):
                threshold_curve(m, depth)
        # Grids of fewer than 2^12 cells are charged as 2^12.
        monkeypatch.setattr(thresholds, "_MAX_PLOT_BITS", 1 << 16)
        for m, cap in ((4, 16), (12, 16), (13, 8)):
            assert len(threshold_curve(m, cap)) == 1 << m
            with pytest.raises(ResourceLimitError):
                threshold_curve(m, cap + 1)


def passes_needed(prefixes, monkeypatch):
    """The fewest passes under which the batch ends, found by raising
    ``_MAX_PASSES`` from 1 until the batch no longer raises."""
    for passes in range(1, thresholds._MAX_PASSES + 1):
        monkeypatch.setattr(thresholds, "_MAX_PASSES", passes)
        try:
            threshold_estimate_batch(prefixes)
        except ResourceLimitError:
            continue
        monkeypatch.undo()
        return passes


@pytest.mark.parametrize("m", [11, 13])
def test_retired_brackets_match_unretired_loop(m, monkeypatch):
    # A row leaves the batch once its upper end repeats, a binary64 fixed
    # point of the pass: the results equal those of 12 passes over every
    # row, written per bit on (z, y).  The last pass (the 7th at m = 11,
    # the 8th at m = 13) is that of 825 and 9 rows.
    prefixes = plot_prefixes(m, 40)
    got = threshold_estimate_batch(prefixes)
    assert hexes(got) == hexes(unretired_estimate(prefixes, 12))
    assert passes_needed(prefixes, monkeypatch) == {11: 7, 13: 8}[m]


@pytest.mark.parametrize("x", ["1/3", "1/5"])
def test_block_stops_once_no_bracket_moves(x, monkeypatch):
    # One pass of a 2000-bit prefix contracts its upper end to a binary64
    # fixed point, which the second pass repeats: the batch stops there,
    # where every further pass would undo all 2000 bits again.
    row = np.array([digits(real_to_expansion(Fraction(x)), 2000)])
    theta = threshold_estimate_batch(row)
    assert hexes(theta) == hexes(unretired_estimate(row, 4))
    assert passes_needed(row, monkeypatch) == 2
    assert_root_within(row[0].tolist(), float(theta[0]), ROW_ULPS)


@pytest.mark.parametrize("width", [1, 2, 7, 57, 200])
@pytest.mark.parametrize("seed", [0, 3, 600])
def test_signed_kernel_matches_where_loop(width, seed):
    # The signed forward kernel of the Monte Carlo paths against the
    # ``np.where`` walk of ``apply_path``'s steps: 45 random rows from
    # random starts, 0.0, 1.0 and a subnormal among them; one row is all
    # 1s and one all 0s, which saturate first.
    rng = np.random.default_rng(1000 * width + seed)
    bits = rng.integers(0, 2, size=(width, 45), dtype=np.uint8)
    bits[:, 5], bits[:, 30] = 1, 0
    z = rng.random(45)
    z[:3] = 0.0, 1.0, 5e-324
    want = z
    for bit in bits:
        want = want * np.where(bit, want, 2.0 - want)
    assert hexes(_apply_rows(z, bits)) == hexes(want)


def test_estimates_of_all_8_bit_periods():
    # One batch of every non-trivial period v of 8 bits, against the
    # exact path of v/255, whose expansion repeats those 8 bits.
    v = np.arange(1, 255)
    rows = (v[:, None] >> np.arange(7, -1, -1)) & 1
    got = threshold_estimate_batch(rows)
    exact = [threshold_of_rational(Fraction(int(k), 255)).theta for k in v]
    assert np.abs(got - exact).max() <= 1e-13


def test_rows_match_thresholds_of_all_short_periods():
    # Every non-trivial period v of k <= 12 bits as a row of k bits, one
    # batch a length, against theta(v / (2^k - 1)), whose expansion
    # repeats those bits: the binary64 upper end against the wide steps,
    # within 6 ulps (5 at worst, for 0000001001, whose run of 0 bits at a
    # small z keeps each step's relative rounding error).
    for k in range(2, 13):
        v = np.arange(1, (1 << k) - 1)
        got = threshold_estimate_batch((v[:, None] >> np.arange(k)[::-1]) & 1)
        exact = np.array([threshold_of_rational(Fraction(int(n), (1 << k) - 1))
                          .theta for n in v])
        assert (np.abs(got - exact) <= 6 * np.spacing(exact)).all(), k


def test_trivial_rows_are_exact():
    # All-0 rows give 0.0 and all-1 rows 1.0, at any width, before any
    # pass; iterated, they would take about 1075 steps to saturate.
    for width in (1, 2, 57, 4096):
        rows = np.zeros((3, width), dtype=np.uint8)
        rows[1], rows[2, 1::2] = 1, 1
        got = threshold_estimate_batch(rows)
        assert hexes(got[:2]) == hexes([0.0, 1.0]), width
    assert threshold_estimate_batch(rows[:0]).shape == (0,)


@pytest.mark.parametrize("row", [[0] * 2000 + [1], [1] * 2000 + [0],
                                 [1] + [0] * 2000, [0] + [1] * 2000,
                                 [0] * 4095 + [1]],
                         ids=["0^2000-1", "1^2000-0", "1-0^2000", "0-1^2000",
                              "0^4095-1"])
def test_estimator_root_past_binary64_raises(row):
    # The roots that period_fixed_points rejects: a coordinate of the pair
    # reaches 0.0, where the passes stay, so the row would end at exactly
    # 0.0 or 1.0.  The 0.0 ends a pass in either coordinate of the step
    # (z or y, the one the last bit takes the root of or the other).  The
    # whole batch raises, not only the row.
    width = len(row)
    rows = np.array([row, [0] * width, [1] * width, ([1, 0] * width)[:width]])
    with pytest.raises(ResourceLimitError, match="too close to 0 or 1"):
        threshold_estimate_batch(rows)
    with pytest.raises(ResourceLimitError, match="too close to 0 or 1"):
        period_fixed_points(row)


def test_estimator_pass_cap(monkeypatch):
    # 10 converges by a factor of about 1.53 a pass, so it needs dozens.
    monkeypatch.setattr(thresholds, "_MAX_PASSES", 3)
    with pytest.raises(ResourceLimitError, match="exceeds 3 passes"):
        threshold_estimate_batch(np.array([[1, 0]]))


def decimal_path(z, bits):
    """p(z) along ``bits``, one step per bit: exact for a Fraction, in the
    current decimal context for a Decimal."""
    for b in bits:
        z = z * z if b else z * (2 - z)
    return z


def decimal_bisect(bits, lo, hi, halvings):
    """Bisection of p(z) - z on [lo, hi], below the root at lo and above
    it at hi, in the current decimal context."""
    for _ in range(halvings):
        mid = (lo + hi) / 2
        if decimal_path(mid, bits) < mid:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def assert_root_within(bits, root, ulps):
    """A root of p(z) = z lies within ``ulps`` ulps of ``root``: in 60
    digits, p(z) < z at root - ulps ulps and p(z) > z at root + ulps ulps,
    the signs on either side of a repelling root."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        step = Decimal(ulps) * Decimal(math.ulp(root))
        lo, hi = Decimal(root) - step, Decimal(root) + step
        assert decimal_path(lo, bits) < lo, (root, ulps)
        assert decimal_path(hi, bits) > hi, (root, ulps)


def decimal_root(bits, halvings=170):
    """The interior root of p(z) = z for a period with one, bisected on
    [0, 1] in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return decimal_bisect(bits, Decimal(0), Decimal(1), halvings)


def decimal_preimage(preamble, zeta, halvings=170):
    """eps with p_preamble(eps) = zeta, bisected in 50-digit decimal
    arithmetic; p_preamble is increasing on [0, 1]."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        lo, hi = Decimal(0), Decimal(1)
        for _ in range(halvings):
            mid = (lo + hi) / 2
            v = mid
            for b in preamble:
                v = v * v if b else v * (2 - v)
            if v < zeta:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def test_estimates_match_decimal_roots():
    # 300 random 10-bit periods with one sign change of p(z) - z on a
    # 4096-step grid; the worst is 5.1e-15, at theta near 0.84.
    rng = np.random.default_rng(1510)
    grid = np.linspace(0.0, 1.0, (1 << 12) + 1)[1:-1]
    rows = []
    while len(rows) < 300:
        bits = rng.integers(0, 2, 10)
        v = grid
        for b in bits:
            v = v * v if b else v * (2.0 - v)
        if np.count_nonzero(np.diff(np.sign(v - grid))) == 1:
            rows.append(bits)
    got = threshold_estimate_batch(np.array(rows))
    for row, theta in zip(rows, got.tolist()):
        assert abs(Decimal(theta) - decimal_root(row)) <= Decimal("1e-13"), row


class TestEstimatorInput:
    @pytest.mark.parametrize("bad", [[[0.7, 1.3]], [[2, 1]], [[-1, 0]],
                                      [[0.0, 1.0]], [["0", "1"]], [0, 1]])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            threshold_estimate_batch(np.array(bad))

    def test_bool_and_int_rows_accepted(self):
        rows = plot_prefixes(3, 12)
        want = threshold_estimate_batch(rows)
        for same in (rows.astype(bool), rows.astype(np.int64), rows.tolist()):
            assert hexes(threshold_estimate_batch(same)) == hexes(want)

    def test_prefix_bit_budget(self):
        # One row is charged as a full block: 2^24 bits / 2^12 rows.
        with pytest.raises(ResourceLimitError, match="exceed 4096"):
            threshold_estimate_batch(np.ones((1, 4097), dtype=np.uint8))
        # The cap is checked before the 0/1 check allocates its temporaries.
        row = np.ones((1, 1 << 22), dtype=np.uint8)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                threshold_estimate_batch(row)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        # An all-1 row saturates at 0.0 within 16 bits of every midpoint.
        assert estimate([1] * 4096) == pytest.approx(1.0, abs=1e-6)


def polarized(x, eps, variant=Variant.TERMINATING):
    """Where BEC(eps) ends along the first 2000 digits of x: "good" near
    0, "bad" near 1, None in between."""
    z = apply_path(eps, digits(real_to_expansion(x, variant), 2000))
    return "good" if z < 1e-9 else "bad" if z > 1.0 - 1e-9 else None


class TestClassification:
    """The channel indexed by x on BEC(eps) polarizes to good below
    theta(x) and to bad above it."""

    def test_good(self):
        assert polarized(Fraction(2, 3), 0.5) == "good"

    def test_bad(self):
        assert polarized(Fraction(1, 3), 0.5) == "bad"

    def test_non_polarized_at_fixed_point(self):
        # theta is fixed by one period; 1e-6 to either side it polarizes.
        theta = threshold_of_rational(Fraction(2, 3)).theta
        assert abs(apply_path(theta, (1, 0)) - theta) <= 1e-15
        assert polarized(Fraction(2, 3), theta - 1e-6) == "good"
        assert polarized(Fraction(2, 3), theta + 1e-6) == "bad"

    def test_dyadic_is_both(self):
        # theta = 1, yet the two expansions of 1/2 polarize opposite ways.
        assert threshold_of_rational(Fraction(1, 2)).theta == 1.0
        for eps in (0.1, 0.5, 0.99):
            assert polarized(Fraction(1, 2), eps) == "bad"
            assert polarized(Fraction(1, 2), eps,
                             Variant.NON_TERMINATING) == "good"

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_eps_domain(self, eps):
        # The polar construction takes BEC(eps) only for eps in (0, 1).
        with pytest.raises(ValueError):
            polar_index_set(eps, 3, 1)


def doubling_period(x):
    """Period of the binary expansion of a purely periodic x, read off the
    doubling map until the orbit returns to x."""
    r, bits = x, []
    while True:
        r *= 2
        bits.append(int(r >= 1))
        r -= bits[-1]
        if r == x:
            return bits


def exact_gap_sign(z, bits):
    """The sign of p(z) - z, exactly: z = a / c runs as the integer pair
    (a, c), bit 1 to (a^2, c^2) and bit 0 to (a (2c - a), c^2), with no
    gcd taken, and p(z) = a / c is set against z by cross-multiplication."""
    a, c = z.numerator, z.denominator
    for b in bits:
        a, c = a * a if b else a * (2 * c - a), c * c
    left, right = a * z.denominator, z.numerator * c
    return (left > right) - (left < right)


def test_thresholds_agree_with_independent_oracles():
    # Odd q gives a purely periodic expansion; every third denominator is
    # drawn from those whose period fits the exact check.
    odd = range(3, 400, 2)
    exact_sized = [q for q in odd if len(doubling_period(Fraction(1, q))) <= 12]
    rng = random.Random(1506052)
    xs = []
    while len(xs) < 40:
        q = rng.choice(odd if len(xs) % 3 else exact_sized)
        x = Fraction(rng.randrange(1, q), q)
        if x.denominator > 1:
            xs.append(x)
    short = 0
    for x in xs:
        period = doubling_period(x)
        theta = threshold_of_rational(x).theta
        assert abs(theta - estimate(period)) <= 1e-13, x
        if len(period) <= 12:
            short += 1
            below = exact_gap_sign(Fraction(theta) - Fraction(1, 10**9),
                                   period)
            above = exact_gap_sign(Fraction(theta) + Fraction(1, 10**9),
                                   period)
            assert below * above < 0, x
    assert short >= 14
