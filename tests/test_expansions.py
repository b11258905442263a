import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarfractal.expansions import (ExpansionSpec, Variant, _bits_to_int,
                                     _int_to_bits, expansion_to_real,
                                     is_dyadic, parse_rational,
                                     real_to_expansion)

rationals = st.builds(
    lambda p, q: Fraction(p % (q + 1), q),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6))


class TestRealToExpansion:
    def test_half_terminating(self):
        spec = real_to_expansion(Fraction(1, 2), Variant.TERMINATING)
        assert (spec.preamble, spec.period) == (bytes((1,)), bytes(()))

    def test_half_non_terminating(self):
        spec = real_to_expansion(Fraction(1, 2), Variant.NON_TERMINATING)
        assert (spec.preamble, spec.period) == (bytes((0,)), bytes((1,)))

    def test_two_thirds(self):
        spec = real_to_expansion(Fraction(2, 3))
        assert (spec.preamble, spec.period) == (bytes(()), bytes((1, 0)))

    def test_one_seventh(self):
        spec = real_to_expansion(Fraction(1, 7))
        assert (spec.preamble, spec.period) == (bytes(()), bytes((0, 0, 1)))

    def test_one_sixth(self):
        spec = real_to_expansion(Fraction(1, 6))
        assert (spec.preamble, spec.period) == (bytes((0,)), bytes((0, 1)))

    def test_endpoints(self):
        for variant in Variant:
            assert real_to_expansion(Fraction(0), variant) == ExpansionSpec((), ())
            assert real_to_expansion(Fraction(1), variant) == ExpansionSpec((), (1,))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            real_to_expansion(Fraction(3, 2))


class TestExpansionToReal:
    def test_known_values(self):
        assert expansion_to_real(ExpansionSpec((), (0, 1))) == Fraction(1, 3)
        assert expansion_to_real(ExpansionSpec((1,), ())) == Fraction(1, 2)
        assert expansion_to_real(ExpansionSpec((), (1, 0))) == Fraction(2, 3)
        assert expansion_to_real(ExpansionSpec((), (1,))) == 1
        assert expansion_to_real(ExpansionSpec((), ())) == 0


def _two_adic_valuation(q: int) -> int:
    a = 0
    while q % 2 == 0:
        q //= 2
        a += 1
    return a


def _assert_canonical(x: Fraction, variant: Variant) -> None:
    spec = real_to_expansion(x, variant)
    preamble, period = spec.preamble, spec.period
    k = len(period)
    # Minimal period, by brute force over the proper divisors of k.
    raw = bytes(period)
    divisors = {e for d in range(1, math.isqrt(k) + 1) if k % d == 0
                for e in (d, k // d)}
    for d in divisors - {k}:
        assert raw[:d] * (k // d) != raw, (x, variant, d)
    # An all-zero tail is the empty period.
    assert not period or any(period), (x, variant)
    if not is_dyadic(x):
        assert len(preamble) == _two_adic_valuation(x.denominator), x
    if preamble and period:
        assert preamble[-1] != period[-1], (x, variant)
    if not period:
        assert not preamble or preamble[-1] == 1, (x, variant)
    assert expansion_to_real(spec) == x, (x, variant)


def test_real_to_expansion_is_canonical():
    # Every p/q with q < 128 and 200 random q < 10^6 (about 3 s).
    xs = {Fraction(p, q) for q in range(1, 128) for p in range(q + 1)}
    rng = random.Random(4321)
    for _ in range(200):
        q = rng.randrange(1, 10**6)
        xs.add(Fraction(rng.randrange(0, q + 1), q))
    for x in sorted(xs):
        for variant in Variant:
            _assert_canonical(x, variant)


def test_hand_built_spec_keeps_its_fields():
    # A spec is a validated record: nothing is re-normalized, and
    # real_to_expansion(expansion_to_real(spec)) is its canonical form.
    spec = ExpansionSpec((), (0, 1, 0, 1))
    assert (spec.preamble, spec.period) == (bytes(()), bytes((0, 1, 0, 1)))
    assert expansion_to_real(spec) == Fraction(1, 3)
    assert real_to_expansion(expansion_to_real(spec)) == ExpansionSpec((), (0, 1))
    spec = ExpansionSpec((1, 0), (1, 0))
    assert (spec.preamble, spec.period) == (bytes((1, 0)), bytes((1, 0)))
    assert expansion_to_real(spec) == Fraction(2, 3)
    assert real_to_expansion(expansion_to_real(spec)) == ExpansionSpec((), (1, 0))


def test_round_trip_random_rationals():
    rng = random.Random(1234)
    for _ in range(1000):
        q = rng.randrange(1, 10**6)
        p = rng.randrange(0, q + 1)
        x = Fraction(p, q)
        for variant in Variant:
            assert expansion_to_real(real_to_expansion(x, variant)) == x


def test_long_period_memory():
    # The 2^20-bit period of 1/1048573 is built as one bytes object and
    # checked in place: about 2 MiB of tracemalloc peak, where a tuple of
    # its bits and the copies around it took 17 MiB.
    tracemalloc.start()
    try:
        spec = real_to_expansion(Fraction(1, 1048573))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spec.period) == 1048572
    assert peak < 6 << 20


@given(rationals)
def test_round_trip_property(x):
    assert expansion_to_real(real_to_expansion(x)) == x


def flip(bits):
    return tuple(1 - b for b in bits)


@given(rationals)
def test_complement_is_one_minus_x(x):
    # Flipping every digit, the all-zero tail of a terminating form
    # included, represents 1 - x.
    spec = real_to_expansion(x)
    flipped = ExpansionSpec(flip(spec.preamble), flip(spec.period) or (1,))
    assert expansion_to_real(flipped) == 1 - x


def test_dyadic_forms_complement_each_other():
    # Flipping the digits of one dyadic expansion yields the other form of
    # the complement.
    x = Fraction(3, 8)
    term = real_to_expansion(x, Variant.TERMINATING)
    assert ExpansionSpec(flip(term.preamble), (1,)) == real_to_expansion(
        1 - x, Variant.NON_TERMINATING)


def _multiplicative_order(base: int, modulus: int) -> int:
    value, order = base % modulus, 1
    while value != 1:
        value = value * base % modulus
        order += 1
    return order


def test_period_divides_order_of_two():
    rng = random.Random(99)
    for _ in range(200):
        q = rng.randrange(3, 5000)
        p = rng.randrange(1, q)
        x = Fraction(p, q)
        if is_dyadic(x):
            continue
        odd = x.denominator
        while odd % 2 == 0:
            odd //= 2
        spec = real_to_expansion(x)
        assert _multiplicative_order(2, odd) % len(spec.period) == 0


class TestRowIndex:
    """A bit path read as a binary number, first bit most significant, is
    its Kronecker row index h = sum of b_l 2^(n-l)."""

    def test_examples(self):
        assert _bits_to_int([1, 1]) == 3
        assert _bits_to_int([]) == 0

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=20))
    def test_prepend_zero_keeps_index(self, bits):
        assert _bits_to_int([0] + bits) == _bits_to_int(bits)

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=20))
    def test_prepend_one_adds_msb(self, bits):
        assert _bits_to_int([1] + bits) == _bits_to_int(bits) + (1 << len(bits))

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_bits_round_trip(self, h):
        assert _bits_to_int(_int_to_bits(h, 16)) == h


def bit_array(bits, dtype):
    return bytes(bits) if dtype is bytes else np.array(bits, dtype=dtype)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_, bytes])
class TestNumpyBits:
    """A numpy bit array counts as its ``tolist()``, not as its raw buffer;
    ``bytes`` of 0/1 are kept as they are."""

    def test_row_index(self, dtype):
        # A terminating preamble of n bits is worth its row index over 2^n.
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1]
        spec = ExpansionSpec(bit_array(bits, dtype), ())
        assert spec.preamble == bytes(bits)
        assert expansion_to_real(spec) == Fraction(_bits_to_int(bits), 1 << 9)

    def test_hamming_weight(self, dtype):
        spec = ExpansionSpec((), bit_array([1, 0, 1, 1], dtype))
        assert sum(spec.period) == 3
        empty = bit_array([], dtype)
        assert ExpansionSpec(empty, empty) == ExpansionSpec((), ())

    def test_expansion_spec(self, dtype):
        spec = ExpansionSpec((), bit_array([1, 1], dtype))
        assert spec == ExpansionSpec((), (1, 1))
        assert all(type(b) is int for b in spec.period)
        period = bit_array([0, 1, 1], dtype)
        spec = ExpansionSpec(bit_array([1, 0], dtype), period)
        assert spec == ExpansionSpec((1, 0), (0, 1, 1))
        if dtype is bytes:  # validated in place, not copied
            assert spec.period is period
        assert expansion_to_real(spec) == Fraction(17, 28)


@pytest.mark.parametrize("bad", ["0101", "", 3, True, [1.0, 0.0], [0, 2],
                                 [1, -1], np.array([1.0, 0.0]),
                                 np.array([[1, 0]]), np.array(1),
                                 np.array([0, 2]), b"01", bytes((0, 2))])
def test_bit_validation_rejects(bad):
    with pytest.raises(ValueError):
        ExpansionSpec(bad, ())
    with pytest.raises(ValueError):
        ExpansionSpec((), bad)


class TestParsing:
    def test_fraction_and_decimal(self):
        assert parse_rational("2/3") == Fraction(2, 3)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational("1") == 1

    @pytest.mark.parametrize("bad", ["3/2", "-0.1", "abc", "1/0"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)
