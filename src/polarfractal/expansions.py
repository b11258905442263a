"""Exact bridge between rationals in [0,1] and binary expansions.

Every rational has an eventually periodic base-2 expansion; dyadic
rationals have two (terminating and non-terminating).  Everything here is
exact integer/fraction arithmetic: the heavy-set membership built on top
is discrete and drift-intolerant, so no floating point is allowed in this
module.  Bits are ``bytes`` of 0/1, which ``_as_bits`` checks uncopied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ResourceLimitError


class Variant(Enum):
    TERMINATING = "terminating"
    NON_TERMINATING = "non-terminating"


# Bounds for a non-dyadic p/q: the odd part of q (trial division tries
# under 2^20 divisors) and the period length k (2^k - 1 is built).
_MAX_ODD_DENOMINATOR = 1 << 40
_MAX_PERIOD_BITS = 1 << 20

_BITS_TO_CHARS = bytes.maketrans(bytes([0, 1]), b"01")
_CHARS_TO_BITS = bytes.maketrans(b"01", bytes([0, 1]))


def _as_bits(bits: Iterable[int]) -> bytes:
    """The 0/1 bits of an iterable as ``bytes``; numpy via ``tolist``."""
    if hasattr(bits, "tolist"):
        bits = bits.tolist()
    if isinstance(bits, (int, str)):
        raise ValueError(f"bits must be a 0/1 sequence, got {bits!r}")
    try:
        raw = bytes(bits)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bits must be a 0/1 sequence, got {bits!r}") from exc
    if raw.translate(None, b"\x00\x01"):  # a byte other than 0 or 1 is left
        raise ValueError(f"bits must be 0/1, got {bits!r}")
    return raw


@dataclass(frozen=True)
class ExpansionSpec:
    """Eventually periodic binary expansion 0.preamble[period]...

    A validated record: each field is checked to be a 0/1 sequence and
    kept as ``bytes`` of those bits, with no other change.  An empty period
    means an all-zero tail.  The canonical form of a rational comes from
    ``real_to_expansion``; a hand-built spec need not be canonical, and
    ``real_to_expansion(expansion_to_real(spec))`` gives its canonical
    form.
    """

    preamble: bytes
    period: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "preamble", _as_bits(self.preamble))
        object.__setattr__(self, "period", _as_bits(self.period))


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an exact decimal literal into a Fraction in [0,1]."""
    try:
        x = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational from {text!r}") from exc
    if not 0 <= x <= 1:
        raise ValueError(f"rational must lie in [0, 1], got {x}")
    return x


def is_dyadic(x: Fraction) -> bool:
    """True iff x = p/2^n (including the endpoints 0 and 1)."""
    q = Fraction(x).denominator
    return q & (q - 1) == 0


def real_to_expansion(x: Fraction | int | str,
                      variant: Variant = Variant.TERMINATING) -> ExpansionSpec:
    """Exact binary expansion of a rational in [0,1], in canonical form.

    The canonical form has the minimal period and the shortest preamble,
    and a terminating form has no trailing zeros.  Non-dyadic rationals
    have a unique expansion and ``variant`` is ignored.  For dyadic x the
    terminating form has an empty period and the non-terminating form
    flips the last preamble bit and appends the all-ones period.  x = 0
    has empty fields and x = 1 the period 1, for either variant.
    Raises ResourceLimitError when the odd part of the denominator exceeds
    2^40 or the period exceeds 2^20 bits.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0:
        return ExpansionSpec(b"", b"")
    if x == 1:
        return ExpansionSpec(b"", b"\1")
    if is_dyadic(x):  # p/2^n with p odd: the last bit is 1
        bits = _int_to_bits(x.numerator, x.denominator.bit_length() - 1)
        if variant is Variant.TERMINATING:
            return ExpansionSpec(bits, b"")
        return ExpansionSpec(bits[:-1] + b"\0", b"\1")
    # Write q = 2^a * m with m odd: the minimal preamble has length a and
    # the minimal period length is the multiplicative order of 2 mod m
    # (gcd(r, m) = 1, and the last bits of preamble and period differ).
    # The period bits are the k-bit digits of r*(2^k - 1)/m, which avoids
    # digit-at-a-time long division for large denominators.
    p, q = x.numerator, x.denominator
    a = (q & -q).bit_length() - 1
    m = q >> a
    head, r = divmod(p, m)
    if m > _MAX_ODD_DENOMINATOR:
        raise ResourceLimitError(f"odd part {m} of the denominator exceeds 2^40")
    k = _multiplicative_order_of_two(m)
    if k > _MAX_PERIOD_BITS:
        raise ResourceLimitError(f"period of {k} bits exceeds 2^20 bits")
    period_value = r * ((1 << k) - 1) // m
    preamble = _int_to_bits(head, a)
    return ExpansionSpec(preamble, _int_to_bits(period_value, k))


def _int_to_bits(value: int, width: int) -> bytes:
    if width == 0:
        return b""
    return format(value, f"0{width}b").encode().translate(_CHARS_TO_BITS)


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _multiplicative_order_of_two(m: int) -> int:
    """Least k with 2^k = 1 mod m, for odd m > 1; k is found among the
    divisors of the Carmichael bound instead of by brute iteration."""
    bound = 1
    for prime, exp in _factorize(m).items():
        bound = math.lcm(bound, (prime - 1) * prime ** (exp - 1))
    divisors = [1]
    for prime, exp in _factorize(bound).items():
        divisors = [d * prime ** i for d in divisors for i in range(exp + 1)]
    return min(d for d in divisors if pow(2, d, m) == 1)


def expansion_to_real(spec: ExpansionSpec) -> Fraction:
    """Exact value of an eventually periodic expansion (geometric series)."""
    pre_len = len(spec.preamble)
    value = Fraction(_bits_to_int(spec.preamble), 1 << pre_len)
    if spec.period:
        k = len(spec.period)
        value += Fraction(_bits_to_int(spec.period), (1 << k) - 1) / (1 << pre_len)
    return value


def _bits_to_int(bits: Sequence[int]) -> int:
    if not bits:
        return 0
    return int(bytes(bits).translate(_BITS_TO_CHARS), 2)
