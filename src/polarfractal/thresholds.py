"""Polarization thresholds of rationals and bit prefixes, by inverse maps.

The recurring part of a binary expansion drives an iterated function
system z -> p_period(z) with attracting fixed points at 0 and 1.  The
interior (repelling) fixed point of that map, pulled back through the
preamble map, is the critical BEC erasure probability below which the
channel indexed by x polarizes to perfect and above which to useless.

Every root comes from inverse iteration on (z, y = 1 - z).  Thresholds
end it, preamble included, in 96-bit steps that round theta once (sampled
within 1 ulp); plot rows stay in binary64 (a few ulps).  Uniqueness is
open: ``FixedPointReport.interior`` holds one root, or both ends if they
do not meet, of which thresholds and the plot take the largest.  Costs
are linear: 0.12 s for 1/1048573, 0.08 s for the 10^5-bit preamble of
(2^100000 + 1)/(3 * 2^100000) (2-core Xeon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError, TrivialPeriodError
from .expansions import _BITS_TO_CHARS, _as_bits, is_dyadic, real_to_expansion

# Entries kept by the threshold cache (least recently used evicted first).
_THRESHOLD_CACHE_SIZE = 1 << 12

# Prefix bits (rows x bits) of one estimator call, fewer rows than 2^12
# charged as 2^12: numpy's cost per call rules a step over a few rows.
_MAX_PLOT_BITS = 1 << 24

# Wide closing steps of a root, their mantissa bits, passes of a search.
_WIDE_STEPS = 32
_WIDE_BITS = 96
_MAX_PASSES = 1 << 8
_PAST_BINARY64 = "a root too close to 0 or 1 for binary64"


@dataclass(frozen=True)
class FixedPointReport:
    interior: tuple[float, ...]
    complements: tuple[float, ...]

    @property
    def interior_unique(self) -> bool:
        return len(self.interior) == 1


@dataclass(frozen=True)
class ThresholdResult:
    x: Fraction
    theta: float
    certainty: str  # always "exact-bec"
    multiplicity_flag: bool


def _undo_ends(rbits: bytes, zl: float, yl: float, zh: float,
               yh: float) -> tuple[float, float, float, float]:
    """Undo ``rbits`` on two pairs (z, y = 1 - z) without cancellation: bit
    1 by (sqrt z, y / (1 + sqrt z)), bit 0 by (z / (1 + sqrt y), sqrt y)."""
    sqrt = math.sqrt
    for b in rbits:
        if b:
            yl, zl = yl / (1.0 + (s := sqrt(zl))), s
            yh, zh = yh / (1.0 + (s := sqrt(zh))), s
        else:
            zl, yl = zl / (1.0 + (s := sqrt(yl))), s
            zh, yh = zh / (1.0 + (s := sqrt(yh))), s
    return zl, yl, zh, yh


def _undo_wide(rbits: bytes, z: float, y: float) -> tuple[float, float]:
    """``_undo_ends`` on one pair, rounded once: the smaller of z and y is
    m / 2^e with m of ``_WIDE_BITS`` bits, the other 1 - it, so a step
    costs the same at any scale: v -> sqrt(v) or v / (1 + sqrt(1 - v))."""
    if not rbits:
        return z, y
    w, lower, (n, d) = _WIDE_BITS, z <= y, min(z, y).as_integer_ratio()
    m, e, one = n << w, d.bit_length() - 1 + w, 1 << w
    for b in rbits:
        if b == lower:
            m, e = math.isqrt(m << w + (e + w) % 2), (e + w + 1) // 2
            if m.bit_length() >= e:  # above 1/2: hold 1 - sqrt(v)
                m, lower = (1 << e) - m, not lower
        else:  # e >= w as v <= 1/2
            m = (m << w) // (one + math.isqrt(one - (m >> e - w) << w))
        s = m.bit_length() - w
        m, e = m >> s if s > 0 else m << -s, e - s
    v, c = m / (1 << e), ((1 << e) - m) / (1 << e)
    return (v, c) if lower else (c, v)


def _converge(step, ends=(1e-300, 1.0, 1.0, 1e-300)) -> tuple[tuple, bool]:
    """Step the ends (z_l, y_l, z_h, y_h) until they meet (1 ulp in z up to
    1/2, in y above) or stop; z or y = 0.0, or ``_MAX_PASSES``, raise."""
    for _ in range(_MAX_PASSES):
        moved, ends = ends, step(ends)
        if 0.0 in ends:
            raise ResourceLimitError(_PAST_BINARY64)
        met = (ends[2] <= math.nextafter(ends[0], 1.0) if ends[2] <= 0.5
               else ends[1] <= math.nextafter(ends[3], 1.0))
        if met or ends == moved:
            return ends, met
    raise ResourceLimitError(f"root search exceeds {_MAX_PASSES} passes")


def period_fixed_points(period: Sequence[int],
                        preamble: Sequence[int] = b"") -> FixedPointReport:
    """Interior fixed points of the period map, increasing, and 1 - each,
    pulled back through the map of ``preamble``; a 0.0 among them (a root
    past binary64) raises.  Ends at (z, y) = (1e-300, 1) and (1, 1e-300)
    move monotonically to the extreme roots by passes of p^-1 that stop
    ``_WIDE_STEPS`` steps short, which the upper end (or both, apart)
    takes wide, then the reversed preamble in the same wide run, so a root
    rounds once; stalled ends pass wide."""
    period, preamble = _as_bits(period), _as_bits(preamble)
    if not period or 0 not in period or 1 not in period:
        raise TrivialPeriodError(
            f"period {period.translate(_BITS_TO_CHARS).decode()!r} has no "
            "interior fixed point; only the endpoints 0 and 1 remain")
    bits = period * -(-_WIDE_STEPS // len(period))
    rtail = bits[_WIDE_STEPS - 1::-1]
    rrot = rtail + bits[:_WIDE_STEPS - 1:-1]  # p^-1 from before the tail
    ends, met = _converge(lambda e: _undo_ends(rrot, *e))
    if not met:
        ends, met = _converge(lambda e: (_undo_wide(rrot, *e[:2])
                                         + _undo_wide(rrot, *e[2:])), ends)
    rpull = rtail + preamble[::-1]
    roots = [_undo_wide(rpull, *ends[i:i + 2]) for i in range(2 * met, 4, 2)]
    if any(0.0 in root for root in roots):
        raise ResourceLimitError(_PAST_BINARY64)
    return FixedPointReport(*map(tuple, zip(*roots)))


@lru_cache(maxsize=_THRESHOLD_CACHE_SIZE)
def _threshold_cached(x: Fraction) -> ThresholdResult:
    if is_dyadic(x):
        return ThresholdResult(x, 1.0, "exact-bec", False)
    spec = real_to_expansion(x)
    report = period_fixed_points(spec.period, spec.preamble)
    return ThresholdResult(x, report.interior[-1], "exact-bec",
                           not report.interior_unique)


def threshold_of_rational(x: Fraction | int | str) -> ThresholdResult:
    """Exact-BEC polarization threshold of a rational in [0,1].

    Dyadic rationals always have threshold 1 (their non-terminating
    expansion squares the Bhattacharyya parameter away).  Otherwise the
    threshold is the preimage, under the preamble map, of the interior
    fixed point of the period map.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return _threshold_cached(x)


def _max_prefix_bits(rows: int) -> int:
    """Longest prefix the estimator takes in a batch of ``rows`` rows."""
    return _MAX_PLOT_BITS // max(rows, 1 << 12)


def threshold_estimate_batch(prefixes: np.ndarray) -> np.ndarray:
    """Threshold estimates for the rows of a 0/1 matrix of prefixes, each
    taken to repeat forever: the threshold of the rational with that
    period, a plotting approximation of the paper's infinite sequences.

    A row gets its largest interior root, as ``threshold_of_rational``,
    from the upper end of ``period_fixed_points`` in binary64, all rows at
    once: passes of p^-1 from (z, y) = (1, 1e-300) until the pair repeats.
    All-0 rows give 0.0, all-1 rows 1.0.  Rows are read by column (an
    F-ordered matrix is not copied).  Prefixes past ``_max_prefix_bits``,
    ``_MAX_PASSES`` passes or a pair at 0.0 raise ``ResourceLimitError``.
    """
    rows = np.asarray(prefixes)
    if rows.ndim == 2:
        cap = _max_prefix_bits(rows.shape[0])
        if rows.shape[1] > cap:
            raise ResourceLimitError(f"prefixes of {rows.shape[1]} bits "
                                     f"exceed {cap}, the cap at "
                                     f"{rows.shape[0]} rows")
    if (rows.ndim != 2 or rows.shape[1] == 0 or rows.dtype.kind not in "biu"
            or rows.size and (rows.min() < 0 or rows.max() > 1)):
        raise ValueError("prefixes must be a non-empty 2-d matrix of 0/1 "
                         "integers or bools")
    cols = np.ascontiguousarray(rows.T)
    theta = cols.all(axis=0).astype(np.float64)
    live = np.flatnonzero(cols.any(axis=0) & (theta == 0.0))
    if live.size < theta.size:
        cols = cols[:, live]
    # a is what a bit takes the root of (z for 1, y for 0), b the other: a
    # step is (sqrt a, b / (1 + sqrt a)), swapped where the next bit differs.
    z_first = cols[-1] != 0
    a, b = np.where(z_first, 1.0, 1e-300), np.where(z_first, 1e-300, 1.0)
    passes = 0
    while live.size:
        if passes == _MAX_PASSES:
            raise ResourceLimitError(f"root search exceeds {passes} passes")
        passes += 1
        a0, b0 = a, b
        for j in range(cols.shape[0] - 1, -1, -1):
            s = np.sqrt(a)
            t = b / (1.0 + s)
            swap = cols[j] != cols[j - 1]
            a, b = np.where(swap, t, s), np.where(swap, s, t)
        if not (a.all() and b.all()):  # 0.0 is fixed: a root past binary64
            raise ResourceLimitError(_PAST_BINARY64)
        keep = (a != a0) | (b != b0)
        if not keep.all():  # retire the rows whose pair repeats
            theta[live[~keep]] = np.where(cols[-1] != 0, a, b)[~keep]
            live, cols, a, b = live[keep], cols[:, keep], a[keep], b[keep]
    return theta


def threshold_curve(m: int, depth: int, *,
                    include_dyadics: bool = False) -> list[tuple[float, float]]:
    """The fractal plot: (x, estimated theta) at the 2^m cell midpoints
    (2j+1)/2^(m+1), in increasing x.

    Cell j is the largest root of the period map of its m bits (odd
    numerator, so no coarse dyadic is hit) and the balanced alternating
    tail, ``depth`` bits in all, built F-ordered for the estimator;
    complementary cells get complementary bits, so a symmetric curve.
    ``include_dyadics`` adds the spikes (j/2^m, 1.0).  A depth past the
    prefix-bit cap raises ``ResourceLimitError`` before any allocation.
    """
    if m < 1:
        raise ValueError("grid exponent must be >= 1")
    if m > 16:
        raise ResourceLimitError("grid exponent capped at 16")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cap = _max_prefix_bits(1 << m)
    if depth > cap:
        raise ResourceLimitError(
            f"depth {depth} exceeds {cap}, the cap at grid exponent {m}")
    j = np.arange(1 << m)
    prefixes = np.empty((j.size, depth), dtype=np.uint8, order="F")
    cell = min(m, depth)
    prefixes[:, :cell] = (j[:, None] >> np.arange(m - 1, m - 1 - cell, -1)) & 1
    tail = (np.arange(depth - m) % 2 == 0).astype(np.uint8)
    np.bitwise_xor((j & 1).astype(np.uint8)[:, None], tail, out=prefixes[:, m:])
    theta = threshold_estimate_batch(prefixes)
    rows = list(zip(((2 * j + 1) / (1 << (m + 1))).tolist(), theta.tolist()))
    if include_dyadics:
        rows.extend((k / (1 << m), 1.0) for k in range(1, 1 << m))
        rows.sort()
    return rows
