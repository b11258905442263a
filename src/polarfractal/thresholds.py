"""Polarization thresholds for rationals and bit prefixes.

The recurring part of a binary expansion drives an iterated function
system z -> p_period(z) with attracting fixed points at 0 and 1.  The
interior (repelling) fixed point of that map, pulled back through the
preamble map, is the critical BEC erasure probability below which the
channel indexed by x polarizes to perfect and above which to useless.

Interior uniqueness is an open problem; the scan reports every interior
crossing it finds and flags multiplicity instead of assuming uniqueness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError, TrivialPeriodError
from .expansions import _as_bits, is_dyadic, real_to_expansion
from .polarization import apply_path, apply_path_array

# Entries kept by the threshold cache (least recently used evicted first).
_THRESHOLD_CACHE_SIZE = 1 << 12

# Rows of the prefix estimator run together; they are independent.
_ROW_BLOCK = 1 << 12
# Prefix bits (rows x bits) of one estimator call, fewer rows than
# ``_ROW_BLOCK`` counted as a block: a halving step of a few rows still
# costs a good part of a block's, and their orbits can run the full depth.
_MAX_PLOT_BITS = 1 << 24

# Interior points of the uniform 4096-step scan grid, shared read-only.
_SCAN_GRID = np.linspace(0.0, 1.0, (1 << 12) + 1)[1:-1]
_SCAN_GRID.setflags(write=False)


class Certainty(Enum):
    EXACT_BEC = "exact-bec"


@dataclass(frozen=True)
class FixedPointReport:
    interior: tuple[float, ...]

    @property
    def interior_unique(self) -> bool:
        return len(self.interior) == 1


@dataclass(frozen=True)
class ThresholdResult:
    x: Fraction
    theta: float
    certainty: Certainty
    multiplicity_flag: bool


def _bisect_root(bits: tuple[int, ...], lo: float, hi: float,
                 d_lo: float) -> float:
    """Root of p(z) - z in a sign-change bracket whose lower end has the
    sign of ``d_lo``, bisected on the sign of p(mid) - mid down to adjacent
    doubles: the first midpoint equal to an end of its bracket, or fixed
    by p, is the root.  The stop is relative, so a small root keeps its
    digits."""
    sign_lo = d_lo < 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        d = apply_path(mid, bits) - mid
        if d == 0.0:
            return mid
        if (d < 0) == sign_lo:
            lo = mid
        else:
            hi = mid


def period_fixed_points(period: Sequence[int]) -> FixedPointReport:
    """Locate the interior fixed points of the period map, in increasing
    order; the endpoints 0 and 1 are fixed, and attracting, for every
    non-trivial period (vanishing derivatives).

    Interior crossings of p(z) - z are bracketed by sign changes on a
    uniform grid and bisected down to adjacent doubles on the sign of
    p(z) - z alone (``_bisect_root``).  Every grid zero and every bracket
    root is reported, however close: distinct brackets hold distinct
    roots.  Near-tangential pairs closer than the 1/4096 grid step can be
    missed.  The edge brackets run down to 1e-300 and up to the largest
    double below 1.

    Every evaluation of p stops once its values are exactly 0.0 or 1.0
    (see ``apply_path``), which is exact because both are fixed by every
    step.  In binary64 the orbit of every grid point, and of every
    bisection probe, leaves the repelling fixed point and saturates
    within a few dozen to a few hundred bits, so the cost no longer grows
    with the full period length.
    """
    period = _as_bits(period)
    if not period or 0 not in period or 1 not in period:
        raise TrivialPeriodError(
            f"period {period!r} has no interior fixed point; only the "
            "endpoints 0 and 1 remain")

    grid = _SCAN_GRID
    d = apply_path_array(grid, period) - grid

    roots: list[float] = grid[d == 0.0].tolist()
    brackets: list[tuple[float, float, float]] = []
    if d[0] > 0:
        brackets.append((1e-300, float(grid[0]), -1.0))
    # The exact product test, not signbit: an underflowing product is 0.
    idx = np.flatnonzero(d[:-1] * d[1:] < 0)
    brackets += zip(grid[idx].tolist(), grid[idx + 1].tolist(), d[idx].tolist())
    if d[-1] < 0:
        brackets.append((float(grid[-1]), math.nextafter(1.0, 0.0),
                         float(d[-1])))

    roots += [_bisect_root(period, lo, hi, d_lo) for lo, hi, d_lo in brackets]
    return FixedPointReport(tuple(sorted(roots)))


def _solve_preamble(preamble: tuple[int, ...], zeta: float) -> float:
    """Unique eps with p_preamble(eps) = zeta, in closed form: the bits
    are undone from the last to the first, z^2 = z' by sqrt(z') and
    2z - z^2 = z' by z' / (1 + sqrt(1 - z')), which unlike the equal
    1 - sqrt(1 - z') does not cancel for small z'."""
    z = zeta
    for b in reversed(preamble):
        z = math.sqrt(z) if b else z / (1.0 + math.sqrt(1.0 - z))
    return z


@lru_cache(maxsize=_THRESHOLD_CACHE_SIZE)
def _threshold_cached(x: Fraction) -> ThresholdResult:
    if is_dyadic(x):
        return ThresholdResult(x, 1.0, Certainty.EXACT_BEC, False)
    spec = real_to_expansion(x)
    report = period_fixed_points(spec.period)
    multiplicity = not report.interior_unique
    theta = _solve_preamble(spec.preamble, report.interior[-1])
    return ThresholdResult(x, theta, Certainty.EXACT_BEC, multiplicity)


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


def _apply_rows(v: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The prefix map of every row: s = +-z goes to s * (D[j] - s) with
    D[j] = ``steps[j]``, 0 for a 1 bit (-(z * z)) and 2 with the sign of s
    for a 0 bit (z * (2 - z)), the products of ``apply_path`` up to an
    exact sign.  Both maps fix 0.0 and 1.0, so the walk stops once every
    |s| is one of them; this is checked after 16, 32, 64, ... bits."""
    s = v.copy()
    t = np.empty_like(s)
    for j, d in enumerate(steps, 1):
        np.subtract(d, s, out=t)
        np.multiply(s, t, out=s)
        if j >= 16 and j & (j - 1) == 0:
            a = np.abs(s, out=t)
            if ((a == 0.0) | (a == 1.0)).all():
                break
    return np.abs(s, out=s)


def _step_constants(bits: np.ndarray) -> np.ndarray:
    """D[j] of ``_apply_rows`` for a (steps, rows) 0/1 matrix whose walk
    starts at s > 0: 0 for a 1 bit, which leaves s negative as -(z * z),
    and for a 0 bit 2, or -2 after a 1 bit; as 2 (1 - b[j]) (1 - 2 b[j-1])
    in int8, which is several times faster than masked assignment."""
    b = np.ascontiguousarray(bits, dtype=np.int8)
    d = 1 - b
    d[0] *= 2
    d[1:] *= 2 - 4 * b[:-1]
    return d.astype(np.float64)


def _max_prefix_bits(rows: int) -> int:
    """Longest prefix the estimator takes in a batch of ``rows`` rows."""
    return _MAX_PLOT_BITS // max(rows, _ROW_BLOCK)


def threshold_estimate_batch(prefixes: np.ndarray) -> np.ndarray:
    """Threshold estimates for the rows of a 0/1 matrix of prefixes,
    bisected in lockstep.  Each prefix is taken to repeat forever, which
    gives the threshold of the rational with that expansion period: a
    plotting approximation, as the paper's thresholds need infinite sequences.

    Each row takes up to 60 halvings of [0, 1], on the sign of p(mid) - mid
    for its prefix map p, so the absolute resolution is 2^-60.  A midpoint
    with p(mid) == mid, or equal to an end of its bracket, moves no bracket
    again, so a block stops once a halving moves none.  The bisection
    assumes one interior root; a prefix with several returns one of them
    and is not flagged.  Rows are independent, so they run in blocks of
    ``_ROW_BLOCK``, which bounds the memory of the per-bit constants.
    Prefixes longer than ``_max_prefix_bits`` raise ``ResourceLimitError``.
    """
    rows = np.asarray(prefixes)
    # Before the 0/1 check, whose temporaries are the size of the matrix.
    if rows.ndim == 2:
        cap = _max_prefix_bits(rows.shape[0])
        if rows.shape[1] > cap:
            raise ResourceLimitError(f"prefixes of {rows.shape[1]} bits "
                                     f"exceed {cap}, the cap at "
                                     f"{rows.shape[0]} rows")
    if (rows.ndim != 2 or rows.shape[1] == 0 or rows.dtype.kind not in "biu"
            or ((rows != 0) & (rows != 1)).any()):
        raise ValueError("prefixes must be a non-empty 2-d matrix of 0/1 "
                         "integers or bools")
    estimates = np.empty(rows.shape[0])
    for first in range(0, rows.shape[0], _ROW_BLOCK):
        steps = _step_constants(rows[first:first + _ROW_BLOCK].T)
        lo, hi = np.zeros(steps.shape[1]), np.ones(steps.shape[1])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            d = _apply_rows(mid, steps) - mid
            up, down = (d < 0) & (mid != lo), (d > 0) & (mid != hi)
            if not (up.any() or down.any()):
                break
            np.copyto(lo, mid, where=up)
            np.copyto(hi, mid, where=down)
        estimates[first:first + _ROW_BLOCK] = 0.5 * (lo + hi)
    return estimates


def threshold_curve(m: int, depth: int, *,
                    include_dyadics: bool = False) -> list[tuple[float, float]]:
    """The fractal plot: (x, estimated theta) at the 2^m cell midpoints
    (2j+1)/2^(m+1), in increasing x.

    Cell j is estimated from its m bits (odd numerator, so no coarse
    dyadic is hit) continued by the balanced alternating tail, ``depth``
    bits in all; complementary cells then get exactly complementary bit
    sequences, which keeps the curve symmetric.  ``include_dyadics`` adds
    the dyadic grid spikes (j/2^m, 1.0).  A depth past ``_MAX_PLOT_BITS``
    prefix bits raises ``ResourceLimitError`` before any allocation.
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
    prefixes = np.empty((j.size, depth), dtype=np.uint8)
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
