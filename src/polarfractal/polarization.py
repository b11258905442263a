"""One-step polarization maps on Bhattacharyya parameters z in [0,1],
composed along bit paths: bit 0 is the worse step z -> 2z - z^2, bit 1
the better step z -> z^2.  For a binary erasure channel both steps are
exact (z is the erasure probability); for any other binary-input channel
the worse step only gives an upper bound.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError

# Largest depth for which a full leaf array is materialized (2**24 values).
MAX_LEAF_LIST_DEPTH = 24

# Depth of the sub-trees that ``bec_leaf_counts`` splits one at a time.
_SUBTREE_DEPTH = 20

_DOMAIN_TOL = 1e-12


def _check_unit(z: float, name: str = "z") -> float:
    """Validate z in [0,1] up to 1e-12 slack, clamping roundoff excess."""
    z = float(z)
    if 0.0 <= z <= 1.0:  # the clamp below keeps these as they are, -0.0 too
        return z
    if not (-_DOMAIN_TOL <= z <= 1.0 + _DOMAIN_TOL) or z != z:
        raise ValueError(f"{name} must lie in [0, 1], got {z!r}")
    return min(max(z, 0.0), 1.0)


def apply_path(z: float, bits: Sequence[int]) -> float:
    """Evaluate the composition of one-step maps along ``bits``.

    The first bit is applied first (innermost).  Evaluation always
    iterates the one-step maps; the composed polynomial is never expanded.
    """
    v = _check_unit(z)
    for b in bits:
        v = v * v if b else v * (2.0 - v)
    return v


def bec_leaf_values(eps: float, n: int) -> np.ndarray:
    """All 2^n exact BEC Bhattacharyya values at depth n.

    Leaf index reads the path as a binary number with the first-applied
    bit as the most significant bit, so leaf index equals the Kronecker
    row index of the path.  Raises ResourceLimitError past depth 24.
    """
    eps = _check_unit(eps, "eps")
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    if n > MAX_LEAF_LIST_DEPTH:
        raise ResourceLimitError(
            f"2^{n} leaves exceed the list budget (depth <= {MAX_LEAF_LIST_DEPTH})")
    z = np.array([eps])
    for _ in range(n):  # first-bit-major order
        z = _split(z)
    return z


def _split(z: np.ndarray) -> np.ndarray:
    """The worse and the better child of each node, interleaved.

    Children are computed in place: (2 - z) * z has the bits of
    z * (2 - z), and no level-sized temporary is made.
    """
    children = np.empty(2 * z.size)
    worse = np.subtract(2.0, z, out=children[0::2])
    worse *= z
    np.multiply(z, z, out=children[1::2])
    return children


def _apply_rows(v: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The prefix map of every column of a (steps, rows) 0/1 matrix from
    z = v: s = +-z goes to s * (D - s), ``apply_path``'s products up to an
    exact sign, with D = 0 for a 1 bit (-(z * z)) and 2 with the sign of s
    for a 0 bit (z * (2 - z)): 2 (1 - b[j]) (1 - 2 b[j-1]), made in int8
    (faster than masked assignment) and subtracted a row at a time, as
    int8 to float64 is exact, so no float64 matrix of steps is made."""
    b = np.ascontiguousarray(bits, dtype=np.int8)
    d = 1 - b
    d[0] *= 2
    d[1:] *= 2 - 4 * b[:-1]
    s = v.copy()
    t = np.empty_like(s)
    for dj in d:
        np.subtract(dj, s, out=t)
        np.multiply(s, t, out=s)
    return np.abs(s, out=s)


def _worse_max(z: float) -> float:
    """Largest rounded worse step v * (2 - v) over 0 <= v <= z, for z <= 1/2.

    The rounded step is not monotone.  Where 2 - v rounds down by 2^-52,
    at each odd multiple of 2^-53, the product can fall by an ulp.  It is
    non-decreasing between two such points, and the value at the end of
    each run is larger than at the end of the run before.  So the largest
    value is at z or at the end of the run before z's: c - 2^-53 or the
    float below it, where c = 2 - (2 - z) is exact.
    """
    end = (2.0 - (2.0 - z)) - 2.0 ** -53
    return max(v * (2.0 - v) for v in (z, end, math.nextafter(end, -1.0)))


def _settled_bounds(delta: float, top: int) -> tuple[list[float], list[float]]:
    """Binary64 bounds g[d] and h[d], d = 0..top, for 0 < delta < 1/2.

    Every path of d steps from a z <= g[d] stays <= delta, and every path
    of d steps from a z >= h[d] stays >= 1 - delta.  g[d] is the largest
    z with ``_worse_max(z) <= g[d-1]``, h[d] the smallest z with
    z * z >= h[d-1]; both functions are non-decreasing, so each is an
    exact float boundary.  By induction on d, as z * z <= z <= z * (2 - z):
    z <= g[d] gives z * z <= g[d] <= g[d-1] and z * (2 - z) <= g[d-1],
    and z >= h[d] gives z * z >= h[d-1] and z * (2 - z) >= h[d] >= h[d-1].
    Each bound starts from its real root, g / (1 + sqrt(1 - g)) (free of
    the cancellation in 1 - sqrt(1 - g)) or sqrt(h), and moves a few
    ``math.nextafter`` steps.
    """
    g, h = [delta], [1.0 - delta]
    for _ in range(top):
        t = g[-1]
        z = t / (1.0 + math.sqrt(1.0 - t))
        while _worse_max(z) > t:
            z = math.nextafter(z, -1.0)
        while _worse_max(up := math.nextafter(z, 1.0)) <= t:
            z = up
        g.append(z)
        t = h[-1]
        z = math.sqrt(t)
        while z * z < t:
            z = math.nextafter(z, 2.0)
        while (down := math.nextafter(z, 0.0)) * down >= t:
            z = down
        h.append(z)
    return g, h


def bec_leaf_counts(eps: float, depths: Sequence[int],
                    delta: float) -> list[tuple[int, int]]:
    """Exact numbers of good (z <= delta) and bad (z >= 1 - delta) leaves
    at each depth in ``depths``, in one pruned pass down to the deepest, D,
    for 0 < delta < 1/2.  Below the first max(0, D - 20) levels each
    sub-tree is split on its own, so at most 2^20 values are live.

    A node with d levels left to D is not split once it is <= g[d] or
    >= h[d] (``_settled_bounds``): every path below it then stays good, or
    bad, down to D, so it counts as good or bad for all its descendants at
    each deeper requested depth, and the counts are exact.  0.0 and 1.0,
    which both maps fix, prune at any delta.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")
    top = max(depths, default=0)
    if top > MAX_LEAF_LIST_DEPTH:
        raise ResourceLimitError(
            f"exact counts are capped at depth {MAX_LEAF_LIST_DEPTH}")
    g, h = _settled_bounds(delta, top)
    split = max(0, top - _SUBTREE_DEPTH)
    counts = {}
    for n in depths:
        z = bec_leaf_values(eps, n) if n <= split else np.empty(0)
        counts[n] = [np.count_nonzero(z <= delta),
                     np.count_nonzero(z >= 1.0 - delta)]
    for root in bec_leaf_values(eps, split):
        good = bad = 0
        z = np.array([root])
        for depth in range(split + 1, top + 1):
            left = top - depth + 1  # steps from z's level down to D
            settled_good = z <= g[left]
            settled_bad = z >= h[left]
            good = 2 * (good + np.count_nonzero(settled_good))
            bad = 2 * (bad + np.count_nonzero(settled_bad))
            z = _split(z[~(settled_good | settled_bad)])
            if depth in counts:
                c = counts[depth]
                c[0] += good + np.count_nonzero(z <= delta)
                c[1] += bad + np.count_nonzero(z >= 1.0 - delta)
    return [(int(good), int(bad)) for good, bad in map(counts.get, depths)]
