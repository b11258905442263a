"""One-step polarization maps on Bhattacharyya parameters z in [0,1],
composed along bit paths: bit 0 is the worse step z -> 2z - z^2, bit 1
the better step z -> z^2.  For a binary erasure channel both steps are
exact (z is the erasure probability); for any other binary-input channel
the worse step only gives an upper bound.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ResourceLimitError

# Largest depth for which a full leaf array is materialized (2**24 values).
MAX_LEAF_LIST_DEPTH = 24

# Depth of the sub-trees that ``bec_leaf_counts`` splits one at a time.
_SUBTREE_DEPTH = 20

_DOMAIN_TOL = 1e-12

# Bits between two saturation checks in ``apply_path_array``.
_SATURATION_CHECK_BITS = 16


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

    Iteration stops once the value is exactly 0.0 or 1.0, which is exact:
    both are fixed points of z*z and z*(2-z) in binary64, so the remaining
    bits cannot change the result.  Only a square can reach 0.0 (by
    underflow) and only a worse step can reach 1.0 (by rounding), so each
    branch checks for its own value.  A square is never -0.0, so the sign
    of zero also comes out as in the full loop: a -0.0 input stays -0.0
    through worse steps until the first square.  An orbit that leaves a
    repelling fixed point saturates within a few dozen to a few hundred
    bits, so the rest of a long path costs nothing, except a run of 0
    bits from v = 1 - 2^-53: the worse step fixes that v (2.0 - v rounds
    to 1.0), so the loop walks the whole run.
    """
    v = _check_unit(z)
    for b in bits:
        if b:
            v = v * v
            if v == 0.0:
                break
        else:
            v = v * (2.0 - v)
            if v == 1.0:
                break
    return v


def apply_path_array(z: np.ndarray, bits: Sequence[int]) -> np.ndarray:
    """Vectorized ``apply_path`` over an array of z values.

    Like ``apply_path``, stops once every value is exactly 0.0 (of either
    sign) or 1.0, then squares once if a 1 bit remains, so that -0.0 ends
    as +0.0 exactly as in the full loop.  The check costs about one step,
    so it runs every ``_SATURATION_CHECK_BITS`` bits.
    """
    v = np.asarray(z, dtype=np.float64).copy()
    bits = iter(bits)
    for i, b in enumerate(bits, 1):
        if b:
            np.multiply(v, v, out=v)
        else:
            v *= 2.0 - v
        if i % _SATURATION_CHECK_BITS == 0 and ((v == 0.0) | (v == 1.0)).all():
            if any(bits):
                np.multiply(v, v, out=v)
            break
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
        # Children are computed in place: (2 - z) * z has the bits of
        # z * (2 - z), and no level-sized temporary is made.
        nxt = np.empty(2 * z.size)
        worse = np.subtract(2.0, z, out=nxt[0::2])
        worse *= z
        np.multiply(z, z, out=nxt[1::2])
        z = nxt
    return z


def bec_leaf_counts(eps: float, depths: Sequence[int],
                    delta: float) -> list[tuple[int, int]]:
    """Exact numbers of good (z <= delta) and bad (z >= 1 - delta) leaves
    at each depth in ``depths``, in one pass down to the deepest, D.  Below
    the first max(0, D - 20) levels each sub-tree is split on its own, so
    at most 2^20 values are live.  A node that is exactly 0.0 or 1.0,
    which both maps fix, is not split but counted for all its
    descendants; only a square reaches 0.0, only a worse step 1.0.
    """
    top = max(depths, default=0)
    if top > MAX_LEAF_LIST_DEPTH:
        raise ResourceLimitError(
            f"exact counts are capped at depth {MAX_LEAF_LIST_DEPTH}")
    split = max(0, top - _SUBTREE_DEPTH)
    counts = {}
    for n in depths:
        z = bec_leaf_values(eps, n) if n <= split else np.empty(0)
        counts[n] = [np.count_nonzero(z <= delta),
                     np.count_nonzero(z >= 1.0 - delta)]
    for root in bec_leaf_values(eps, split):
        zeros = ones = 0
        worse, better = np.array([root]), np.empty(0)
        for depth in range(split + 1, top + 1):
            live_w, live_b = worse != 1.0, better != 0.0
            zeros = 2 * (zeros + live_b.size - np.count_nonzero(live_b))
            ones = 2 * (ones + live_w.size - np.count_nonzero(live_w))
            z = np.concatenate((worse[live_w], better[live_b]))
            worse, better = z * (2.0 - z), z * z
            if depth in counts:
                c = counts[depth]
                c[0] += zeros + np.count_nonzero(worse <= delta) \
                    + np.count_nonzero(better <= delta)
                c[1] += ones + np.count_nonzero(worse >= 1.0 - delta) \
                    + np.count_nonzero(better >= 1.0 - delta)
    return [(int(good), int(bad)) for good, bad in map(counts.get, depths)]
