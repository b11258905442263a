"""One-step polarization transforms and their compositions along bit paths.

The worse/better transforms act on Bhattacharyya parameters z in [0,1].
For a binary erasure channel both steps are exact (z is the erasure
probability); for any other binary-input channel the worse step only gives
an upper bound.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError

# Largest depth for which a full leaf array is materialized (2**24 values).
MAX_LEAF_LIST_DEPTH = 24

# Depth of the vectorized sub-trees used by the streaming enumeration.
_CHUNK_DEPTH = 20

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


def worse_transform(z: float) -> float:
    """Map z to 2z - z^2 (bit 0, the degraded branch)."""
    z = _check_unit(z)
    return z * (2.0 - z)


def better_transform(z: float) -> float:
    """Map z to z^2 (bit 1, the upgraded branch)."""
    z = _check_unit(z)
    return z * z


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
    through worse steps until the first square.  Long periods therefore
    cost only their live prefix, which is a few dozen to a few hundred
    bits for any orbit that leaves a repelling fixed point.
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


def _expand_leaves(z: np.ndarray, depth: int) -> np.ndarray:
    """Split every value ``depth`` more times, keeping first-bit-major order."""
    for _ in range(depth):
        nxt = np.empty(2 * z.size, dtype=np.float64)
        nxt[0::2] = z * (2.0 - z)
        nxt[1::2] = z * z
        z = nxt
    return z


def bec_leaf_values(eps: float, n: int) -> np.ndarray:
    """All 2^n exact BEC Bhattacharyya values at depth n.

    Leaf index reads the path as a binary number with the first-applied
    bit as the most significant bit, so leaf index equals the Kronecker
    row index of the path.  Raises ResourceLimitError past depth 24;
    use :func:`bec_leaf_chunks` for streaming statistics beyond that.
    """
    eps = _check_unit(eps, "eps")
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    if n > MAX_LEAF_LIST_DEPTH:
        raise ResourceLimitError(
            f"2^{n} leaves exceed the list budget (depth <= {MAX_LEAF_LIST_DEPTH}); "
            "use bec_leaf_chunks")
    return _expand_leaves(np.array([eps], dtype=np.float64), n)


def bec_leaf_chunks(eps: float, n: int,
                    chunk_depth: int = _CHUNK_DEPTH) -> Iterator[np.ndarray]:
    """Yield the depth-n leaf values in index order, in bounded chunks.

    Each chunk is the sub-tree below one prefix of the first ``n -
    chunk_depth`` bits, so memory stays at 2^chunk_depth floats while the
    full multiset is folded exactly once.
    """
    eps = _check_unit(eps, "eps")
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    if n <= chunk_depth:
        yield bec_leaf_values(eps, n)
        return
    prefix_len = n - chunk_depth
    for j in range(1 << prefix_len):
        bits = [(j >> (prefix_len - 1 - i)) & 1 for i in range(prefix_len)]
        z0 = apply_path(eps, bits)
        yield _expand_leaves(np.array([z0], dtype=np.float64), chunk_depth)
