"""Finite-blocklength index sets and generator rows.

Rows of the n-fold Kronecker power of the 2x2 lower-triangular kernel
never come from the full matrix: ``kronecker_row`` builds one by the block
recursion, ``generator_matrix`` fills an index set's rows by the bit-subset
rule (entry (h, c) is 1 when the bits of c lie within those of h), eight
columns to a byte, and the matrix stays bit-packed up to its export.  Polar
sets pick the smallest exact-BEC Bhattacharyya leaves, Reed-Muller sets
pick rows by Hamming weight, and heavy-set membership runs the exact
weight-drift walk on the expansion.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceLimitError
from .expansions import ExpansionSpec, Variant, is_dyadic, real_to_expansion
from .polarization import bec_leaf_values

# Hard cap on materialized matrix cells and single-row length.
_MAX_MATRIX_CELLS = 1 << 26
_MAX_ROW_DEPTH = 26
# Packed bytes per block of generator_matrix's int32 temporaries.
_MATRIX_BLOCK_CELLS = 1 << 18
# Entry l is the byte whose bit j (little-endian) is set when the bits of j
# lie within those of l: one packed byte of a row whose low 3 bits are l.
_SUBSET_BYTE = np.array([sum(1 << j for j in range(8) if j & ~l == 0)
                         for l in range(8)], dtype=np.uint8)

_MATRIX_MAGIC = b"KPCM"
# Text bytes per block of matrix_text_blocks: whole rows, or pieces of a
# row wider than a block.
_TEXT_BLOCK_BYTES = 1 << 20

# 10^1 .. 10^18: where the digit count of a non-negative int64 steps up.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
# Values per block of decimal_blocks: bounds its digit and text buffers.
_DECIMAL_BLOCK = 1 << 15


@dataclass(frozen=True, init=False, eq=False)
class IndexSet:
    """Sorted row indices of the depth-n Kronecker matrix plus metadata.

    ``array`` holds the indices as a read-only, sorted int64 array;
    ``indices`` gives them as a tuple of Python ints, built on each read.
    ``kind`` is "polar" (meta: eps, size) or "reed-muller" (meta: order).
    """

    n: int
    array: np.ndarray
    kind: str
    meta: dict

    def __init__(self, n: int, indices, kind: str,
                 meta: dict | None = None) -> None:
        raw = indices
        if not isinstance(raw, np.ndarray):
            raw = [int(i) for i in raw]
        try:
            # flatten copies, so a caller's array is never frozen below.
            idx = np.asarray(raw, dtype=np.int64).flatten()
        except OverflowError:
            raise ValueError(f"indices out of range for depth {n} "
                             "or for int64") from None
        if not (idx[1:] > idx[:-1]).all():
            idx.sort()
            if not (idx[1:] > idx[:-1]).all():
                raise ValueError("indices must be distinct")
        if idx.size and not (0 <= idx[0] and int(idx[-1]) < (1 << n)):
            raise ValueError(f"indices out of range for depth {n}")
        idx.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "array", idx)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "meta", {} if meta is None else meta)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())


@dataclass(frozen=True)
class GeneratorMatrix:
    """Rows of the depth-n Kronecker power, bit-packed.

    ``packed`` is a (row count, ceil(2^n / 8)) uint8 array, eight columns
    to a byte with the bits little-endian and the padding bits clear: the
    body layout of :func:`matrix_bytes_blocks`.  ``rows`` unpacks it to a
    (row count, 2^n) 0/1 uint8 array on each read.
    """

    n: int
    packed: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        return np.unpackbits(self.packed, axis=-1, count=1 << self.n,
                             bitorder="little")


def _check_depth(n: int) -> None:
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")


def kronecker_row(n: int, h: int) -> np.ndarray:
    """Row h of the n-fold Kronecker power, built by the block recursion.

    The row weight is 2**popcount(h).
    """
    _check_depth(n)
    if not 0 <= h < (1 << n):
        raise ValueError(f"row index {h} out of range for depth {n}")
    if n > _MAX_ROW_DEPTH:
        raise ResourceLimitError(f"2^{n}-length row exceeds the budget")
    row = np.ones(1, dtype=np.uint8)
    for l in range(n):
        # Bit l counted from the least significant end is applied first.
        if (h >> l) & 1:
            row = np.concatenate([row, row])
        else:
            row = np.concatenate([row, np.zeros(row.size, dtype=np.uint8)])
    return row


def polar_index_set(eps: float, n: int, size: int) -> IndexSet:
    """Indices of the ``size`` smallest exact-BEC leaf values at depth n.

    Ties are broken by ascending index, so the selection is the first
    ``size`` leaves of a stable argsort: every leaf below the size-th
    smallest value, then the lowest-indexed leaves equal to it.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    _check_depth(n)
    if not 0 <= size <= (1 << n):
        raise ValueError(f"size must lie in [0, 2^{n}], got {size}")
    z = bec_leaf_values(eps, n)
    # The sorted copy is the largest temporary, so it is gone before the
    # mask exists, and the leaves are gone before IndexSet copies.
    kth = np.sort(z)[size - 1] if size else -np.inf
    keep = z < kth
    keep[np.flatnonzero(z == kth)[:size - np.count_nonzero(keep)]] = True
    del z
    return IndexSet(n=n, indices=np.flatnonzero(keep), kind="polar",
                    meta={"eps": eps, "size": size})


def rm_index_set(order: int, n: int) -> IndexSet:
    """Reed-Muller index set: rows with weight >= 2^(n - order).

    Equivalently indices h with popcount(h) >= n - order; the set size is
    the binomial tail sum.
    """
    _check_depth(n)
    if not 0 <= order <= n:
        raise ValueError(f"order must lie in [0, {n}], got {order}")
    if n > _MAX_ROW_DEPTH:
        raise ResourceLimitError(f"enumerating 2^{n} indices exceeds the budget")
    idx = np.flatnonzero(
        np.bitwise_count(np.arange(1 << n, dtype=np.uint32)) >= n - order)
    return IndexSet(n=n, indices=idx, kind="reed-muller", meta={"order": order})


def generator_matrix(index_set: IndexSet) -> GeneratorMatrix:
    """Submatrix of the Kronecker power given by the index set, rows in
    ascending index order.  Row h is the bit path b_1..b_n with
    h = sum of b_l 2^(n-l), the leaf order of ``bec_leaf_values``."""
    h = index_set.array
    if h.size << index_set.n > _MAX_MATRIX_CELLS:
        raise ResourceLimitError(
            f"{h.size} x 2^{index_set.n} matrix exceeds the budget")
    packed = np.empty((h.size, max(1, (1 << index_set.n) >> 3)),
                      dtype=np.uint8)
    if not h.size:
        return GeneratorMatrix(n=index_set.n, packed=packed)
    # Entry (h, c) is 1 exactly when the bits of c lie within those of h.
    # Columns 8b..8b+7 form byte b: it is the subset pattern of h's low 3
    # bits when the bits of b lie within h >> 3, and 0 otherwise.  With
    # rows present the cell cap keeps n <= 26, so byte indices fit in
    # int32; rows are filled in blocks to bound the int32 temporaries.
    b = np.arange(packed.shape[1], dtype=np.int32)
    high, low = (h >> 3).astype(np.int32), _SUBSET_BYTE[h & 7]
    step = max(1, _MATRIX_BLOCK_CELLS // b.size)
    for s in range(0, h.size, step):
        block = packed[s:s + step]
        np.equal(b & ~high[s:s + step, None], 0, out=block.view(bool))
        block *= low[s:s + step, None]
    return GeneratorMatrix(n=index_set.n, packed=packed)


def _expansion_is_heavy(spec: ExpansionSpec, rho: Fraction) -> bool:
    """Heavy test for one expansion: sign of the per-period weight drift,
    with the drift-zero case decided by the recurring window minimum.
    With rho = p/q the walk w(b^m) - rho*m is kept in units of 1/q."""
    p, q = rho.numerator, rho.denominator
    period = spec.period or b"\0"
    drift = q * sum(period) - p * len(period)
    if drift:
        return drift > 0
    # Zero drift: the walk is periodic beyond the preamble, so the liminf
    # is the minimum over one full recurring window.  Values inside the
    # preamble occur once and cannot move a liminf.
    walk = q * sum(spec.preamble) - p * len(spec.preamble)
    for bit in period:
        walk += q * bit - p
        if walk < 0:
            return False
    return True


def heavy_membership(x: Fraction | int | str, rho: Fraction | int | str) -> bool:
    """Is x in the heavy set for exponent rho?

    Membership is existential over the expansions of x, so both dyadic
    forms are consulted.  rho must be an exact rational: the drift-zero
    boundary (where the interesting cases live) is destroyed by floats.
    """
    x = Fraction(x)
    rho = Fraction(rho)
    if not 0 <= x <= 1:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if not 0 <= rho <= 1:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    specs = [real_to_expansion(x, Variant.TERMINATING)]
    if is_dyadic(x):
        other = real_to_expansion(x, Variant.NON_TERMINATING)
        if other != specs[0]:
            specs.append(other)
    return any(_expansion_is_heavy(spec, rho) for spec in specs)


def matrix_text_blocks(gm: GeneratorMatrix):
    """The text export as blocks of about ``_TEXT_BLOCK_BYTES``, each
    unpacked from ``packed`` on its own: one '0'/'1' row per line, as
    ASCII, and one newline for a matrix without rows."""
    packed, width = gm.packed, 1 << gm.n
    if not packed.shape[0]:
        yield b"\n"
        return
    rows = max(1, _TEXT_BLOCK_BYTES // (width + 1))
    piece = _TEXT_BLOCK_BYTES >> 3  # packed bytes of one row per block
    for s in range(0, packed.shape[0], rows):
        for c in range(0, packed.shape[1], piece):
            bits = np.unpackbits(packed[s:s + rows, c:c + piece], axis=-1,
                                 count=min(width - 8 * c, 8 * piece),
                                 bitorder="little")
            # Only a block that ends its rows ends in newlines.
            last = c + piece >= packed.shape[1]
            text = np.empty((bits.shape[0], bits.shape[1] + last),
                            dtype=np.uint8)
            np.add(bits, ord("0"), out=text[:, :bits.shape[1]])
            text[:, bits.shape[1]:] = ord("\n")
            yield text


def matrix_bytes_blocks(gm: GeneratorMatrix):
    """The binary export as two blocks: magic "KPCM", u32 depth and u32
    row count, then the rows packed as little-endian bit blocks."""
    yield _MATRIX_MAGIC + struct.pack("<II", gm.n, gm.packed.shape[0])
    yield np.ascontiguousarray(gm.packed)


def matrix_from_bytes(blob: bytes) -> GeneratorMatrix:
    """Inverse of :func:`matrix_bytes_blocks`, joined."""
    if blob[:4] != _MATRIX_MAGIC:
        raise ValueError("bad magic; not a packed Kronecker matrix")
    n, count = struct.unpack("<II", blob[4:12])
    width = 1 << n
    bytes_per_row = (width + 7) // 8
    body = np.frombuffer(blob[12:], dtype=np.uint8)
    if body.size != count * bytes_per_row:
        raise ValueError("truncated matrix payload")
    # The mask copies the body and clears the padding bits of rows
    # narrower than a byte (n < 3).
    pad_mask = np.uint8((1 << min(width, 8)) - 1)
    return GeneratorMatrix(n=n, packed=body.reshape(count, bytes_per_row)
                           & pad_mask)


def _decimal_rows(values: np.ndarray, sep: bytes) -> np.ndarray:
    """The ASCII digits of each of the sorted, non-negative int64 values,
    each followed by ``sep``, as one uint8 array.

    The values split into runs of equal digit count.  Each run computes
    its digits into a contiguous (digit, value) array, in uint32 when the
    values fit, then copies it transposed into fixed-width rows of digits
    and separator.
    """
    cuts = [0, *np.searchsorted(values, _POW10).tolist(), values.size]
    buf = np.empty(sum((b - a) * (d + len(sep))
                       for d, (a, b) in enumerate(zip(cuts, cuts[1:]), 1)),
                   dtype=np.uint8)
    pos = 0
    for d, (a, b) in enumerate(zip(cuts, cuts[1:]), 1):
        if a == b:
            continue
        rows = buf[pos:pos + (b - a) * (d + len(sep))].reshape(b - a, -1)
        pos += rows.size
        rows[:, d:] = np.frombuffer(sep, dtype=np.uint8)
        # Values of at most 9 digits are below 10^9 < 2^32.
        v = values[a:b].astype(np.uint32 if d <= 9 else np.int64,
                               copy=False)
        digits = np.empty((d, b - a), dtype=np.uint8)
        for col in range(d - 1, 0, -1):
            q = v // 10
            np.subtract(v, 10 * q, out=digits[col], casting="unsafe")
            v = q
        digits[0] = v
        digits += ord("0")
        rows[:, :d] = digits.T
    return buf


def decimal_blocks(values: np.ndarray, head: str, sep: str, tail: str):
    """``head + sep.join(map(str, values)) + tail`` for a sorted array of
    non-negative int64 values, as str blocks of ``_DECIMAL_BLOCK`` values,
    so that no more than one block's text is held at a time."""
    yield head
    sep = sep.encode("ascii")
    for s in range(0, values.size, _DECIMAL_BLOCK):
        text = _decimal_rows(values[s:s + _DECIMAL_BLOCK], sep)
        if s + _DECIMAL_BLOCK >= values.size:
            # No separator after the last value.
            text = text[:text.size - len(sep)]
        yield text.tobytes().decode("ascii")
    yield tail


def index_set_json_blocks(index_set: IndexSet):
    """One JSON object, as str blocks: kind, n, the meta keys, then the
    indices."""
    head = json.dumps({"kind": index_set.kind, "n": index_set.n,
                       **index_set.meta})
    return decimal_blocks(index_set.array, head[:-1] + ', "indices": [',
                          ", ", "]}")
