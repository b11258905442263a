"""Numerical verification of the measure, dimension and self-similarity
claims at desk scale.

Nothing here estimates a Hausdorff dimension directly (samples cannot);
the module produces the computable witnesses: leaf-fraction trends toward
the Lebesgue measures, the entropy lower-bound count, exact zero-crossing
distributions of the centered weight walk, and order/implication checks
for the quasi self-similar inclusions.
"""

from __future__ import annotations

import collections
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError
from .expansions import is_dyadic
from .polarization import MAX_LEAF_LIST_DEPTH, _apply_rows, bec_leaf_counts

# Fixed Monte Carlo chunk so results never depend on the thread count:
# chunk i always draws from the Philox stream jumped by i.
_CHUNK_TRIALS = 1 << 14

# Largest chunk of packed paths (rows x bytes per row) one draw may make:
# 16384 paths of 16384 steps, 32 MiB.  The folds read a chunk a byte of
# steps at a time, in temporaries of at most about 1 MiB, so a run holds
# the chunk it folds and at most one more per drawing thread.
_MAX_CHUNK_BYTES = 1 << 25

# Most chunks one Monte Carlo run may take: 2^28 trials.
_MAX_CHUNKS = 1 << 14

# Largest exhaustive walk horizon: the int64 counts of
# ``_exact_crossing_counts`` overflow at horizon 66.
_MAX_EXHAUSTIVE_WALK = 65

# Largest horizon of ``entropy_count``, whose float64 arrays of n terms
# then peak near 40 MiB.
_MAX_ENTROPY_N = 1 << 20


@dataclass(frozen=True)
class MeasureEstimate:
    depth: int
    eps: float
    delta: float
    fraction_good: float
    fraction_bad: float
    fraction_unresolved: float


@dataclass(frozen=True)
class WalkStats:
    """Zero-crossing counts of the centered weight walk.

    In exhaustive mode the counts enumerate all 2^n bit strings and the
    probabilities are exact rationals with denominator 2^n.
    """

    n: int
    counts_by_crossings: dict[int, int]
    total: int
    mode: str
    seed: int | None = None

    def probability(self, r: int) -> Fraction:
        return Fraction(self.counts_by_crossings.get(r, 0), self.total)


@dataclass(frozen=True)
class SelfsimViolation:
    """A sample x of cell k at depth n whose shifted points break the
    order: ``left``, ``value`` and ``right`` are the key at the 0-shift,
    at x and at the 1-shift."""

    x: Fraction
    n: int
    k: int
    left: float | bool
    value: float | bool
    right: float | bool
    defect: float


def _mc_accumulate(trials: int, seed: int, threads: int, n: int,
                   fold: Callable[[np.ndarray, int], np.ndarray]) -> np.ndarray:
    """Sum ``fold(packed, n)`` over fixed-size chunks of n-step paths.

    Chunk i fills ``packed``, one uint8 row per path holding its steps as
    bits (most significant first), with the little-endian bytes of the raw
    64-bit outputs of the Philox stream jumped by i from the seed key
    (the bytes ``Generator.integers(0, 256, dtype=np.uint8)`` gives), so
    the total is the same bit for bit whatever ``threads``.  The calling
    thread folds every chunk, in chunk order, while min(threads, chunks,
    usable CPUs) - 1 pool threads draw the chunks after it (a draw holds
    no GIL); at most that many chunks are drawn and not yet folded, and
    no pool is started when that is none.  A chunk above
    ``_MAX_CHUNK_BYTES`` or more than ``_MAX_CHUNKS`` chunks raise
    ``ResourceLimitError`` before any draw.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed is None:
        raise ValueError("a seed is required for Monte Carlo reproducibility")
    rows, width = min(trials, _CHUNK_TRIALS), -(-n // 8)
    if rows * width > _MAX_CHUNK_BYTES:
        raise ResourceLimitError(
            f"a Monte Carlo chunk of {rows} paths of {n} steps exceeds "
            f"{_MAX_CHUNK_BYTES} packed bytes; lower the horizon or the trials")
    chunks = -(-trials // _CHUNK_TRIALS)
    if chunks > _MAX_CHUNKS:
        raise ResourceLimitError(
            f"{trials} Monte Carlo trials exceed {_MAX_CHUNKS} chunks of "
            f"{_CHUNK_TRIALS} paths; lower the trials")

    def draw(i: int) -> np.ndarray:
        count = min(_CHUNK_TRIALS, trials - i * _CHUNK_TRIALS)
        size = count * width
        raw = np.random.Philox(key=seed).jumped(i).random_raw(-(-size // 8))
        packed = raw.astype("<u8", copy=False).view(np.uint8)[:size]
        return packed.reshape(count, width)

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    ahead = min(threads, chunks, cpus) - 1
    if ahead < 1:
        return functools.reduce(np.add, (fold(draw(i), n)
                                         for i in range(chunks)))

    def drawn_ahead(pool: ThreadPoolExecutor) -> Iterator[np.ndarray]:
        pending = collections.deque(pool.submit(draw, i) for i in range(ahead))
        for i in range(ahead, chunks + ahead):
            packed = pending.popleft().result()
            if i < chunks:
                pending.append(pool.submit(draw, i))
            yield packed

    with ThreadPoolExecutor(max_workers=ahead) as pool:
        return functools.reduce(np.add, (fold(packed, n)
                                         for packed in drawn_ahead(pool)))


# Bit shifts that take a byte's steps out most significant first.
_STEP_SHIFTS = np.arange(7, -1, -1, dtype=np.uint8)[:, None]


def _byte_planes(packed: np.ndarray, columns: int,
                 planes: np.ndarray) -> Iterator[int]:
    """Yield each of the first ``columns`` byte columns c of packed paths
    once its 8 steps, most significant first, fill ``planes[:8]``, one
    uint8 0/1 row per step.  A ninth row of ``planes``, if any, gets the
    first step of column c + 1, where there is one.  The bytes are copied
    step-major 8 columns (and the one after) at a time into one buffer, as
    a column of the row-major chunk is slow to read, and a whole chunk is
    never copied."""
    slab = np.empty((min(9, packed.shape[1]), len(packed)), dtype=np.uint8)
    for start in range(0, columns, 8):
        copied = min(9, packed.shape[1] - start)
        np.copyto(slab[:copied], packed[:, start:start + copied].T)
        for col in range(start, min(start + 8, columns)):
            np.right_shift(slab[col - start], _STEP_SHIFTS, out=planes[:8])
            np.bitwise_and(planes[:8], 1, out=planes[:8])
            if len(planes) > 8 and col + 1 - start < copied:
                np.right_shift(slab[col + 1 - start], 7, out=planes[8])
            yield col


def _bec_leaf_samples(packed: np.ndarray, eps: float,
                      depths: Sequence[int]) -> list[np.ndarray]:
    """z at each of the increasing ``depths`` along the packed paths, a
    1 bit being the better step z -> z^2 and a 0 bit z -> z(2 - z), by the
    signed step of ``polarization._apply_rows``, which returns |s| and so
    restarts positive at each call.  Steps are unpacked a byte at a time,
    so deep paths stay packed, and the walk stops once every z is 0.0 or
    1.0, which both maps fix, checked every 64 steps."""
    z = np.full(packed.shape[0], eps)
    planes = np.empty((8, packed.shape[0]), dtype=np.uint8)
    out = []
    for col in _byte_planes(packed, -(-depths[-1] // 8), planes):
        start = 8 * col
        stop = min(start + 8, depths[-1])
        cuts = [t for t in depths if start < t < stop] + [stop]
        for a, b in zip([start] + cuts, cuts):
            z = _apply_rows(z, planes[a - start:b - start])
            if b in depths:
                out.append(z)
        if col % 8 == 7 and ((z == 0.0) | (z == 1.0)).all():
            break
    return out + [z] * (len(depths) - len(out))


def measure_scan(eps: float, depths: Sequence[int], delta: float = 1e-3,
                 mc_trials: int | None = None, seed: int | None = None,
                 threads: int = 1) -> list[MeasureEstimate]:
    """Fraction of depth-n channels already close to perfect or useless.

    A leaf counts as good when z <= delta and bad when z >= 1 - delta,
    0 < delta < 1/2.  Depths up to 24 are counted exactly, all in one
    pass that stops splitting a node once every leaf below it is sure to
    be good, or bad (``bec_leaf_counts``); beyond that paths are Monte
    Carlo sampled, which requires ``mc_trials`` and ``seed``.  Every depth
    is checked before any leaf is computed or path drawn.  All sampled
    depths are read off the same paths, so their rows are correlated.
    The fractions trend toward 1 - eps and eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    for n in depths:
        if n < 0:
            raise ValueError(f"depth must be >= 0, got {n}")
        if n > MAX_LEAF_LIST_DEPTH and mc_trials is None:
            raise ResourceLimitError(
                f"depth {n} needs Monte Carlo sampling; pass mc_trials and seed")
    # Exact depths come from one pass, which also checks delta.
    exact = [n for n in depths if n <= MAX_LEAF_LIST_DEPTH]
    counts = dict(zip(exact, bec_leaf_counts(eps, exact, delta)))
    # Sampled depths share paths, drawn once.
    deep = sorted({n for n in depths if n > MAX_LEAF_LIST_DEPTH})
    if deep:
        sampled = _mc_accumulate(mc_trials, seed, threads, deep[-1], (
            lambda packed, _: np.array([
                [(z <= delta).sum(), (z >= 1.0 - delta).sum()]
                for z in _bec_leaf_samples(packed, eps, deep)])))
        counts.update(zip(deep, sampled.tolist()))
    out = []
    for n in depths:
        good, bad = counts[n]
        total = 1 << n if n <= MAX_LEAF_LIST_DEPTH else mc_trials
        out.append(MeasureEstimate(
            depth=n, eps=eps, delta=delta,
            fraction_good=good / total, fraction_bad=bad / total,
            fraction_unresolved=(total - good - bad) / total))
    return out


def cell_bounds(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Endpoints of the k-th depth-n dyadic cell, k = 1..2^n."""
    if n < 0 or not 1 <= k <= (1 << n):
        raise ValueError(f"cell index {k} out of range at depth {n}")
    return Fraction(k - 1, 1 << n), Fraction(k, 1 << n)


def cell_shift_pair(x: Fraction, n: int, k: int) -> tuple[Fraction, Fraction]:
    """Exact values whose expansions insert a 0 / a 1 after the first n
    bits of x: the affine halves (x + left endpoint)/2 and
    (x + right endpoint)/2 of the containing cell."""
    lo, hi = cell_bounds(n, k)
    x = Fraction(x)
    if not lo <= x <= hi:
        raise ValueError(f"{x} is not in cell {k} at depth {n}")
    return (x + lo) / 2, (x + hi) / 2


def selfsim_check(samples: Iterable[Fraction], n: int, k: int,
                  key: Callable[[Fraction], float]) -> list[SelfsimViolation]:
    """Check the order behind the quasi self-similar inclusions.

    For each non-dyadic x in the cell, inserting a 0 after the cell bits
    must not raise the key and inserting a 1 must not lower it:
    key(left) <= key(x) <= key(right) within 1e-9.  The key is the
    threshold theta, or heavy-set membership as a bool (False < True),
    for which the order is heavy(left) => heavy(x) => heavy(right).
    Returns the violations (expected: none).
    """
    violations = []
    for x in samples:
        x = Fraction(x)
        if is_dyadic(x):
            raise ValueError(f"samples must be non-dyadic, got {x}")
        left, right = cell_shift_pair(x, n, k)
        value, key_left, key_right = key(x), key(left), key(right)
        defect = max(key_left - value, value - key_right)
        if defect > 1e-9:
            violations.append(SelfsimViolation(
                x=x, n=n, k=k, left=key_left, value=value, right=key_right,
                defect=defect))
    return violations


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy_count(n: int, rho: Fraction | float | str) -> float:
    """Dimension witness (1/n) log2 of the number of length-n strings with
    weight at least ceil(rho*n); converges to the binary entropy of rho
    for rho >= 1/2."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _MAX_ENTROPY_N:
        raise ResourceLimitError(
            f"entropy horizon capped at {_MAX_ENTROPY_N}, got {n}")
    rho = Fraction(rho)
    if not 0 <= rho <= 1:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    j0 = max(0, math.ceil(rho * n))
    js = np.arange(j0, n, dtype=np.float64)
    # log2 C(n, j) accumulated from the first tail term (log-domain keeps
    # n up to 1e6 tractable).
    ln2 = math.log(2.0)
    log2_first = (math.lgamma(n + 1) - math.lgamma(j0 + 1)
                  - math.lgamma(n - j0 + 1)) / ln2
    steps = np.log2((n - js) / (js + 1.0))
    log2_terms = log2_first + np.concatenate([[0.0], np.cumsum(steps)])
    peak = log2_terms.max()
    total = peak + math.log2(float(np.exp2(log2_terms - peak).sum()))
    return total / n


def _exact_crossing_counts(horizon: int) -> dict[int, int]:
    """Exact distribution of zero crossings over all 2^horizon walks.

    Dynamic program over (walk value + horizon, sign state, crossings),
    one whole-array step per walk step; a zero value carries the previous
    sign and a crossing is counted at the first value of opposite sign.
    """
    state = np.zeros((2 * horizon + 1, 2, horizon // 2 + 2), dtype=np.int64)
    state[horizon + 1, 1, 0] = 1
    state[horizon - 1, 0, 0] = 1
    for _ in range(1, horizon):
        nxt = np.zeros_like(state)
        nxt[1:] = state[:-1]
        nxt[:-1] += state[1:]
        for side, sgn in ((nxt[horizon + 1:], 1), (nxt[:horizon], 0)):
            side[:, sgn, 1:] += side[:, 1 - sgn, :-1]
            side[:, 1 - sgn] = 0
        state = nxt
    totals = state.sum(axis=(0, 1))
    return {r: int(c) for r, c in enumerate(totals) if c}


def walk_distribution(n: int, trials: int | None = None,
                      seed: int | None = None, threads: int = 1) -> WalkStats:
    """Zero-crossing statistics of the walk w(b^m) - m/2 over length-n
    strings, exhaustive (exact, n <= 65) or Monte Carlo sampled."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    if trials is None:
        if n > _MAX_EXHAUSTIVE_WALK:
            raise ResourceLimitError(
                f"exhaustive walk counts capped at horizon "
                f"{_MAX_EXHAUSTIVE_WALK}; pass trials/seed for Monte Carlo")
        counts = _exact_crossing_counts(n)
        return WalkStats(n=n, counts_by_crossings=counts, total=1 << n,
                         mode="exhaustive")

    totals = _mc_accumulate(trials, seed, threads, n, _crossing_counts)
    counts = {r: int(c) for r, c in enumerate(totals) if c}
    return WalkStats(n=n, counts_by_crossings=counts, total=trials,
                     mode="monte-carlo", seed=seed)


def _crossing_counts(packed: np.ndarray, n: int) -> np.ndarray:
    """Histogram (n//2 + 2 bins) of the zero crossings of the walks given
    by the first n bits of the packed rows, 1 = up.  A walk is 0 only
    after 2k steps, k of them up, and then crosses at step 2k + 1 exactly
    when that step repeats step 2k.  Steps are unpacked a byte at a time,
    its four step pairs and the first step of the next byte."""
    half = (n - 1) // 2
    rows = len(packed)
    dtype = np.int16 if n < 1 << 15 else np.int64
    ones, crossings = np.zeros((2, rows), dtype=dtype)
    planes = np.zeros((9, rows), dtype=np.uint8)
    ups = np.empty((4, rows), dtype=np.uint8)
    repeat = np.empty((4, rows), dtype=bool)
    hit = np.empty(rows, dtype=bool)
    for col in _byte_planes(packed, -(-half // 4), planes):
        np.add(planes[0:8:2], planes[1:8:2], out=ups)
        np.equal(planes[2:9:2], planes[1:8:2], out=repeat)
        for p in range(min(4, half - 4 * col)):
            ones += ups[p]
            np.equal(ones, 4 * col + p + 1, out=hit)
            hit &= repeat[p]
            crossings += hit
    return np.bincount(crossings, minlength=n // 2 + 2)


def crossing_count_closed_form(horizon: int, r: int) -> Fraction:
    """Exact P(N0 = r) at an odd horizon 2m+1: C(2m+1, m-r) / 2^(2m)."""
    if horizon < 1 or horizon % 2 == 0:
        raise ValueError("closed form requires an odd horizon")
    m = (horizon - 1) // 2
    if r < 0 or r > m:
        return Fraction(0)
    return Fraction(math.comb(horizon, m - r), 1 << (2 * m))


def crossing_cdf_bound(m: int, r: int) -> float:
    """Upper bound 4e(r+1)/sqrt((m+1) pi) on P(N0 <= r) at horizon 2m+1."""
    return 4.0 * math.e * (r + 1) / math.sqrt((m + 1) * math.pi)


@dataclass(frozen=True)
class CrossingRow:
    r: int
    prob: Fraction
    closed_form: Fraction
    cumulative: Fraction
    bound: float
    defect: Fraction  # prob - closed_form


def feller_identity_table(m: int) -> list[CrossingRow]:
    """Exhaustive crossing distribution at horizon 2m+1 against the exact
    closed form; the defect of every row must be zero."""
    horizon = 2 * m + 1
    stats = walk_distribution(horizon)
    rows = []
    cumulative = Fraction(0)
    for r in range(m + 1):
        p = stats.probability(r)
        closed_form = crossing_count_closed_form(horizon, r)
        cumulative += p
        rows.append(CrossingRow(r=r, prob=p, closed_form=closed_form,
                                cumulative=cumulative,
                                bound=crossing_cdf_bound(m, r),
                                defect=p - closed_form))
    return rows


def walk_min_nonnegative_fraction(n: int, trials: int, seed: int,
                                  threads: int = 1) -> float:
    """Monte Carlo fraction of length-n walks that never go negative.

    This is the depth-n shadow of the measure-zero heavy set at rho = 1/2
    and must decay toward zero as n grows.
    """
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")

    hits = _mc_accumulate(trials, seed, threads, n, _never_negative_count)
    return int(hits[0]) / trials


def _byte_walk(r: int) -> np.ndarray:
    """Net displacement and running minimum of the walk over the first r
    bits (1 = up, most significant first) of each byte, as (2, 256)."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                         count=r)
    walk = np.cumsum(2 * bits.astype(np.int32) - 1, axis=1, dtype=np.int32)
    return np.stack([walk[:, -1], walk.min(axis=1)])


# ``_byte_walk(r)`` for r = 1..8 steps, keyed by r.
_BYTE_WALKS = {r: _byte_walk(r) for r in range(1, 9)}


def _never_negative_count(packed: np.ndarray, n: int) -> np.ndarray:
    """Number of packed rows whose walk over their first n bits (1 = up)
    never goes below 0, as a one-element array.  Walks go a byte at a time
    through ``_BYTE_WALKS``; dead rows are dropped after the first byte,
    which about 3 in 4 do not survive, and then every 8 bytes.  A position
    fits int32: ``_MAX_CHUNK_BYTES`` keeps n at most 2^28."""
    pos = np.zeros(len(packed), dtype=np.int32)
    alive = np.ones(len(packed), dtype=bool)
    for col in range(-(-n // 8)):
        net, low = _BYTE_WALKS[min(8, n - 8 * col)]
        byte = packed[:, col]
        alive &= pos + low[byte] >= 0
        pos += net[byte]
        if col % 8 == 0:
            packed, pos, alive = packed[alive], pos[alive], alive[alive]
            if not len(packed):
                break
    return np.array([np.count_nonzero(alive)])
