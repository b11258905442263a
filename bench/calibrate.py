"""A fixed reference kernel that measures how fast the host runs right now.

The kernel does the same work on every call: a pure-Python part (integer
and string work, like the exact-arithmetic path) and a numpy part (array
arithmetic, a sort and text formatting, like the 2^n-array path).  It
depends on nothing in the program under test.
"""

from __future__ import annotations

import time

import numpy as np

_PY_STEPS = 200_000
_NP_SIZE = 1 << 20
_NP_TEXT = 16_000


def _python_part() -> int:
    acc, seen = 0, {}
    for i in range(_PY_STEPS):
        acc = (acc * 31 + i) % 1_000_003
        seen[acc & 1023] = str(acc)
    return acc + len(seen)


def _numpy_part() -> float:
    a = np.arange(_NP_SIZE, dtype=np.float64)
    b = np.sort((a * 2654435761.0) % 1_000_003.0)
    c = np.cumsum(np.minimum(b, a[::-1]))
    text = ",".join(map(str, c[:_NP_TEXT].astype(np.int64).tolist()))
    return float(c[-1]) + len(text)


def kernel_seconds() -> float:
    """Wall seconds of one pass of the kernel."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0
