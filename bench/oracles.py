"""Independent checks of every benchmark job's output.

Each oracle recomputes what it can from first principles (closed forms,
exact integer arithmetic, the complement symmetry, long division) instead
of calling the code under test.  The one library call is
``codes.matrix_from_bytes``, which reads back the binary matrix format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class OracleError(Exception):
    pass


@dataclass
class Result:
    rc: int | None  # None when main() raised
    stdout: str
    files: dict[str, bytes] = field(default_factory=dict)
    error: str = ""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _json(result: Result):
    try:
        return json.loads(result.stdout)
    except ValueError as exc:
        raise OracleError(f"stdout is not JSON: {exc}") from exc


def _csv(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    _expect(bool(lines) and lines[0] == header, f"bad CSV header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def _theta(result: Result, x: str) -> float:
    doc = _json(result)
    _expect(doc.get("x") == x, f"x field {doc.get('x')!r} != {x!r}")
    _expect(doc.get("certainty") == "exact-bec", "certainty is not exact-bec")
    theta = doc.get("theta")
    _expect(isinstance(theta, float) and 0.0 < theta < 1.0,
            f"theta {theta!r} outside (0, 1)")
    return theta


def check_threshold(job, result, results):
    theta = _theta(result, job.params["x"])
    if job.params.get("golden"):
        _expect(abs(theta - GOLDEN) <= 1e-10,
                f"theta(2/3) = {theta!r}, golden ratio {GOLDEN!r}")


def check_threshold_pair(job, result, results):
    theta = _theta(result, job.params["x"])
    other = json.loads(results[job.ref].stdout)["theta"]
    _expect(abs(theta + other - 1.0) <= 1e-9,
            f"theta(x) + theta(1-x) = {theta + other!r}")


def check_same(job, result, results):
    ref = results[job.ref]
    _expect(result.stdout == ref.stdout, "stdout differs from the reference job")


def expansion(x: Fraction) -> tuple[list[int], list[int]]:
    """(preamble, period) of x in [0, 1) by long division; the period of a
    terminating expansion is [0]."""
    p, q = x.numerator, x.denominator
    seen: dict[int, int] = {}
    bits: list[int] = []
    r = p
    while r not in seen:
        seen[r] = len(bits)
        r *= 2
        bits.append(r // q)
        r %= q
    start = seen[r]
    return bits[:start], bits[start:]


def _walk_is_heavy(preamble: list[int], period: list[int], rho: Fraction) -> bool:
    """liminf of w(b^m) - rho*m is >= 0, where w counts ones."""
    drift = sum(period) - rho * len(period)
    if drift != 0:
        return drift > 0
    w = sum(preamble)
    m = len(preamble)
    low = None
    for bit in period:
        w += bit
        m += 1
        value = w - rho * m
        low = value if low is None else min(low, value)
    return low >= 0


def heavy_member(x: Fraction, rho: Fraction) -> bool:
    """Exact heavy-set membership, existential over both expansions of a
    dyadic x."""
    if x == 1:
        return _walk_is_heavy([], [1], rho)
    preamble, period = expansion(x)
    forms = [(preamble, period)]
    if period == [0] and preamble:
        # Non-terminating form: ...01111... in place of ...1000...
        last = max(i for i, b in enumerate(preamble) if b)
        forms.append((preamble[:last] + [0], [1]))
    return any(_walk_is_heavy(a, b, rho) for a, b in forms)


def check_heavy(job, result, results):
    member = heavy_member(Fraction(job.params["x"]), Fraction(job.params["rho"]))
    _expect(result.stdout == f"member = {str(member).lower()}\n",
            f"heavy output {result.stdout!r}, exact drift says {member}")


def check_selfsim(job, result, results):
    _expect(result.stdout.splitlines()[:2] ==
            [f"checked = {job.params['checked']}", "violations = 0"],
            f"selfsim output {result.stdout[:80]!r}")


def check_feller(job, result, results):
    m = job.params["m"]
    rows = _csv(result.stdout, "r,prob,closed_form,cumulative,bound,defect")
    _expect(len(rows) == m + 1, f"{len(rows)} rows, expected {m + 1}")
    for r, row in enumerate(rows):
        exact = Fraction(math.comb(2 * m + 1, m - r), 1 << (2 * m))
        _expect(row[0] == str(r) and Fraction(row[1]) == exact
                and row[5] == "0", f"row {r}: {row}")


def entropy_exact(n: int, rho: Fraction) -> float:
    j0 = max(0, math.ceil(rho * n))
    return math.log2(sum(math.comb(n, j) for j in range(j0, n + 1))) / n


def check_entropy(job, result, results):
    rho = Fraction(job.params["rho"])
    rows = _csv(result.stdout, "n,entropy_count,h2")
    _expect([int(r[0]) for r in rows] == job.params["n"], "horizons differ")
    p = float(rho)
    h2 = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    for n, count, h in rows:
        _expect(abs(float(count) - entropy_exact(int(n), rho)) <= 1e-9,
                f"entropy_count({n}) = {count}")
        _expect(abs(float(h) - h2) <= 1e-12, f"h2 = {h}")


def _indices(result: Result, n: int) -> list[int]:
    if result.stdout.startswith("{"):
        indices = _json(result)["indices"]
    else:
        line = result.stdout.splitlines()[1]
        _expect(line.startswith("indices = "), "no indices line")
        indices = [int(t) for t in line[len("indices = "):].split()]
    _expect(all(0 <= i < (1 << n) for i in indices), "index out of range")
    _expect(all(a < b for a, b in zip(indices, indices[1:])),
            "indices are not strictly increasing")
    return indices


def _rm_size(n: int, r: int) -> int:
    return sum(math.comb(n, j) for j in range(n - r, n + 1))


def check_polar_set(job, result, results):
    indices = _indices(result, job.params["n"])
    _expect(len(indices) == job.params["k"],
            f"polar set has {len(indices)} indices, expected {job.params['k']}")


def check_rm_set(job, result, results):
    n, r = job.params["n"], job.params["r"]
    indices = _indices(result, n)
    _expect(len(indices) == _rm_size(n, r),
            f"rm set has {len(indices)} indices, expected {_rm_size(n, r)}")
    _expect(all(i.bit_count() >= n - r for i in indices), "row below weight")


def _matrix_weights(job, result) -> list[int]:
    blob = result.files[job.params["file"]]
    width = 1 << job.params["n"]
    if job.params["format"] == "text":
        lines = blob.decode().split("\n")
        _expect(lines[-1] == "", "text matrix does not end in a newline")
        lines = lines[:-1]
        _expect(all(len(line) == width and set(line) <= {"0", "1"}
                    for line in lines), "malformed text matrix row")
        return [line.count("1") for line in lines]
    from polarfractal.codes import matrix_from_bytes

    gm = matrix_from_bytes(blob)
    _expect(gm.n == job.params["n"] and gm.rows.shape[1] == width,
            "binary matrix has the wrong depth")
    return [int(w) for w in gm.rows.sum(axis=1)]


def check_matrix(job, result, results):
    n = job.params["n"]
    indices = _indices(result, n)
    expected = job.params["k"] if "k" in job.params else _rm_size(n, job.params["r"])
    _expect(len(indices) == expected, f"{len(indices)} indices, expected {expected}")
    weights = _matrix_weights(job, result)
    _expect(len(weights) == len(indices), "matrix row count != set size")
    for h, w in zip(indices, weights):
        _expect(w == 1 << h.bit_count(), f"row {h} has weight {w}")


def check_measure(job, result, results):
    rows = _csv(result.stdout,
                "depth,fraction_good,fraction_bad,fraction_unresolved")
    _expect([int(r[0]) for r in rows] == job.params["depths"], "depths differ")
    for row in rows:
        fractions = [float(v) for v in row[1:]]
        _expect(all(0.0 <= f <= 1.0 for f in fractions)
                and abs(sum(fractions) - 1.0) <= 1e-12,
                f"depth {row[0]}: fractions {fractions} do not sum to 1")


def check_plot(job, result, results):
    m = job.params["m"]
    if "file" in job.params:
        _expect(result.stdout == "", "plot with -o wrote to stdout")
        rows = _csv(result.files[job.params["file"]].decode(), "x,theta")
        points = [(float(x), float(t)) for x, t in rows]
    else:
        points = [tuple(p) for p in _json(result)["points"]]
    count = 1 << m
    _expect(len(points) == count, f"{len(points)} points, expected {count}")
    xs = [p[0] for p in points]
    _expect(all(a < b for a, b in zip(xs, xs[1:])), "x is not increasing")
    _expect(all(x == (2 * j + 1) / (2 * count) for j, x in enumerate(xs)),
            "x is not the cell-midpoint grid")
    defect = max(abs(points[j][1] + points[count - 1 - j][1] - 1.0)
                 for j in range(count))
    _expect(defect <= 1e-6, f"symmetry defect {defect!r}")


def check_min_nonneg(job, result, results):
    n, trials = job.params["n"], job.params["trials"]
    prefix = "fraction_min_nonnegative = "
    _expect(result.stdout.startswith(prefix), "no fraction line")
    frac = float(result.stdout[len(prefix):])
    p = math.comb(n, n // 2) / 2.0 ** n
    sigma = math.sqrt(p * (1 - p) / trials)
    _expect(abs(frac - p) <= 5 * sigma,
            f"fraction {frac!r} is {abs(frac - p) / sigma:.1f} sigma from {p!r}")


def check_walk_mc(job, result, results):
    """Crossing counts sum to the trials and follow the closed form
    C(n, m-r)/2^(n-1) at odd horizon n = 2m+1: each row with at least 25
    expected walks within 5 sigma, and the pooled sparse rows too."""
    n, trials = job.params["n"], job.params["trials"]
    m = (n - 1) // 2
    rows = _csv(result.stdout, "r,count,empirical_prob,exact_prob,bound")
    counts = {int(row[0]): int(row[1]) for row in rows}
    _expect(sum(counts.values()) == trials, "counts do not sum to the trials")
    pooled_count = pooled_mean = 0.0
    for r in range(m + 1):
        p = math.comb(n, m - r) / 2.0 ** (n - 1)
        mean, got = trials * p, counts.get(r, 0)
        if mean >= 25:
            sigma = math.sqrt(mean * (1 - p))
            _expect(abs(got - mean) <= 5 * sigma, f"r = {r}: count {got}, "
                    f"expected {mean:.1f} +- {sigma:.1f}")
        else:
            pooled_count += got
            pooled_mean += mean
    _expect(abs(pooled_count - pooled_mean) <= 5 * math.sqrt(pooled_mean) + 3,
            f"sparse rows hold {pooled_count}, expected {pooled_mean:.1f}")


ORACLES = {
    "threshold": check_threshold,
    "threshold_pair": check_threshold_pair,
    "repeat": check_same,
    "same_bytes": check_same,
    "heavy": check_heavy,
    "selfsim": check_selfsim,
    "feller": check_feller,
    "entropy": check_entropy,
    "polar_set": check_polar_set,
    "rm_set": check_rm_set,
    "matrix": check_matrix,
    "measure": check_measure,
    "plot": check_plot,
    "min_nonneg": check_min_nonneg,
    "walk_mc": check_walk_mc,
}


def check_job(jobs, results, i: int) -> str | None:
    """None when job i passed, else the reason it failed."""
    job, result = jobs[i], results[i]
    if result.rc is None:
        return f"raised {result.error}"
    if result.rc != 0:
        return f"exit code {result.rc}"
    try:
        ORACLES[job.oracle](job, result, results)
    except OracleError as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def check_all(jobs, results) -> list[tuple[int, str]]:
    failures = []
    for i in range(len(jobs)):
        reason = check_job(jobs, results, i)
        if reason is not None:
            failures.append((i, reason))
    return failures
