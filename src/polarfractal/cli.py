"""Command-line interface.

Subcommands: threshold, plot-fractal, construct, measure, selfsim, heavy,
walk, entropy.  Output is deterministic given the flags; every stochastic
path requires --seed.  Exit codes: 0 ok, 1 usage or parse error or an
output that cannot be opened or written, 2 violation or defect found, 3
resource limit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Sequence

from . import codes, fractal, thresholds
from .errors import ResourceLimitError
from .expansions import is_dyadic, parse_rational

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_RESOURCE = 3

_PLOT_DEFAULT_DEPTH = 40
# selfsim samples p/q with q up to this, raised to 3*2^n at cell depth n.
_SELFSIM_QMAX = 300
# selfsim caps: cell depth (as plot-fractal -m) and samples over all cells.
_SELFSIM_MAX_N = 16
_SELFSIM_MAX_CHECKS = 1 << 12


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _UsageError(message)


def _fmt(x) -> str:
    """A float to 17 significant digits (exact round trip for binary64,
    '.' decimal point, no locale dependence); any other value as its str."""
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _print(out, text: str) -> None:
    out.write(text + "\n")


def _csv(out, header: str, rows) -> None:
    """A CSV table: the header line, then one line of ``_fmt`` cells per row."""
    _print(out, header)
    for row in rows:
        _print(out, ",".join(map(_fmt, row)))


def _record(obj) -> dict:
    """The fields of a result record in definition order, Fractions as
    their str: the JSON form of the record."""
    doc = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, Fraction):
            value = str(value)
        doc[field.name] = value
    return doc


def _parse_depths(text: str) -> list[int]:
    """Comma-separated integers; an empty token (so an empty list too) is
    a usage error."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"bad integer list {text!r}") from exc


def _thread_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built on first use and shared by later calls."""
    parser = _Parser(prog="polarfractal",
                     description="Fractal structure of polar and Reed-Muller "
                                 "index sets: thresholds, constructions, and "
                                 "desk-scale verification tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="polarization threshold of a rational")
    p.add_argument("x", help="rational in [0,1], e.g. 2/3 or 0.4")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("plot-fractal",
                       help="threshold-estimate curve on a dyadic grid")
    p.add_argument("--grid-exponent", "-m", type=int, required=True,
                   help="emit one point per odd numerator over 2^(m+1)")
    p.add_argument("--depth", type=int, default=_PLOT_DEFAULT_DEPTH,
                   help="prefix length fed to the estimator (default 40)")
    p.add_argument("--include-dyadics", action="store_true",
                   help="also emit the dyadic grid spikes at theta = 1")
    p.add_argument("--output", "-o", help="write to file instead of stdout")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="polar or Reed-Muller index set")
    kind = p.add_subparsers(dest="kind", required=True)
    pp = kind.add_parser("polar")
    pp.add_argument("--eps", type=float, required=True)
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--k", type=int, required=True, help="set size")
    pr = kind.add_parser("rm")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--r", type=int, required=True, help="order")
    for sp in (pp, pr):
        sp.add_argument("--matrix-out", help="also write the generator matrix")
        sp.add_argument("--matrix-format", choices=("text", "binary"),
                        default="text")
        sp.add_argument("--json", action="store_true")

    p = sub.add_parser("measure", help="good/bad leaf fractions per depth")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--depths", required=True, help="comma list, e.g. 10,16,20")
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--trials", type=int,
                   help="Monte Carlo trials for depths beyond 24")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=_thread_count)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("selfsim", help="self-similarity order/implication checks")
    p.add_argument("--set", choices=("threshold", "heavy"), default="threshold")
    p.add_argument("--n", type=int, required=True, help="cell depth")
    p.add_argument("--cell", type=int, help="single cell index (default: all)")
    p.add_argument("--samples", type=int, default=20, help="samples per cell")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rho", help="heavy exponent (required for --set heavy)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("heavy", help="heavy-set membership of a rational")
    p.add_argument("x")
    p.add_argument("--rho", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("walk", help="zero-crossing tables of the weight walk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="exact identity table at horizon 2n+1")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--min-nonneg", action="store_true",
                   help="report the never-negative walk fraction instead")
    p.add_argument("--threads", type=_thread_count)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("entropy", help="entropy-count dimension witness")
    p.add_argument("--rho", required=True)
    p.add_argument("--n", required=True, help="comma list of horizons")
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_threshold(args, out) -> int:
    x = parse_rational(args.x)
    result = thresholds.threshold_of_rational(x)
    if args.json:
        _print(out, json.dumps(_record(result)))
    else:
        _print(out, f"x = {x}")
        _print(out, f"theta = {_fmt(result.theta)}")
        _print(out, f"certainty = {result.certainty}")
        _print(out, f"multiple_interior_fixed_points = "
                    f"{str(result.multiplicity_flag).lower()}")
    return EXIT_OK


def _cmd_plot_fractal(args, out) -> int:
    rows = thresholds.threshold_curve(args.grid_exponent, args.depth,
                                      include_dyadics=args.include_dyadics)
    with (open(args.output, "w") if args.output
          else contextlib.nullcontext(out)) as sink:
        if args.json:
            _print(sink, json.dumps({"grid_exponent": args.grid_exponent,
                                     "depth": args.depth, "points": rows}))
        else:
            _csv(sink, "x,theta", rows)
    return EXIT_OK


def _cmd_construct(args, out) -> int:
    if args.kind == "polar":
        index_set = codes.polar_index_set(args.eps, args.n, args.k)
    else:
        index_set = codes.rm_index_set(args.r, args.n)
    if args.matrix_out:
        gm = codes.generator_matrix(index_set)
        export = (codes.matrix_text_blocks if args.matrix_format == "text"
                  else codes.matrix_bytes_blocks)
        with open(args.matrix_out, "wb") as fh:
            fh.writelines(export(gm))
    # Index sets go out a block at a time, never as one string.
    if args.json:
        out.writelines(codes.index_set_json_blocks(index_set))
        out.write("\n")
    else:
        meta = ", ".join(f"{k} = {v}" for k, v in index_set.meta.items())
        _print(out, f"kind = {index_set.kind}, n = {index_set.n}, {meta}")
        out.writelines(codes.decimal_blocks(index_set.array, "indices = ",
                                            " ", "\n"))
    return EXIT_OK


def _cmd_measure(args, out) -> int:
    depths = _parse_depths(args.depths)
    deepest_exact = fractal.MAX_LEAF_LIST_DEPTH
    if max(depths, default=0) <= deepest_exact and (
            args.trials is not None or args.seed is not None
            or args.threads is not None):
        raise _UsageError("--trials, --seed and --threads apply only to "
                          f"depths above {deepest_exact}")
    if args.trials is not None and args.seed is None:
        raise _UsageError("--seed is required with --trials")
    estimates = fractal.measure_scan(args.eps, depths, args.delta,
                                     mc_trials=args.trials, seed=args.seed,
                                     threads=args.threads or 1)
    if args.json:
        _print(out, json.dumps([_record(e) for e in estimates]))
    else:
        _csv(out, "depth,fraction_good,fraction_bad,fraction_unresolved",
             ((e.depth, e.fraction_good, e.fraction_bad, e.fraction_unresolved)
              for e in estimates))
    return EXIT_OK


def _random_cell_samples(rng: random.Random, n: int, k: int,
                         count: int) -> list[Fraction]:
    lo, hi = fractal.cell_bounds(n, k)
    # Cells of width 2^-n always contain non-dyadic p/(3*2^n), so widen the
    # denominator universe when the cap cannot reach the cell.
    qmax = max(_SELFSIM_QMAX, 3 << n)
    samples = []
    attempts = 0
    while len(samples) < count:
        attempts += 1
        if attempts > 100_000 * max(count, 1):
            raise _UsageError(
                f"could not sample cell {k} at depth {n}")
        q = rng.randrange(3, qmax + 1)
        # The numerators strictly inside the cell: lo < p/q < hi.
        lo_p = math.floor(lo * q) + 1
        hi_p = math.ceil(hi * q) - 1
        if lo_p > hi_p:
            continue
        x = Fraction(rng.randrange(lo_p, hi_p + 1), q)
        if is_dyadic(x):
            continue
        samples.append(x)
    return samples


def _cmd_selfsim(args, out) -> int:
    if (args.set == "heavy") != (args.rho is not None):
        raise _UsageError("--rho is required for --set heavy and used nowhere else")
    if args.samples < 1:
        raise _UsageError(f"--samples must be >= 1, got {args.samples}")
    if args.n < 0:
        raise _UsageError(f"--n must be >= 0, got {args.n}")
    if args.n > _SELFSIM_MAX_N:
        raise ResourceLimitError(f"selfsim cell depth capped at {_SELFSIM_MAX_N}")
    cells = range(1, (1 << args.n) + 1) if args.cell is None else [args.cell]
    if len(cells) * args.samples > _SELFSIM_MAX_CHECKS:
        raise ResourceLimitError(
            f"selfsim checks capped at {_SELFSIM_MAX_CHECKS} (cells x --samples)")
    if args.set == "threshold":
        key = lambda x: thresholds.threshold_of_rational(x).theta  # noqa: E731
        head = {"set": args.set}
    else:
        rho = Fraction(args.rho)
        key = functools.partial(codes.heavy_membership, rho=rho)
        head = {"set": args.set, "rho": str(rho)}
    rng = random.Random(args.seed)
    checked = 0
    violations = []
    for k in cells:
        samples = _random_cell_samples(rng, args.n, k, args.samples)
        checked += len(samples)
        violations.extend(fractal.selfsim_check(samples, args.n, k, key))
    if args.json:
        _print(out, json.dumps({
            **head, "n": args.n, "checked": checked,
            "violations": [_record(v) for v in violations]}))
    else:
        _print(out, f"checked = {checked}")
        _print(out, f"violations = {len(violations)}")
        for v in violations:
            _print(out, f"  {v}")
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_heavy(args, out) -> int:
    x = parse_rational(args.x)
    rho = Fraction(args.rho)
    member = codes.heavy_membership(x, rho)
    if args.json:
        _print(out, json.dumps({"x": str(x), "rho": str(rho), "member": member}))
    else:
        _print(out, f"member = {str(member).lower()}")
    return EXIT_OK


def _cmd_walk(args, out) -> int:
    if args.exhaustive and (args.min_nonneg or args.trials is not None
                            or args.seed is not None
                            or args.threads is not None):
        raise _UsageError("--exhaustive takes none of --min-nonneg, --trials, "
                          "--seed and --threads")
    if args.min_nonneg:
        if args.trials is None or args.seed is None:
            raise _UsageError("--min-nonneg requires --trials and --seed")
        frac = fractal.walk_min_nonnegative_fraction(
            args.n, args.trials, args.seed, args.threads or 1)
        if args.json:
            _print(out, json.dumps({"n": args.n, "trials": args.trials,
                                    "seed": args.seed,
                                    "fraction_min_nonnegative": frac}))
        else:
            _print(out, f"fraction_min_nonnegative = {_fmt(frac)}")
        return EXIT_OK
    if args.exhaustive:
        rows = fractal.feller_identity_table(args.n)
        defective = any(row.defect != 0 for row in rows)
        if args.json:
            _print(out, json.dumps([_record(row) for row in rows]))
        else:
            _csv(out, "r,prob,closed_form,cumulative,bound,defect",
                 (_record(row).values() for row in rows))
        return EXIT_VIOLATION if defective else EXIT_OK
    if args.trials is None or args.seed is None:
        raise _UsageError("walk needs --exhaustive or --trials with --seed")
    stats = fractal.walk_distribution(args.n, trials=args.trials,
                                      seed=args.seed,
                                      threads=args.threads or 1)
    counts = sorted(stats.counts_by_crossings.items())
    if args.json:
        _print(out, json.dumps({
            "n": stats.n, "total": stats.total, "seed": stats.seed,
            "counts": {str(r): c for r, c in counts}}))
    else:
        # The closed-form columns are empty at even horizons.
        odd = args.n % 2 == 1
        m = (args.n - 1) // 2
        _csv(out, "r,count,empirical_prob,exact_prob,bound", (
            (r, c, c / stats.total,
             float(fractal.crossing_count_closed_form(args.n, r)) if odd else "",
             fractal.crossing_cdf_bound(m, r) if odd else "")
            for r, c in counts))
    return EXIT_OK


def _cmd_entropy(args, out) -> int:
    rho = Fraction(args.rho)
    horizons = _parse_depths(args.n)
    rows = [(n, fractal.entropy_count(n, rho),
             fractal.binary_entropy(float(rho))) for n in horizons]
    if args.json:
        _print(out, json.dumps([{"n": n, "entropy_count": e, "h2": h}
                                for n, e, h in rows]))
    else:
        _csv(out, "n,entropy_count,h2", rows)
    return EXIT_OK


_HANDLERS = {
    "threshold": _cmd_threshold,
    "plot-fractal": _cmd_plot_fractal,
    "construct": _cmd_construct,
    "measure": _cmd_measure,
    "selfsim": _cmd_selfsim,
    "heavy": _cmd_heavy,
    "walk": _cmd_walk,
    "entropy": _cmd_entropy,
}


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
