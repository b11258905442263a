#!/usr/bin/env python3
"""Generate the threshold-curve data files for the three-panel fractal plot.

Writes the full-interval curve plus the two half-interval panels rescaled to
[0,1], which makes the quasi self-similar inclusions visible by eye: the
rescaled right half dominates the full curve, the left half sits below it.

Usage: python scripts/make_figure_data.py --grid-exponent 10 --outdir data/
"""

import argparse
import pathlib

from polarfractal.thresholds import threshold_curve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid-exponent", "-m", type=int, default=10)
    parser.add_argument("--depth", type=int, default=40)
    parser.add_argument("--outdir", default="figure-data")
    args = parser.parse_args()

    rows = threshold_curve(args.grid_exponent, args.depth)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def write(name, points):
        path = outdir / name
        with open(path, "w") as fh:
            fh.write("x,theta\n")
            for x, theta in points:
                fh.write(f"{x:.17g},{theta:.17g}\n")
        print(f"wrote {path} ({len(points)} points)")

    write("fractal_full.csv", rows)
    left = [(2.0 * x, th) for x, th in rows if x < 0.5]
    right = [(2.0 * x - 1.0, th) for x, th in rows if x > 0.5]
    write("fractal_left_rescaled.csv", left)
    write("fractal_right_rescaled.csv", right)

    worst = max(abs(th + rows[len(rows) - 1 - i][1] - 1.0)
                for i, (_, th) in enumerate(rows))
    print(f"pointwise symmetry defect: {worst:.3e}")


if __name__ == "__main__":
    main()
