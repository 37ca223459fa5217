"""Worst relative error of chi_square_sf and f_sf against 40-digit mpmath, over fixed grids.

Not a test module; run it from the repository root (it needs mpmath, from the ``test`` extra):

    PYTHONPATH=src python3 tests/tail_accuracy.py
    PYTHONPATH=src python3 tests/tail_accuracy.py --per-decade 4 --max-df 1e7

The grids; a point counts only where the reference is above 1e-290:

- ``chi_square_sf``: df log-spaced from 1 to 10^7, ``--per-decade`` values a decade, at
  x = df + z sqrt(df) for z = -40, -40 + ``--z-step``, ..., 50 (x >= 0); and df = 10^8 and
  10^9 at z in {-3, 0, 0.5, 3, 10}.  ``--max-df`` cuts the grid off.
- ``f_sf``: d1 and x from ``--d1`` and ``--x``, at d2 = 10^5, 10^7, 10^9, 10^12, 10^15, 10^18.
- ``f_sf_limit``: the same d1 and x at d2 = 10^20, 10^50, 10^100, 10^150, against the
  chi-square tail of d1 x on d1 degrees of freedom, the d2 -> infinity limit (the gap between
  the two is below 1e-14 there).

Prints one JSON object: for each grid, its point count, how many of them raised a CdranksError,
and the worst relative error of the rest and where it is.
"""

from __future__ import annotations

import argparse
import json
import math

import mpmath

from cdranks import CdranksError, chi_square_sf, f_sf

F_D2S = (10**5, 10**7, 10**9, 10**12, 10**15, 10**18)
LIMIT_D2S = (10**20, 10**50, 10**100, 10**150)
HUGE_DFS = (10**8, 10**9)
HUGE_ZS = (-3.0, 0.0, 0.5, 3.0, 10.0)


def chi_square_points(per_decade: int, z_step: float, max_df: float) -> list:
    """(x, df) over the chi-square grid."""
    dfs = sorted({round(10 ** (k / per_decade)) for k in range(7 * per_decade + 1)})
    zs = [-40.0 + j * z_step for j in range(int(90.0 / z_step) + 1)]
    grid = [(df, z) for df in dfs for z in zs] + [(df, z) for df in HUGE_DFS for z in HUGE_ZS]
    return [(df + z * math.sqrt(df), df) for df, z in grid if df <= max_df and df + z * math.sqrt(df) >= 0.0]


def chi_square_reference(x: float, df: int) -> float:
    """Q(df/2, x/2); where mpmath's own sum gives up (from df ~ 10^5), 1 - P to 340 digits, with
    P = y^a e^-y 1F1(1; a + 1; y) / Gamma(a + 1) summed to up to 10^6 terms."""
    a, y = mpmath.mpf(df) / 2, mpmath.mpf(x) / 2
    try:
        with mpmath.workdps(40):
            return float(mpmath.gammainc(a, y, mpmath.inf, regularized=True))
    except mpmath.libmp.NoConvergence:
        with mpmath.workdps(340):
            front = mpmath.exp(a * mpmath.log(y) - y - mpmath.loggamma(a + 1))
            return float(1 - front * mpmath.hyp1f1(1, a + 1, y, maxterms=10**6))


def f_reference(x: float, d1: int, d2: int) -> float:
    with mpmath.workdps(40):
        x, d1, d2 = mpmath.mpf(x), mpmath.mpf(d1), mpmath.mpf(d2)
        return float(mpmath.betainc(d2 / 2, d1 / 2, 0, d2 / (d2 + d1 * x), regularized=True))


def worst(points: list, got, reference) -> dict:
    """The worst relative error of ``got(*p)`` against ``reference(*p)`` over the points, and how many raised."""
    count, raised, err, at = 0, 0, 0.0, None
    for p in points:
        ref = reference(*p)
        if ref > 1e-290:
            count += 1
            try:
                e = abs(got(*p) - ref) / ref
            except CdranksError:
                raised += 1
                continue
            if e >= err:
                err, at = e, p
    return {"points": count, "raised": raised, "worst_rel_err": float(f"{err:.3g}"),
            "at": [float(v) for v in at or ()]}


def accuracy_map(per_decade: int, z_step: float, max_df: float, d1s: list, xs: list) -> dict:
    f_grid = [(x, d1, d2) for d1 in d1s for x in xs for d2 in F_D2S]
    limit_grid = [(x, d1, d2) for d1 in d1s for x in xs for d2 in LIMIT_D2S]
    return {
        "chi_square_sf": worst(chi_square_points(per_decade, z_step, max_df), chi_square_sf, chi_square_reference),
        "f_sf": worst(f_grid, f_sf, f_reference),
        "f_sf_limit": worst(limit_grid, f_sf, lambda x, d1, d2: chi_square_reference(d1 * x, d1)),
    }


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-decade", type=int, default=16, help="chi-square dfs a decade (default: 16)")
    parser.add_argument("--z-step", type=float, default=1.0, help="chi-square z step (default: 1)")
    parser.add_argument("--max-df", type=float, default=1e9, help="largest chi-square df (default: 1e9)")
    parser.add_argument("--d1", type=lambda text: [int(v) for v in text.split(",")], default=[1, 2, 3, 7, 19, 39],
                        help="F d1 values, comma-separated (default: 1,2,3,7,19,39)")
    parser.add_argument("--x", type=lambda text: [float(v) for v in text.split(",")],
                        default=[0.001, 0.5, 1.0, 2.0, 5.0, 30.0], help="F x values, comma-separated")
    args = parser.parse_args(argv)
    print(json.dumps(accuracy_map(args.per_decade, args.z_step, args.max_df, args.d1, args.x)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
