"""Reference distributions for the two-stage test.

Only what the procedure needs: chi-square and F survival functions for the
omnibus test, and the post-hoc critical values q_alpha.  Those come from a
hardcoded table, so CD values are reproducible bit-for-bit across platforms;
the test suite recomputes every entry by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import special

from .errors import UnsupportedDesignError, ValidationError

SUPPORTED_ALPHAS = (0.01, 0.05, 0.10)
SUPPORTED_K = range(2, 21)


def _check_df(df: int, name: str) -> int:
    if not isinstance(df, (int,)) or isinstance(df, bool) or df < 1:
        raise ValidationError(f"{name} must be a positive integer, got {df!r}")
    return df


def chi_square_sf(x, df: int):
    """Survival function P(chi2_df >= x), elementwise when ``x`` is an array."""
    _check_df(df, "df")
    xs = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(xs) & (xs >= 0))
    if bad.any():
        shown = x if xs.ndim == 0 else xs[bad][0]
        raise ValidationError(f"x must be a finite nonnegative real, got {shown!r}")
    p = special.gammaincc(df / 2.0, xs / 2.0)
    return float(p) if p.ndim == 0 else p


def f_sf(x: float, d1: int, d2: int) -> float:
    """Survival function P(F_{d1,d2} >= x), via the regularized incomplete beta."""
    _check_df(d1, "d1")
    _check_df(d2, "d2")
    if not math.isfinite(x) or x < 0:
        raise ValidationError(f"x must be a finite nonnegative real, got {x!r}")
    if x == 0.0:
        return 1.0
    return float(special.betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x)))


@dataclass(frozen=True)
class QTable:
    """Critical values q_alpha (range quantile / sqrt(2)) for k = 2..20 groups."""

    alpha: float
    entries: Mapping[int, float]

    def __post_init__(self):
        entries = dict(self.entries)
        ks = sorted(entries)
        for a, b in zip(ks, ks[1:]):
            if not 0 < entries[a] < entries[b]:
                raise ValidationError(
                    f"q table for alpha={self.alpha} must be positive and "
                    f"strictly increasing in k (broken at k={b})"
                )
        object.__setattr__(self, "entries", entries)


# (1 - alpha) quantiles of the infinite-df studentized range divided by
# sqrt(2), for k = 2..20 groups.  Rounded to 6 decimals from quadrature
# quantiles; the test suite revalidates every entry against its own
# quadrature oracle to 1e-3.
_Q_TABLES = {
    0.01: QTable(0.01, {
        2: 2.575829, 3: 2.913494, 4: 3.113250, 5: 3.254686, 6: 3.363740,
        7: 3.452213, 8: 3.526471, 9: 3.590339, 10: 3.646291, 11: 3.696021,
        12: 3.740733, 13: 3.781318, 14: 3.818451, 15: 3.852655, 16: 3.884343,
        17: 3.913850, 18: 3.941446, 19: 3.967357, 20: 3.991770,
    }),
    0.05: QTable(0.05, {
        2: 1.959964, 3: 2.343701, 4: 2.569032, 5: 2.727774, 6: 2.849705,
        7: 2.948320, 8: 3.030878, 9: 3.101730, 10: 3.163684, 11: 3.218654,
        12: 3.268004, 13: 3.312739, 14: 3.353618, 15: 3.391230, 16: 3.426041,
        17: 3.458425, 18: 3.488685, 19: 3.517073, 20: 3.543799,
    }),
    0.10: QTable(0.10, {
        2: 1.644854, 3: 2.052293, 4: 2.291342, 5: 2.459516, 6: 2.588521,
        7: 2.692732, 8: 2.779884, 9: 2.854606, 10: 2.919889, 11: 2.977768,
        12: 3.029694, 13: 3.076734, 14: 3.119693, 15: 3.159199, 16: 3.195743,
        17: 3.229723, 18: 3.261461, 19: 3.291224, 20: 3.319233,
    }),
}


def q_table(alpha: float) -> QTable:
    """The critical-value table for one of the supported significance levels."""
    table = _Q_TABLES.get(alpha)
    if table is None:
        supported = ", ".join(f"{a:.2f}" for a in SUPPORTED_ALPHAS)
        raise UnsupportedDesignError(
            f"alpha={alpha} is not tabulated; supported levels: {supported}"
        )
    return table


def q_alpha(k: int, alpha: float) -> float:
    """Critical value for k groups: the (1-alpha) quantile of the infinite-df
    studentized range divided by sqrt(2).
    """
    table = q_table(alpha)
    if not isinstance(k, int) or isinstance(k, bool) or k not in table.entries:
        raise UnsupportedDesignError(
            f"k={k!r} is outside the tabulated range "
            f"{min(SUPPORTED_K)}..{max(SUPPORTED_K)}"
        )
    return table.entries[k]
