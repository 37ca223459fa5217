"""Reference distributions for the two-stage test.

Only the three routines the procedure needs: chi-square and F survival
functions, and the studentized range with infinite degrees of freedom.  The
critical values served by :func:`q_alpha` come from a hardcoded table so CD
values are reproducible bit-for-bit across platforms; the quadrature path is
the oracle that validates the table at test time, not the runtime source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import integrate, special

from .errors import NumericalError, UnsupportedDesignError, ValidationError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

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


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) * _INV_SQRT_2PI


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def studentized_range_cdf(q: float, k: int, tol: float = 1e-8) -> float:
    """CDF of the range of k iid standard normals (infinite-df studentized range).

    Evaluates k * integral of phi(z) * [Phi(z) - Phi(z - q)]^(k-1) dz by
    adaptive quadrature over z in [-8, 8]; beyond +-8 the normal density
    contributes less than 1e-15.

    Raises
    ------
    NumericalError
        If the quadrature cannot certify absolute accuracy ``tol``; the
        achieved tolerance is reported.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValidationError(f"k must be an integer >= 2, got {k!r}")
    if not math.isfinite(q) or q < 0:
        raise ValidationError(f"q must be a finite nonnegative real, got {q!r}")
    if q == 0.0:
        return 0.0

    km1 = k - 1

    def integrand(z: float) -> float:
        return _norm_pdf(z) * (_norm_cdf(z) - _norm_cdf(z - q)) ** km1

    value, abserr = integrate.quad(integrand, -8.0, 8.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    achieved = k * abserr
    if achieved > tol:
        raise NumericalError(
            f"studentized range quadrature achieved abs error {achieved:.3e}, "
            f"needed {tol:.0e} (q={q}, k={k})"
        )
    return min(1.0, max(0.0, k * value))


def studentized_range_quantile(p: float, k: int, q_tol: float = 1e-6) -> float:
    """Quantile of the infinite-df studentized range, by bisection on the CDF."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie in (0, 1), got {p!r}")
    lo, hi = 0.0, 2.0
    while studentized_range_cdf(hi, k) < p:
        hi *= 2.0
        if hi > 64.0:
            raise NumericalError(f"failed to bracket the {p} quantile for k={k}")
    while hi - lo > q_tol:
        mid = 0.5 * (lo + hi)
        if studentized_range_cdf(mid, k) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
# quantiles; the test suite revalidates every entry against
# studentized_range_quantile to 1e-3.
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
