"""Reference distributions for the two-stage test.

Only what the procedure needs: chi-square and F survival functions for the
omnibus test, and the post-hoc critical values q_alpha.

Both survival functions use numpy and ``math`` only.  Degrees of freedom
are integers, so the chi-square tail is an exact finite sum and the F tail
a regularized incomplete beta evaluated by its continued fraction; the test
suite checks both against an independent library.  The q_alpha values come
from a hardcoded table, so CD values are reproducible bit-for-bit across
platforms; the test suite recomputes every entry by quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnsupportedDesignError, ValidationError, check_int

SUPPORTED_ALPHAS = (0.01, 0.05, 0.10)
SUPPORTED_K = range(2, 21)


def chi_square_sf(x, df: int):
    """Survival function P(chi2_df >= x), elementwise when ``x`` is an array.

    With y = x/2 this is the finite sum (Abramowitz & Stegun 26.4.4-5)

        Q = [erfc(sqrt(y)) if df is odd else 0] + sum_a exp(-y) y^a / Gamma(a + 1)

    over a = 0, 1, ..., df/2 - 1 for even df and a = 1/2, 3/2, ..., df/2 - 1
    for odd df.  Each term is ``exp`` of its logarithm, so a tail whose
    exp(-y) alone is subnormal or zero keeps its full precision.
    """
    check_int(df, "df", 1)
    xs = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(xs) & (xs >= 0))
    if bad.any():
        shown = x if xs.ndim == 0 else xs[bad][0]
        raise ValidationError(f"x must be a finite nonnegative real, got {shown!r}")
    y = xs / 2.0
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    if df % 2:
        p = np.array([math.erfc(math.sqrt(v)) for v in y.flat]).reshape(y.shape)
        a = 0.5
    else:
        p = np.exp(-y)
        a = 1.0
    while a < df / 2.0:
        p += np.exp(a * log_y - y - math.lgamma(a + 1.0))
        a += 1.0
    # near x = 0 the rounded terms can sum to a few ulps above 1
    p = np.minimum(p, 1.0)
    return float(p) if p.ndim == 0 else p


# Convergence threshold and step cap of the incomplete-beta continued
# fraction.  Below the switch point it converges in O(sqrt(min(a, b))) steps:
# at most about 20 for d1 < 40, and about 420 at d1 = d2 = 10^6.
_CF_EPS = 1e-15
_CF_MAX_STEPS = 100_000
_CF_TINY = 1e-300


def _beta_cf(a: float, b: float, w: float) -> float:
    """Continued fraction of I_w(a, b) (A&S 26.5.8), by the modified Lentz method."""

    def guard(v: float) -> float:
        return _CF_TINY if abs(v) < _CF_TINY else v

    c = 1.0
    d = 1.0 / guard(1.0 - (a + b) * w / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_STEPS):
        m2 = 2 * m
        for coef in (
            m * (b - m) * w / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * w / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 / guard(1.0 + coef * d)
            c = guard(1.0 + coef / c)
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            break
    return h


def _beta_inc(a: float, b: float, r: float) -> float:
    """Regularized incomplete beta I_w(a, b) at w = 1 / (1 + r), for r > 0.

    Taking r rather than w keeps both w and 1 - w = 1 / (1 + 1/r) exact to
    rounding; the complement I_w(a, b) = 1 - I_{1-w}(b, a) is used above
    w = (a + 1) / (a + b + 2), where the continued fraction converges slowly.
    """
    flip = 1.0 / (1.0 + r) > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, r = b, a, 1.0 / r
    # log w = -log(1 + r) and log(1 - w) = -log(1 + 1/r)
    log_front = (
        _log_gamma_ratio(max(a, b), min(a, b)) - math.lgamma(min(a, b))
        - a * math.log1p(r) - b * math.log1p(1.0 / r)
    )
    p = math.exp(log_front) * _beta_cf(a, b, 1.0 / (1.0 + r)) / a
    return 1.0 - p if flip else p


def _log_gamma_ratio(a: float, s: float) -> float:
    """log(Gamma(a + s) / Gamma(a)) for a >= s > 0.

    For large a, lgamma(a + s) and lgamma(a) are huge and nearly equal, so
    their difference keeps few digits (about 1e-9 absolute at a = 10^6).
    There the Stirling series is differenced term by term instead.
    """
    if a < 100.0:
        return math.lgamma(a + s) - math.lgamma(a)
    return (
        (a - 0.5) * math.log1p(s / a) + s * math.log(a + s) - s
        + _stirling_tail(a + s) - _stirling_tail(a)
    )


def _stirling_tail(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2), to double precision for x >= 100."""
    x2 = x * x
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * x2)) / x2) / x2) / x


def f_sf(x: float, d1: int, d2: int) -> float:
    """Survival function P(F_{d1,d2} >= x) = I_w(d2/2, d1/2) at w = d2 / (d2 + d1 x)."""
    check_int(d1, "d1", 1)
    check_int(d2, "d2", 1)
    if not math.isfinite(x) or x < 0:
        raise ValidationError(f"x must be a finite nonnegative real, got {x!r}")
    r = d1 * x / d2
    if r == 0.0:
        return 1.0
    return _beta_inc(d2 / 2.0, d1 / 2.0, r)


# (1 - alpha) quantiles of the infinite-df studentized range divided by
# sqrt(2), for k = 2..20 groups.  Rounded to 6 decimals from quadrature
# quantiles; the test suite revalidates every entry against its own
# quadrature oracle to 1e-3.
_Q_TABLES = {
    0.01: {
        2: 2.575829, 3: 2.913494, 4: 3.113250, 5: 3.254686, 6: 3.363740,
        7: 3.452213, 8: 3.526471, 9: 3.590339, 10: 3.646291, 11: 3.696021,
        12: 3.740733, 13: 3.781318, 14: 3.818451, 15: 3.852655, 16: 3.884343,
        17: 3.913850, 18: 3.941446, 19: 3.967357, 20: 3.991770,
    },
    0.05: {
        2: 1.959964, 3: 2.343701, 4: 2.569032, 5: 2.727774, 6: 2.849705,
        7: 2.948320, 8: 3.030878, 9: 3.101730, 10: 3.163684, 11: 3.218654,
        12: 3.268004, 13: 3.312739, 14: 3.353618, 15: 3.391230, 16: 3.426041,
        17: 3.458425, 18: 3.488685, 19: 3.517073, 20: 3.543799,
    },
    0.10: {
        2: 1.644854, 3: 2.052293, 4: 2.291342, 5: 2.459516, 6: 2.588521,
        7: 2.692732, 8: 2.779884, 9: 2.854606, 10: 2.919889, 11: 2.977768,
        12: 3.029694, 13: 3.076734, 14: 3.119693, 15: 3.159199, 16: 3.195743,
        17: 3.229723, 18: 3.261461, 19: 3.291224, 20: 3.319233,
    },
}


def q_alpha(k: int, alpha: float) -> float:
    """Critical value for k groups: the (1-alpha) quantile of the infinite-df
    studentized range divided by sqrt(2).
    """
    table = _Q_TABLES.get(alpha)
    if table is None:
        supported = ", ".join(f"{a:.2f}" for a in SUPPORTED_ALPHAS)
        raise UnsupportedDesignError(
            f"alpha={alpha} is not tabulated; supported levels: {supported}"
        )
    if not isinstance(k, int) or isinstance(k, bool) or k not in table:
        raise UnsupportedDesignError(
            f"k={k!r} is outside the tabulated range "
            f"{min(SUPPORTED_K)}..{max(SUPPORTED_K)}"
        )
    return table[k]
