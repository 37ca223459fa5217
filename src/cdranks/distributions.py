"""Reference distributions for the omnibus test: chi-square and F survival functions.

Both take one scalar and use ``math`` only.  Degrees of freedom are
integers, so the chi-square tail is an exact finite sum and the F tail a
regularized incomplete beta evaluated by its continued fraction; the test
suite checks both against an independent library.
"""

from __future__ import annotations

import math
import sys

from .errors import UnsupportedDesignError, ValidationError, check_int, check_reals, shown


def _check_df(df: int, name: str) -> int:
    """``df`` if it is an int >= 1 (ValidationError) that a float can hold (UnsupportedDesignError)."""
    if check_int(df, name, 1) > sys.float_info.max:
        raise UnsupportedDesignError(f"{name}={shown(df)} unsupported: it passes the float range")
    return df


def _check_x(x) -> float:
    """``x`` as a float if it is a real (see check_reals), finite and nonnegative; else ValidationError."""
    message = f"x must be a finite nonnegative real, got {shown(x)}"
    (x,) = check_reals((x,), message)
    if not math.isfinite(x) or x < 0:
        raise ValidationError(message)
    return x


def chi_square_sf(x: float, df: int) -> float:
    """Survival function P(chi2_df >= x).

    With y = x/2 this is the finite sum (Abramowitz & Stegun 26.4.4-5)

        Q = [erfc(sqrt(y)) if df is odd else 0] + sum_a exp(-y) y^a / Gamma(a + 1)

    over a = 0, 1, ..., df/2 - 1 for even df and a = 1/2, 3/2, ..., df/2 - 1
    for odd df.  Each term is ``exp`` of its logarithm, so a tail whose
    exp(-y) alone is subnormal or zero keeps its full precision.  Past a = y the
    terms shrink, so the sum stops at the first one that leaves it unchanged.
    """
    _check_df(df, "df")
    x = _check_x(x)
    y = x / 2.0
    if y == 0.0:
        return 1.0
    log_y = math.log(y)
    if df % 2:
        p, a = math.erfc(math.sqrt(y)), 0.5
    else:
        p, a = math.exp(-y), 1.0
    while a < df / 2.0:
        p, last = p + math.exp(a * log_y - y - math.lgamma(a + 1.0)), p
        if a > y and p == last:
            break
        a += 1.0
    # near x = 0 the rounded terms can sum to a few ulps above 1
    return min(p, 1.0)


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
    _check_df(d1, "d1")
    _check_df(d2, "d2")
    x = _check_x(x)
    r = d1 * x / d2
    if r == 0.0:
        return 1.0
    return _beta_inc(d2 / 2.0, d1 / 2.0, r)
