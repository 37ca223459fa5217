"""Reference distributions for the omnibus test: chi-square and F survival functions.

Both take one scalar and use ``math`` only.  Each is a regularized incomplete gamma or beta function,
summed as a series or a continued fraction in O(sqrt(df)) steps (33 ms at x = df = 10^9 on 2 vCPUs).
Against 40-digit values chi_square_sf is within 3e-13 relative for df <= 10^7, and f_sf within 1e-13
for d1 < 40, d2 <= 10^18 and of its chi-square limit beyond (tests/tail_accuracy.py).  A loop that
reaches the step cap raises UnsupportedDesignError.
"""

from __future__ import annotations

import math
import sys

from .errors import UnsupportedDesignError, ValidationError, check_int, check_reals, shown


def _check_df(df: int, name: str) -> None:
    """ValidationError unless ``df`` is an int >= 1; UnsupportedDesignError if a float cannot hold it."""
    if check_int(df, name, 1) > sys.float_info.max:
        raise UnsupportedDesignError(f"{name}={shown(df)} unsupported: it passes the float range")


def _check_x(x) -> float:
    """``x`` as a float if it is a real (see check_reals), finite and nonnegative; else ValidationError."""
    message = f"x must be a finite nonnegative real, got {shown(x)}"
    (x,) = check_reals((x,), message)
    if not math.isfinite(x) or x < 0:
        raise ValidationError(message)
    return x


def chi_square_sf(x: float, df: int) -> float:
    """Survival function P(chi2_df >= x): the regularized upper incomplete gamma Q(a, y) at a = df/2, y = x/2.

    Below y = a + 1 it is 1 - P(a, y), with P summed as its series (A&S 6.5.29); from there, the even part
    of the continued fraction for Q (A&S 6.5.31, Numerical Recipes 6.2.7).  Both scale y^a e^-y / Gamma(a).
    Domain: any x at every int df >= 1 below about 1.94e9 (the CLI stays far below).  From there an x near df,
    at first just below df + 2 as in chi_square_sf(2e9, 2 * 10**9), passes _MAX_STEPS: UnsupportedDesignError.
    """
    _check_df(df, "df")
    x = _check_x(x)
    a, y = df / 2.0, x / 2.0
    front = math.exp(_log_gamma_front(a, y)) if y > 0.0 else 0.0
    if front == 0.0:  # one of P and Q is below the least double, so the other is 1
        return 0.0 if y >= a + 1.0 else 1.0
    if y >= a + 1.0:
        # 1 / (y + 1 - a - 1 (1 - a) / (y + 3 - a - 2 (2 - a) / (y + 5 - a - ...)))
        return front * _lentz(y + 1.0 - a, lambda m: (-m * (m - a), y + 2.0 * m + 1.0 - a))
    term = total = 1.0 / a
    for n in range(1, _MAX_STEPS):
        term *= y / (a + n)
        total += term
        if term * y < total * _EPS * (a + n + 1.0 - y):  # the rest sums to below term y / (a + n + 1 - y)
            return 1.0 - front * total
    raise UnsupportedDesignError(f"the survival function does not converge within {_MAX_STEPS} steps")


def _log_gamma_front(a: float, y: float) -> float:
    """log(y^a e^-y / Gamma(a)); from a = 100 Stirling's series is differenced, as the direct form cancels."""
    if a < 100.0:
        return a * math.log(y) - y - math.lgamma(a)
    # a (log(1 + t) - t) + log(a / 2 pi) / 2 - _stirling_tail(a) at t = (y - a) / a.  Near t = 0,
    # log(1 + t) - t = 2 atanh(u) - t is summed as -t u + 2 (u^3/3 + u^5/5 + ...) at u = t / (2 + t).
    t = (y - a) / a
    u = t / (2.0 + t)
    if abs(u) < 1.0 / 3.0:
        s = -t * u + sum(2.0 * u**n / n for n in range(3, 41, 2))
    else:  # log(y / a) keeps the digits that log1p(t) loses near t = -1; the floor only cuts a s below -6e4
        s = (math.log1p(t) if t > 0.0 else math.log(max(y / a, _TINY))) - t
    return a * s + 0.5 * math.log(a / (2.0 * math.pi)) - _stirling_tail(a)


# Convergence threshold and step cap of the series and the continued fractions.
# Near its switch point each takes O(sqrt(df)) steps: about 2e5 at x = df = 10^9
# for the chi-square series, and about 430 at x = 1, d1 = d2 = 10^6 for the F fraction.
_EPS = 1e-15
_MAX_STEPS = 250_000
_TINY = 1e-300


def _lentz(first: float, coef) -> float:
    """1 / (first + a_1 / (b_1 + a_2 / (b_2 + ...))) by the modified Lentz method (Numerical Recipes 5.2),
    with (a_m, b_m) = coef(m); converged once a step moves it by less than _EPS."""

    def guard(v: float) -> float:
        return _TINY if abs(v) < _TINY else v

    c, d = math.inf, 1.0 / guard(first)
    h = d
    for m in range(1, _MAX_STEPS + 1):
        a, b = coef(m)
        d = 1.0 / guard(b + a * d)
        c = guard(b + a / c)
        h *= d * c
        if abs(d * c - 1.0) < _EPS:
            return h
    raise UnsupportedDesignError(f"the survival function does not converge within {_MAX_STEPS} steps")


def _beta_inc(a: float, b: float, r: float) -> float:
    """Regularized incomplete beta I_w(a, b) at w = 1 / (1 + r), for 0 < r < inf; 1 - I_v(b, a) at v = 1 - w
    where the fraction converges slowly, w > (a + 1) / (a + b + 2).  Both w and v are exact to rounding, and
    the front w^a v^b Gamma(a + b) / (Gamma(a) Gamma(b)) is a ratio of incomplete gamma fronts (DiDonato &
    Morris 1992), so it keeps its digits at large a or b."""
    w, v = 1.0 / (1.0 + r), r / (1.0 + r)
    flip = r * (a + 1.0) < b + 1.0  # w > (a + 1) / (a + b + 2), without rounding w to 1
    if flip:
        a, b, w, v = b, a, v, w
    c = a + b
    front = math.exp(_log_gamma_front(a, c * w) + _log_gamma_front(b, c * v) - _log_gamma_front(c, c))
    if front == 0.0:  # the tail is below the least double
        return 1.0 if flip else 0.0

    def coef(m: int) -> tuple:
        # The odd part of A&S 26.5.8, 1 / (1 + d_1 / (1 + d_2 / ...)), scaled by a so no term underflows:
        # a_m = -a^2 d_2m-1 d_2m, b_m = a (1 + d_2m + d_2m+1); 1 + d_2m+1, free of its cancellation at a >> b,
        # is ((a + m) (2m + 1 + (a + m) v - b w) + m (m + 1)) / ((a + 2m) (a + 2m + 1)), taken in ratios.
        q = a + 2.0 * m
        even = a / q * m * ((b - m) * w / (q - 1.0))
        odd = a / q * ((a + m) / (q + 1.0) * (2.0 * m + 1.0 + (a + m) * v - b * w) + m * (m + 1.0) / (q + 1.0))
        return a / (q - 1.0) * ((a + m - 1.0) / (q - 2.0)) * (c + m - 1.0) * w * even, even + odd

    p = front * _lentz(a / (a + 1.0) * (1.0 + a * v - b * w), coef)  # a (1 + d_1) first
    return 1.0 - p if flip else p


def _stirling_tail(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2), to double precision for x >= 100."""
    x2 = x * x
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * x2)) / x2) / x2) / x


def f_sf(x: float, d1: int, d2: int) -> float:
    """Survival function P(F_{d1,d2} >= x) = I_w(d2/2, d1/2) at w = d2 / (d2 + d1 x)."""
    _check_df(d1, "d1")
    _check_df(d2, "d2")
    x = _check_x(x)
    if min(d1, d2) > 2**53:  # past it the fraction's first coefficients keep about 8 digits near the mean
        raise UnsupportedDesignError(f"d1={shown(d1)}, d2={shown(d2)} unsupported: both pass 2^53")
    r = d1 * x / d2
    if r == 0.0:
        return 1.0
    if r == math.inf:
        raise UnsupportedDesignError(f"x={shown(x)} unsupported: d1 x / d2 passes the float range")
    return _beta_inc(d2 / 2.0, d1 / 2.0, r)
