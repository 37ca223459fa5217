"""Reference distributions for the omnibus test: chi-square and F survival functions.

Both take one scalar and use ``math`` only.  Each is a regularized incomplete gamma or
beta function, summed as a series or a continued fraction in O(sqrt(df)) steps (33 ms at
x = df = 10^9 on 2 vCPUs); chi_square_sf is within 3e-13 relative of 40-digit values for
df <= 10^7.  A loop that reaches the step cap raises UnsupportedDesignError.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, count, islice

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
    """
    _check_df(df, "df")
    x = _check_x(x)
    a, y = df / 2.0, x / 2.0
    front = math.exp(_log_gamma_front(a, y)) if y > 0.0 else 0.0
    if front == 0.0:  # one of P and Q is below the least double, so the other is 1
        return 0.0 if y >= a + 1.0 else 1.0
    if y >= a + 1.0:
        # 1 / (y + 1 - a - 1 (1 - a) / (y + 3 - a - 2 (2 - a) / (y + 5 - a - ...)))
        return front * _lentz(y + 1.0 - a, (((-m * (m - a), y + 2.0 * m + 1.0 - a),) for m in count(1)))
    term = total = 1.0 / a
    for n in range(1, _MAX_STEPS):
        term *= y / (a + n)
        total += term
        if term * y < total * _EPS * (a + n + 1.0 - y):  # the rest sums to below term y / (a + n + 1 - y)
            return 1.0 - front * total
    raise UnsupportedDesignError(f"the survival function does not converge within {_MAX_STEPS} steps")


def _log_gamma_front(a: float, y: float) -> float:
    """log(y^a e^-y / Gamma(a)); from a = 100 Stirling's series is differenced, as in _log_gamma_ratio."""
    if a < 100.0:
        return a * math.log(y) - y - math.lgamma(a)
    # a (log(1 + t) - t) + log(a / 2 pi) / 2 - _stirling_tail(a) at t = (y - a) / a.  Near t = 0,
    # log(1 + t) - t = 2 atanh(u) - t is summed as -t u + 2 (u^3/3 + u^5/5 + ...) at u = t / (2 + t).
    t = (y - a) / a
    u = t / (2.0 + t)
    if abs(u) < 1.0 / 3.0:
        s = -t * u + sum(2.0 * u**n / n for n in range(3, 41, 2))
    else:  # t is -1 only where y/a < 2^-53, where the front underflows to 0 anyway
        s = (math.log1p(t) if t > -1.0 else -math.inf) - t
    return a * s + 0.5 * math.log(a / (2.0 * math.pi)) - _stirling_tail(a)


# Convergence threshold and step cap of the series and the continued fractions.
# Near its switch point each takes O(sqrt(df)) steps: about 2e5 at x = df = 10^9
# for the chi-square series, and about 420 at d1 = d2 = 10^6 for the F fraction.
_EPS = 1e-15
_MAX_STEPS = 250_000
_TINY = 1e-300


def _lentz(first: float, groups) -> float:
    """1 / (first + a_1 / (b_1 + a_2 / (b_2 + ...))) by the modified Lentz method (Numerical Recipes 5.2),
    over the (a_j, b_j) in the tuples of ``groups``; converged once a tuple's last step moves it by < _EPS."""

    def guard(v: float) -> float:
        return _TINY if abs(v) < _TINY else v

    c, d = math.inf, 1.0 / guard(first)
    h = d
    for group in islice(groups, _MAX_STEPS):
        for a, b in group:
            d = 1.0 / guard(b + a * d)
            c = guard(b + a / c)
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            return h
    raise UnsupportedDesignError(f"the survival function does not converge within {_MAX_STEPS} steps")


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
    # the continued fraction 1 / (1 + d_1 / (1 + d_2 / (1 + ...))) of A&S 26.5.8, d_2m and d_2m+1 in pairs
    w = 1.0 / (1.0 + r)
    pairs = (((m * (b - m) * w / ((a + 2 * m - 1.0) * (a + 2 * m)), 1.0),
              (-(a + m) * (a + b + m) * w / ((a + 2 * m) * (a + 2 * m + 1.0)), 1.0)) for m in count(1))
    p = math.exp(log_front) * _lentz(1.0, chain((((-(a + b) * w / (a + 1.0), 1.0),),), pairs)) / a
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
    try:
        return _beta_inc(d2 / 2.0, d1 / 2.0, r)
    except OverflowError:  # lgamma(min(d1, d2) / 2), from min(d1, d2) = 5.1e305
        raise UnsupportedDesignError(f"d1={shown(d1)}, d2={shown(d2)} unsupported: lgamma overflows") from None
